"""The repo benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 ledger/run.py --workload scan --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``ledger/NOTES.md``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance, the detail figures with their sample counts, and every
failure by name.  The exit code is 0 only when every output checked out.

The workload runs in a child process of its own, in a new session,
under an address-space cap and a hard deadline.  Afterwards every
process the run left behind (pool workers, resource trackers) is
counted, killed and reaped, and every ``/dev/shm`` segment it left is
counted and removed; each is a failed operation.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".ledger")
WORKLOADS = ("scan", "served_mix", "write_mix")

DEADLINE_S = 160.0
GRACE_S = 2.0
ADDRESS_SPACE_CAP = 3 * 1024**3
PR_SET_CHILD_SUBREAPER = 36
SHM = "/dev/shm"


def _cap_memory() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def _become_subreaper() -> None:
    """Orphans of the run are re-parented here, so they can be reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _stat(pid: int):
    """``(state, ppid, pgid)`` of a process, or None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return fields[0], int(fields[1]), int(fields[2])
    except (OSError, IndexError, ValueError):
        return None


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def _survivors(group: int) -> list:
    """``(pid, exited)`` of processes of the run's session and of orphans
    re-parented here; ``exited`` marks zombies that only await reaping."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        stat = _stat(int(entry))
        if stat is not None and (stat[2] == group or stat[1] == me):
            found.append((int(entry), stat[0] == "Z"))
    return found


def _reap(group: int) -> dict:
    """Kill and reap what the run left behind; return counts by kind."""
    seen = {}
    # A resource tracker exits on its own once the run's pipe closes; give
    # the stragglers a moment before counting them as leaked.
    grace = time.monotonic() + GRACE_S
    while time.monotonic() < grace and any(not exited for _, exited in _survivors(group)):
        time.sleep(0.05)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        pids = _survivors(group)
        if not pids:
            break
        for pid, exited in pids:
            if exited:
                continue
            if pid not in seen:
                seen[pid] = "resource_trackers" if "resource_tracker" in _cmdline(pid) else "pool_workers"
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        time.sleep(0.05)
    kinds = list(seen.values())
    return {kind: kinds.count(kind) for kind in ("pool_workers", "resource_trackers")}


def _shm_entries() -> set:
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


def _git_sha():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def run_child(args, out_path: str, scratch: str) -> tuple:
    """Run the workload child; return ``(result or None, problems, leaks)``."""
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", out_path,
        "--scratch", scratch,
    ]
    env = dict(os.environ, TMPDIR=scratch, PYTHONHASHSEED="0", MALLOC_ARENA_MAX="2")
    shm_before = _shm_entries()
    problems = []
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=sys.stderr.fileno(),
        start_new_session=True,
        preexec_fn=_cap_memory,
    )
    try:
        code = child.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        problems.append(f"timeout: the run exceeded its {DEADLINE_S:.0f} s deadline")
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    else:
        if code < 0:
            problems.append(f"crash: the run died of signal {-code}")
        elif code != 0:
            problems.append(f"crash: the run exited with code {code}")
    leaks = _reap(child.pid)
    shm_left = sorted(_shm_entries() - shm_before)
    for name in shm_left:
        try:
            os.unlink(os.path.join(SHM, name))
        except OSError:
            pass
    leaks["shm_segments"] = len(shm_left)
    for kind, count in leaks.items():
        # One failed operation per leaked item.
        problems.extend(
            f"leak: {kind.replace('_', ' ')} {index + 1} of {count} outlived the run"
            for index in range(count)
        )
    result = None
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as handle:
            result = json.load(handle)
    return result, problems, leaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one ledger workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    scratch = os.path.join(SCRATCH, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    _become_subreaper()
    out_path = os.path.join(scratch, "result.json")
    started = time.time()
    try:
        result, problems, leaks = run_child(args, out_path, scratch)
    finally:
        traces = [name for name in os.listdir(scratch) if name.startswith("trace-")]
        for name in traces:
            shutil.move(os.path.join(scratch, name), os.path.join(SCRATCH, name))
        shutil.rmtree(scratch, ignore_errors=True)
    result = result or {}
    failures = list(result.get("failures", [])) + problems
    attempted = int(result.get("attempted", 0)) + len(problems)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result.get("metrics", {}).items()
    }
    missing = sorted(name for name, entry in metrics.items() if entry["value"] is None)
    for name in missing:
        failures.append(f"missing: {name} has no samples")
    correct = not failures and bool(metrics)
    report = {
        "provenance": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": _git_sha(),
            "started": started,
        },
        "setups_s": result.get("setups_s"),
        "detail": result.get("detail", {}),
        "unmeasured": result.get("unmeasured", {}),
        "leaks": leaks,
        "failures": failures,
    }
    print(json.dumps(report, sort_keys=True))
    if not metrics:
        print("\n".join(failures) or "error: the run produced no metrics", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, attempted),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
