"""One workload run, in a process of its own (started by ``run.py``).

Usage::

    python3 ledger/worker.py --workload scan --seed 1 --seconds 10 \
        --trace 0 --out RESULT.json --scratch DIR

Writes one JSON object to ``--out``: the end-to-end metrics (or, with
``--trace 1``, the per-layer metrics), detail figures with their sample
counts, and every failed operation.  ``run.py`` adds the leak count and
prints the benchmark's result line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import sys
import traceback

import layers
import ledger_workloads as workloads
import reference
from stats import best_busy, mix_min, summary
from tracing import Tracer, self_time_by_name

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SLICES = 10
# The figures of end_to_end() that the result line carries; the other two
# (count_ms, first_row_ms) go to the detail line.  In served_mix their
# short requests slowed about 2x in the host's slow stretches while the
# reference task slowed 1.4-1.7x, and their ten-seed spreads reached 0.34
# and 0.39 against the 0.25 bound.
END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "op_ms")
TRACE_SLICES = 6


def _status_kb(pid: int, path: str, fields) -> int:
    """Sum of the ``fields`` (kB lines) of ``/proc/<pid>/<path>``."""
    total = 0
    try:
        with open(f"/proc/{pid}/{path}", encoding="ascii") as handle:
            for line in handle:
                name, _, rest = line.partition(":")
                if name in fields:
                    total += int(rest.split()[0])
    except OSError:
        pass
    return total


def _descendants(pid: int) -> list:
    found = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as handle:
                    children = [int(token) for token in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def peak_rss_mb() -> dict:
    """Peak resident memory of this process (the kernel's high-water
    mark) plus the private memory of its live children (pool workers),
    as ``{"total", "own_peak", "children", "child_count"}`` (MB).  A
    forked worker's pages that are still shared with this process are
    counted once, here, not again in every worker."""
    own = _status_kb(os.getpid(), "status", ("VmHWM",))
    pids = _descendants(os.getpid())
    children = sum(
        _status_kb(pid, "smaps_rollup", ("Private_Clean", "Private_Dirty")) for pid in pids
    )
    return {
        "total": (own + children) / 1024.0,
        "own_peak": own / 1024.0,
        "children": children / 1024.0,
        "child_count": len(pids),
    }


def merged(parts):
    total = workloads.Recorder()
    for part in parts:
        total.merge(part)
    return total


def end_to_end(workload, parts, setups, peak_mb) -> dict:
    """The metrics every workload reports, as ``name -> (value, unit)``,
    from the recorders of the measured slices.

    Each latency is the fastest sample of each class of operation (one
    query's count, one page position of one drain, one request kind on
    one plan key, one commit of the commit cycle), averaged over the
    classes by their share of the mix (``stats.mix_min``): load from
    elsewhere on the host only adds to a sample.  The rate is taken the
    same way: the primary operations per second of the time the whole
    mix of timed operations (``workload.TIMELINE``, one after another
    per client) takes at each class's fastest cost, times the number of
    clients (Little's law for closed-loop clients).

    Every time is then stated at the reference speed: scaled by
    ``reference.REFERENCE_MS`` over the fastest reference task of the run
    (see ``reference.py``).  The unscaled figures, medians, tail
    percentiles with their sample counts, and the measured rates are in
    the detail line.
    """
    rec = merged(parts)
    references = rec.samples.get("reference", ())
    scale = reference.REFERENCE_MS / 1000.0 / min(references) if references else None

    def ms(kind):
        value = mix_min(rec.classes.get(kind, {}))
        return None if value is None or scale is None else value * 1000.0 * scale

    busy = sum(best_busy(rec.classes.get(kind, {})) for kind in workload.TIMELINE)
    primary = len(rec.samples.get(workload.PRIMARY, ()))
    rate = None
    if primary and busy and scale is not None:
        rate = workload.CLIENTS * primary / (busy * scale)
    return {
        "setup_s": (None if scale is None else statistics.median(setups) * scale, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ops_per_s": (rate, "1/s"),
        "op_ms": (ms(workload.PRIMARY), "ms"),
        "count_ms": (ms("count"), "ms"),
        "first_row_ms": (ms("first_row"), "ms"),
    }


def unscaled(metrics: dict, scale: float) -> dict:
    """The end-to-end figures as measured, before scaling to the
    reference speed."""
    out = {}
    for name, (value, _) in metrics.items():
        if value is None or name == "peak_rss_mb":
            out[name] = value
        elif name == "ops_per_s":
            out[name] = value * scale
        else:
            out[name] = value / scale
    return out


def details(rec) -> dict:
    """The workload's own figures, by the names a reader of the paper
    would look for, each percentile with its sample count."""
    out = {"wall_s": rec.wall}
    for kind, values in sorted(rec.samples.items()):
        out[f"{kind}_total_s"] = sum(values)
        micro = kind.rsplit(".", 1)[-1] == "test"
        scale = 1e6 if micro else 1000.0
        unit = "us" if micro else "ms"
        for q in (50, 90, 99):
            entry = summary(values, q, scale)
            out[f"{kind}_{unit}_p{q}"] = entry
    for name, value in sorted(rec.counters.items()):
        out[name] = value
    rows = rec.counters.get("rows")
    if rows and rec.wall:
        out["rows_per_s"] = rows / rec.wall
    if "request" in rec.samples and rec.wall:
        out["requests_per_s"] = len(rec.samples["request"]) / rec.wall
    replay = rec.samples.get("replay")
    if replay and replay[0] > 0:
        out["replay_records_per_s"] = rec.counters.get("replayed_records", 0) / replay[0]
    if rec.attempted:
        out["failed_ratio"] = len(rec.failures) / rec.attempted
    return out


def run(args) -> dict:
    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(args.scratch, exist_ok=True)
    workload = cls(args.seed, args.scratch)
    tracer = Tracer() if args.trace else None
    setups = []
    state = None
    for index in range(workload.SETUPS):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        # A traced run traces its last set-up, the one it goes on with.
        traced = tracer is not None and index == workload.SETUPS - 1
        if traced:
            layers.install(tracer)
        start = workloads.clock()
        with tracer.operation("setup") if traced else contextlib.nullcontext():
            state = workload.setup()
        setups.append(workloads.clock() - start)
        if traced:
            tracer.uninstall()
    result = {"setups_s": setups}
    parts = []
    try:
        if tracer is not None:
            layers.install(tracer)
        with tracer.operation("prepare") if tracer is not None else contextlib.nullcontext():
            workload.prepare(state)
        if tracer is not None:
            tracer.uninstall()
        # Memory after set-up and one warm pass of the mix: the slices run
        # with the cycle collector off, so their uncollected garbage would
        # count too, and more of it the faster the host.
        peak = peak_rss_mb()
        slices = TRACE_SLICES if tracer is not None else SLICES
        width = args.seconds / slices
        begin = workloads.clock()
        for index in range(slices):
            # Traced runs alternate untraced and traced slices.
            traced = tracer is not None and index % 2 == 1
            part = workloads.Recorder(tracer if traced else None)
            if traced:
                layers.install(tracer)
            # No cycle collection inside a slice (as in timeit); it runs
            # between slices, untimed.
            gc.collect()
            gc.disable()
            start = workloads.clock()
            try:
                workload.run(state, part, begin + (index + 1) * width)
            finally:
                part.wall = workloads.clock() - start
                gc.enable()
            if traced:
                tracer.uninstall()
            parts.append((traced, part))
        rec = merged(part for _, part in parts)
        if tracer is not None:
            layers.install(tracer)
        workload.check(state, rec)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close(state)
    result["failures"] = rec.failures
    result["attempted"] = rec.attempted
    result["detail"] = details(rec)
    result["detail"]["peak_rss_parts_mb"] = peak
    references = rec.samples.get("reference")
    if references:
        result["detail"]["reference_ms_min"] = min(references) * 1000.0
        result["detail"]["reference_scale"] = reference.REFERENCE_MS / 1000.0 / min(references)
    if rec.wall:
        result["detail"]["measured_ops_per_s"] = len(rec.samples.get(workload.PRIMARY, ())) / rec.wall
    if tracer is None:
        figures = end_to_end(workload, [part for _, part in parts], setups, peak["total"])
        result["metrics"] = {name: figures[name] for name in END_TO_END}
        result["detail"]["scaled"] = {
            name: value for name, (value, _) in figures.items() if name not in END_TO_END
        }
        scale = result["detail"].get("reference_scale")
        if scale:
            result["detail"]["unscaled"] = unscaled(figures, scale)
    else:
        plain = merged(part for traced, part in parts if not traced)
        traced = merged(part for traced, part in parts if traced)
        result["metrics"], result["unmeasured"] = layers.per_layer(
            tracer, workload, rec, plain, traced
        )
        result["detail"]["self_s_by_span"] = self_time_by_name(tracer.spans)
        result["detail"]["untraced"] = (
            "pool worker processes are not traced: their time shows as "
            "waiting inside the parent's engine spans"
        )
        spans_path = os.path.join(args.scratch, f"trace-{args.workload}-{args.seed}.json")
        tracer.dump(spans_path)
        result["detail"]["spans_file"] = os.path.relpath(spans_path, ROOT)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        result = run(args)
    except MemoryError:
        result = {"failures": [f"{args.workload}: out of memory (address-space cap)"]}
    except Exception:  # reported as a failed run, never as a result
        result = {"failures": [f"{args.workload}: {traceback.format_exc()}"]}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
