"""E15 — WAL-shipped replication: replay throughput and freshness.

Replays shipped records through a cold follower (records/sec) and
measures commit-to-visible latency under background tailing
(``python benchmarks/bench_e15_replication.py``), written to
``BENCH_replication.json``.

The replication gates (both topologies converge, lag is honest, warm
replay is a cache hit, every crash point and cut wire heals) are tier-1
tests in ``tests/replication/test_replication_gates.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:
    sys.path.insert(0, REPO_SRC)

from repro.replication import DirectorySource, FollowerDatabase  # noqa: E402
from repro.session import Database  # noqa: E402
from repro.structures.random_gen import random_colored_graph  # noqa: E402

DEFAULT_JSON = "BENCH_replication.json"


def build_leader(path, n: int, seed: int = 17) -> Database:
    structure = random_colored_graph(n, max_degree=4, seed=seed)
    return Database.open(path, structure=structure, sync=False)


def flip(db: Database, element: int) -> None:
    """One guaranteed-effective commit: toggle ``element``'s R color."""
    if db.structure.has_fact("R", element):
        db.apply([("delete", "R", (element,))])
    else:
        db.apply([("insert", "R", (element,))])


def percentile(values, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


def measure_replay_throughput(base, n: int, commits: int) -> dict:
    """Replay ``commits`` shipped records through a cold follower."""
    leader = build_leader(base / "replay", n)
    try:
        with FollowerDatabase(DirectorySource(leader.path)) as follower:
            follower.catch_up()
            for index in range(commits):
                flip(leader, index % n)
            started = time.perf_counter()
            applied = follower.catch_up()
            elapsed = time.perf_counter() - started
            assert applied == commits
        return {
            "commits": commits,
            "seconds": elapsed,
            "records_per_second": commits / elapsed if elapsed > 0 else 0.0,
        }
    finally:
        leader.close()


def measure_freshness(base, n: int, commits: int) -> dict:
    """Commit-to-visible latency with a background tailer running."""
    leader = build_leader(base / "fresh", n)
    latencies = []
    try:
        with FollowerDatabase(DirectorySource(leader.path)) as follower:
            follower.catch_up()
            follower.start_tailing(interval=0.005)
            for index in range(commits):
                flip(leader, index % n)
                target = leader.version
                started = time.perf_counter()
                while follower.version < target:
                    time.sleep(0.0005)
                latencies.append(time.perf_counter() - started)
            follower.stop_tailing()
        return {
            "commits": commits,
            "mean_ms": statistics.fmean(latencies) * 1e3,
            "p50_ms": percentile(latencies, 0.50) * 1e3,
            "p99_ms": percentile(latencies, 0.99) * 1e3,
        }
    finally:
        leader.close()


def run_harness(n: int, commits: int, json_path: str) -> int:
    import tempfile
    from pathlib import Path

    report = {"n": n}
    with tempfile.TemporaryDirectory(prefix="bench-e15-") as tmp:
        base = Path(tmp)
        replay = measure_replay_throughput(base, n, commits)
        print(
            f"replay: {replay['commits']} records in "
            f"{replay['seconds']:.3f}s  "
            f"{replay['records_per_second']:,.0f} records/s"
        )
        report["replay"] = replay
        freshness = measure_freshness(base, n, min(commits, 200))
        print(
            f"freshness (tailing): mean {freshness['mean_ms']:.2f}ms  "
            f"p50 {freshness['p50_ms']:.2f}ms  "
            f"p99 {freshness['p99_ms']:.2f}ms"
        )
        report["freshness"] = freshness

    with open(json_path, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2)
    print(f"report written to {json_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=200, help="structure size")
    parser.add_argument(
        "--commits", type=int, default=500, help="commits for throughput runs"
    )
    parser.add_argument("--json", default=DEFAULT_JSON, help="report path")
    args = parser.parse_args(argv)
    return run_harness(args.n, args.commits, args.json)


if __name__ == "__main__":
    sys.exit(main())
