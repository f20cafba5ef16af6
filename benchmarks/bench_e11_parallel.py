"""E11 — branch-parallel enumeration vs. the serial path.

Claim: the branch decomposition ``(P, t)`` parallelizes enumeration with
a deterministic merge — the parallel engine's output is *byte-identical*
(same tuples, same order) to serial ``enumerate_answers``, and with a
warmed process pool the steady-state wall clock scales with the worker
count on multi-core hardware.

The standalone harness (``python benchmarks/bench_e11_parallel.py``)
measures speedup and **fails (exit 1) on any parallel/serial
divergence** — CI runs it with ``--smoke`` on a tiny workload.

Methodology note: the serial baseline is timed *after arming* (the
paper's preprocessing/enumeration split), and the process pool is timed
*after warming* (each worker's pipeline rebuild is preprocessing in the
service regime — a long-lived pool answers many queries).  The ≥1.5x
speedup target needs ≥4 physical cores; on fewer cores the harness
reports the measured ratio and only enforces output equality unless
``--require-speedup`` is passed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if REPO_SRC not in sys.path:  # allow `python benchmarks/bench_e11_parallel.py`
    sys.path.insert(0, REPO_SRC)

from repro.core.pipeline import Pipeline  # noqa: E402
from repro.engine import (  # noqa: E402
    WorkerPool,
    branch_works,
    parallel_enumerate,
    prearm,
    warm_pool,
)
from repro.fo.parser import parse  # noqa: E402
from repro.structures.random_gen import random_colored_graph  # noqa: E402

# The 3-ary disconnected-triple query: 5 partitions, 5 non-empty
# branches on the workload below — enough branch-level parallelism for a
# 4-worker pool.
TRIPLE_QUERY = "B(x) & R(y) & G(z) & ~E(x,y) & ~E(y,z) & ~E(x,z)"


def build_workload(n: int, degree: int = 4, seed: int = 42):
    db = random_colored_graph(n, max_degree=degree, colors=("B", "R", "G"), seed=seed)
    return db, parse(TRIPLE_QUERY)


def output_digest(answers) -> str:
    """Byte-level identity of an ordered answer sequence."""
    hasher = hashlib.sha256()
    for answer in answers:
        hasher.update(repr(answer).encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()


def run_harness(n: int, workers: int, require_speedup: bool) -> int:
    db, query = build_workload(n)
    print(f"workload: n={db.cardinality}, degree={db.degree}, query={TRIPLE_QUERY}")

    started = time.perf_counter()
    pipeline = Pipeline(db, query)
    prep_elapsed = time.perf_counter() - started
    works = branch_works(pipeline)
    print(
        f"preprocessing: {prep_elapsed:.2f}s; branches={pipeline.branch_count} "
        f"(non-empty {sum(1 for work in works if work)})"
    )

    # Serial baseline, steady state: arming excluded (it is preprocessing).
    prearm(pipeline)
    started = time.perf_counter()
    serial = list(parallel_enumerate(pipeline, mode="serial"))
    serial_elapsed = time.perf_counter() - started
    serial_digest = output_digest(serial)
    print(f"serial:  {serial_elapsed:.2f}s  ({len(serial)} answers)")

    failures = 0

    def check(label: str, answers, elapsed: float) -> None:
        nonlocal failures
        digest = output_digest(answers)
        identical = digest == serial_digest
        speedup = serial_elapsed / elapsed if elapsed > 0 else float("inf")
        verdict = "byte-identical" if identical else "DIVERGED"
        print(f"{label}: {elapsed:.2f}s  speedup {speedup:.2f}x  [{verdict}]")
        if not identical:
            failures += 1

    # Warmed process pool: the service regime.  Worker rebuild time is
    # reported separately — it is preprocessing, paid once per worker.
    with WorkerPool(workers) as pool:
        started = time.perf_counter()
        warm_pool(pool, pipeline, workers)
        warm_elapsed = time.perf_counter() - started
        print(f"process pool warm-up ({workers} workers): {warm_elapsed:.2f}s")
        started = time.perf_counter()
        processed = list(
            parallel_enumerate(pipeline, workers=workers, mode="process", pool=pool)
        )
        process_elapsed = time.perf_counter() - started
        check("process", processed, process_elapsed)

    process_speedup = (
        serial_elapsed / process_elapsed if process_elapsed > 0 else float("inf")
    )
    cores = os.cpu_count() or 1
    if failures:
        print(f"FAIL: {failures} mode(s) diverged from the serial output")
        return 1
    if require_speedup and process_speedup < 1.5:
        print(
            f"FAIL: process-pool speedup {process_speedup:.2f}x < 1.5x "
            f"(machine has {cores} cores; the target needs >= 4)"
        )
        return 1
    print(
        f"OK: all modes byte-identical; process-pool speedup "
        f"{process_speedup:.2f}x on {cores} core(s)"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload; only checks parallel/serial answer identity",
    )
    parser.add_argument("-n", type=int, default=None, help="structure size")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--require-speedup",
        action="store_true",
        help="fail unless the warmed process pool reaches 1.5x",
    )
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (48 if args.smoke else 140)
    return run_harness(n, args.workers, args.require_speedup and not args.smoke)


if __name__ == "__main__":
    sys.exit(main())
