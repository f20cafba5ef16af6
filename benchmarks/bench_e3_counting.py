"""E3 — counting is pseudo-linear (Theorem 2.5), and parallelizes.

Claim: ``|q(A)|`` is computed in time ``~ n^{1+eps}`` even when the answer
set itself has size ``Theta(n^2)`` — counting never materializes answers.
The per-branch counts are independent integers (the theorem sums them),
so the engine's ``parallel_count`` must return the *exact* serial value
in every execution mode.

The standalone harness (``python benchmarks/bench_e3_counting.py``)
times serial vs. process counting over one long-lived
:class:`~repro.engine.pool.WorkerPool` and **fails (exit 1) on any
parallel/serial count divergence** — CI runs it with ``--smoke``.  The
counting-vs-n sweep is E3 in ``run_experiments.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:  # allow `python benchmarks/bench_e3_counting.py`
    sys.path.insert(0, REPO_SRC)

from repro.core.counting import count_answers  # noqa: E402
from repro.core.pipeline import Pipeline  # noqa: E402
from repro.engine import WorkerPool, parallel_count  # noqa: E402

from workloads import EXAMPLE_23, colored_graph, query  # noqa: E402

DEGREE = 4


# ----------------------------------------------------------------------
# Standalone harness (the CI equality gate)
# ----------------------------------------------------------------------


def run_harness(n: int, workers: int) -> int:
    db = colored_graph(n, DEGREE)
    print(f"workload: n={db.cardinality}, degree={db.degree}, query={EXAMPLE_23}")

    started = time.perf_counter()
    pipeline = Pipeline(db, query(EXAMPLE_23))
    print(f"preprocessing: {time.perf_counter() - started:.2f}s; "
          f"branches={pipeline.branch_count}")

    started = time.perf_counter()
    serial = count_answers(pipeline)
    serial_elapsed = time.perf_counter() - started
    print(f"serial:  {serial_elapsed:.3f}s  (count {serial:,})")

    failures = 0
    with WorkerPool(workers) as pool:
        started = time.perf_counter()
        got = parallel_count(pipeline, workers=workers, mode="process", pool=pool)
        elapsed = time.perf_counter() - started
        speedup = serial_elapsed / elapsed if elapsed > 0 else float("inf")
        verdict = "exact" if got == serial else f"DIVERGED (got {got:,})"
        print(f"process: {elapsed:.3f}s  speedup {speedup:.2f}x  [{verdict}]")
        if got != serial:
            failures += 1
    if failures:
        print(f"FAIL: {failures} mode(s) diverged from the serial count")
        return 1
    print(f"OK: all modes returned the exact serial count {serial:,}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload; checks parallel/serial count equality only",
    )
    parser.add_argument("-n", type=int, default=None, help="structure size")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (96 if args.smoke else 2048)
    return run_harness(n, args.workers)


if __name__ == "__main__":
    sys.exit(main())
