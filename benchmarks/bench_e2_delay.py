"""E2 — enumeration delay is constant (Theorem 2.7).

Claim: after preprocessing, the time (and RAM-step count) between
consecutive outputs does not depend on ``n``.

The standalone harness (``python benchmarks/bench_e2_delay.py``) gates
the qlang **top-k** fusion: on a >= 10^5-answer workload a compiled
``SELECT ... LIMIT 10`` must cost < 5% of full enumeration
(post-preprocessing) — O(k) delay, independent of the answer total.
CI runs ``--smoke``; both modes emit ``BENCH_delay.json``.  The per-answer
delay sweep over ``n`` is E2 in ``run_experiments.py``.
"""

import argparse
import json
import os
import sys
import time

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:  # allow `python benchmarks/bench_e2_delay.py`
    sys.path.insert(0, REPO_SRC)

from repro.session import Database  # noqa: E402
from repro.structures.random_gen import random_colored_graph  # noqa: E402

DEFAULT_JSON = "BENCH_delay.json"
PAIR_QUERY = "B(x) & R(y) & ~E(x,y)"
TOPK_STATEMENT = "SELECT x, y WHERE B(x) & R(y) & ~E(x,y) LIMIT {k}"


def run_topk_harness(
    n: int, k: int, min_answers: int, max_ratio: float, json_path: str
) -> int:
    """Gate: a compiled LIMIT-k touches O(k) work, not O(answers).

    Both timings exclude preprocessing (the paper's split): the full
    enumeration is timed over a prepared Query, and the top-k timing
    starts after ``db.query("SELECT ...")`` returns (parse + compile +
    pipeline build are preprocessing too).
    """
    db = Database(random_colored_graph(n, max_degree=4, seed=7))
    try:
        full_query = db.query(PAIR_QUERY)
        started = time.perf_counter()
        total = sum(1 for _ in full_query.answers())
        full_elapsed = time.perf_counter() - started
        print(
            f"workload: n={n}, degree=4; full enumeration "
            f"{total} answers in {full_elapsed:.3f}s"
        )
        if total < min_answers:
            print(f"FAIL: workload too small ({total} < {min_answers})")
            return 1

        compiled = db.query(TOPK_STATEMENT.format(k=k))
        started = time.perf_counter()
        rows = compiled.all()
        topk_elapsed = time.perf_counter() - started
        ratio = topk_elapsed / full_elapsed if full_elapsed > 0 else 0.0
        print(
            f"top-{k}: {len(rows)} rows in {topk_elapsed * 1000:.2f}ms "
            f"({ratio:.2%} of full enumeration)"
        )

        report = {
            "n": n,
            "k": k,
            "answers": total,
            "full_seconds": full_elapsed,
            "topk_seconds": topk_elapsed,
            "ratio": ratio,
            "max_ratio": max_ratio,
            "statement": TOPK_STATEMENT.format(k=k),
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {json_path}")

        expected = full_query.answers(limit=k).all()
        if rows != expected:
            print("FAIL: top-k rows diverge from the enumeration prefix")
            return 1
        if len(rows) != min(k, total):
            print(f"FAIL: expected {min(k, total)} rows, got {len(rows)}")
            return 1
        if ratio >= max_ratio:
            print(
                f"FAIL: top-{k} cost {ratio:.2%} of full enumeration "
                f"(gate: < {max_ratio:.0%}) — LIMIT did not early-stop"
            )
            return 1
        print(
            f"OK: top-{k} latency is {ratio:.2%} of the full run "
            f"({total} answers) — independent of the answer total"
        )
        return 0
    finally:
        db.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: >= 1e5-answer workload, top-10 must cost < 5% "
        "of full enumeration",
    )
    parser.add_argument("-n", type=int, default=None, help="structure size")
    parser.add_argument("-k", type=int, default=10, help="LIMIT k")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=0.05,
        help="fail if top-k / full-enumeration exceeds this",
    )
    parser.add_argument("--json", default=DEFAULT_JSON, dest="json_path")
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (800 if args.smoke else 2000)
    return run_topk_harness(
        n, args.k, 100_000, args.max_ratio, args.json_path
    )


if __name__ == "__main__":
    sys.exit(main())
