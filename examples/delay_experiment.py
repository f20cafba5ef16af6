"""Measure the claim: constant delay vs the naive baseline's false hits.

This is Example 2.3 quantified.  The naive list-join algorithm iterates
blue x red candidate pairs and filters; between two *emitted* answers it
may burn through arbitrarily many false hits.  The paper's skip-based
enumerator jumps over blocked candidates in O(1).

The script runs both on the *positive* query ``B(x) & R(y) & E(x,y)``
(answers are scarce: Theta(n d) out of Theta(n^2) candidates) and prints
the per-answer attempt/step distributions side by side.

Run:  python examples/delay_experiment.py [n]
"""

import sys
import time

from repro import Database, parse
from repro.core.baselines import ListJoinBaseline
from repro.core.enumeration import enumerate_answers
from repro.storage.cost_model import CostMeter
from repro.structures import random_colored_graph


def run_pipeline(db, query):
    with Database(db) as session:
        pipeline = session.query(query).pipeline
    meter = CostMeter()
    started = time.perf_counter()
    answers = 0
    # Metered serial enumeration: the primitive the session's serial
    # backend drives, instrumented with RAM-step marks.
    for _ in enumerate_answers(pipeline, meter=meter):
        meter.mark()
        answers += 1
    elapsed = time.perf_counter() - started
    deltas = meter.deltas() or [0]
    return {
        "name": "skip-based enumeration (Thm 2.7)",
        "answers": answers,
        "elapsed": elapsed,
        "max_delay_steps": max(deltas),
        "mean_delay_steps": sum(deltas) / len(deltas),
    }


def run_baseline(db, query):
    baseline = ListJoinBaseline(query, db)
    meter = CostMeter()
    started = time.perf_counter()
    answers = 0
    attempts_at_last_answer = 0
    worst_gap = 0
    for _ in baseline.enumerate(meter=meter):
        attempts = meter.by_label["baseline.attempt"]
        worst_gap = max(worst_gap, attempts - attempts_at_last_answer)
        attempts_at_last_answer = attempts
        answers += 1
    elapsed = time.perf_counter() - started
    total_attempts = meter.by_label.get("baseline.attempt", 0)
    return {
        "name": "list-join baseline (Example 2.3)",
        "answers": answers,
        "elapsed": elapsed,
        "max_delay_steps": worst_gap,
        "mean_delay_steps": total_attempts / max(1, answers),
    }


def report(result) -> None:
    print(f"  {result['name']}")
    print(f"    answers emitted : {result['answers']:,}")
    print(f"    wall time       : {result['elapsed']:.3f}s")
    print(f"    worst gap       : {result['max_delay_steps']:,} steps/attempts")
    print(f"    mean gap        : {result['mean_delay_steps']:.1f}")


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    db = random_colored_graph(n, max_degree=4, seed=31)
    query = parse("B(x) & R(y) & E(x,y)")
    print(
        f"n = {db.cardinality:,}, degree = {db.degree}, "
        f"query = {query}\n"
    )
    ours = run_pipeline(db, query)
    naive = run_baseline(db, query)
    report(ours)
    print()
    report(naive)
    print(
        "\nThe baseline's worst gap grows with n (false hits); the skip"
        "\nenumerator's per-answer step count is a small constant."
    )


if __name__ == "__main__":
    main()
