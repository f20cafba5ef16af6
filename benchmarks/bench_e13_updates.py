"""E13 — transactional batch updates vs one-at-a-time maintenance.

Claim: ``db.apply(changeset)`` amortizes the update bookkeeping — one
structure-lock acquisition, one rolling-fingerprint roll, ONE
:class:`PipelineMaintainer` pass per cached plan, one cache re-key — over
the whole batch, so update throughput (facts/sec) grows with the batch
size while N single ``insert_fact``/``remove_fact`` calls pay the full
pass N times.

Two entry points:

* a standalone harness (``python benchmarks/bench_e13_updates.py``) that
  measures facts/sec for batch-of-N vs N singles across batch sizes and
  **fails (exit 1) on any correctness divergence**;
* ``--smoke`` runs a tiny workload and enforces the equality contracts
  only (the same gates run in tier-1 as
  ``tests/session/test_update_gates.py``):

  1. a batch commit runs **exactly one** maintenance pass per cached
     plan (``updates_applied`` delta == 1) where N singles run N;
  2. ``db.apply`` is answer/count/fingerprint-identical to replaying the
     same ops one-by-one on a fresh ``Database``, and both match the
     naive oracle;
  3. an ``Answers`` handle opened before the commit still streams its
     pinned version byte-identically (snapshot isolation).

Both modes emit ``BENCH_updates.json`` (facts/sec per batch size, the
speedup trajectory) so future PRs can track it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:  # allow `python benchmarks/bench_e13_updates.py`
    sys.path.insert(0, REPO_SRC)

from repro.fo.parser import parse  # noqa: E402
from repro.fo.semantics import naive_answers  # noqa: E402
from repro.session import Database  # noqa: E402
from repro.structures.random_gen import random_colored_graph  # noqa: E402

EXAMPLE = "B(x) & R(y) & ~E(x,y)"
QUANTIFIED = "B(x) & exists z. (R(z) & ~E(x,z))"
WARM_QUERIES = (EXAMPLE, QUANTIFIED)

DEFAULT_JSON = "BENCH_updates.json"


def build_workload(n: int, degree: int = 4, seed: int = 42):
    return random_colored_graph(n, max_degree=degree, seed=seed)


def update_stream(structure, count: int, seed: int = 7):
    """A deterministic stream of (insert, relation, elements) edge/color
    flips — balanced inserts and removes over existing and fresh facts."""
    rng = random.Random(seed)
    domain = list(structure.domain)
    existing_edges = sorted(structure.facts("E"))
    ops = []
    for index in range(count):
        roll = rng.random()
        if roll < 0.35 and existing_edges:
            ops.append((False, "E", existing_edges[index % len(existing_edges)]))
        elif roll < 0.7:
            ops.append((True, "E", (rng.choice(domain), rng.choice(domain))))
        else:
            relation = rng.choice(["B", "R"])
            element = rng.choice(domain)
            insert = rng.random() < 0.5
            ops.append((insert, relation, (element,)))
    return ops


def warm(db):
    """Cache (and attach maintainers to) the benchmark plans."""
    for text in WARM_QUERIES:
        db.query(text).count()
    return list(db._maintainers.values())


def run_singles(structure, ops):
    """N legacy one-fact commits; returns (elapsed, db, passes)."""
    with_db = Database(structure.copy())
    maintainers = warm(with_db)
    before = [m.updates_applied for m in maintainers]
    started = time.perf_counter()
    for insert, relation, elements in ops:
        if insert:
            with_db.insert_fact(relation, *elements)
        else:
            with_db.remove_fact(relation, *elements)
    elapsed = time.perf_counter() - started
    passes = [m.updates_applied - b for m, b in zip(maintainers, before)]
    return elapsed, with_db, passes


def run_batch(structure, ops):
    """One transactional commit; returns (elapsed, db, passes, result)."""
    batch_db = Database(structure.copy())
    maintainers = warm(batch_db)
    before = [m.updates_applied for m in maintainers]
    started = time.perf_counter()
    result = batch_db.apply(ops)
    elapsed = time.perf_counter() - started
    passes = [m.updates_applied - b for m, b in zip(maintainers, before)]
    return elapsed, batch_db, passes, result


def count_replay_effective(structure, ops) -> int:
    """How many ops actually change state when replayed one-by-one."""
    sim = structure.copy()
    count = 0
    for insert, relation, elements in ops:
        present = sim.has_fact(relation, *elements)
        if insert and not present:
            sim.add_fact(relation, *elements)
            count += 1
        elif not insert and present:
            sim.remove_fact(relation, *elements)
            count += 1
    return count


def state_of(db):
    per_query = []
    for text in WARM_QUERIES:
        query = db.query(text)
        per_query.append((sorted(query.answers().all()), query.count()))
    return db.structure_fingerprint, per_query


def check_equivalence(batch_db, singles_db) -> list:
    """The replay-identity gate; returns a list of failure strings."""
    failures = []
    batch_fp, batch_state = state_of(batch_db)
    singles_fp, singles_state = state_of(singles_db)
    if batch_fp != singles_fp:
        failures.append("fingerprint diverges between batch and replay")
    for text, batch_part, singles_part in zip(
        WARM_QUERIES, batch_state, singles_state
    ):
        if batch_part != singles_part:
            failures.append(f"[{text}] answers/count diverge from replay")
        formula = parse(text)
        want = sorted(
            naive_answers(
                formula, batch_db.structure, order=sorted(formula.free)
            )
        )
        if batch_part[0] != want or batch_part[1] != len(want):
            failures.append(f"[{text}] batch result diverges from the oracle")
    return failures


def check_snapshot_isolation(structure, ops) -> list:
    """A pre-commit handle must stream its pinned version byte-identically."""
    failures = []
    db = Database(structure.copy())
    warm(db)
    expected = db.query(EXAMPLE).answers().all()
    handle = db.query(EXAMPLE).answers()
    handle.page(0, size=2)  # mid-stream
    result = db.apply(ops)
    try:
        streamed = handle.all()
    except Exception as error:  # StaleResultError would be the regression
        failures.append(f"pinned handle raised {type(error).__name__}: {error}")
        streamed = None
    if streamed is not None and streamed != expected:
        failures.append("pinned handle diverges from pre-commit enumeration")
    if result.changed and not result.forked:
        failures.append("a pinned commit should have forked the head")
    post = sorted(db.query(EXAMPLE).answers().all())
    formula = parse(EXAMPLE)
    want = sorted(
        naive_answers(formula, db.structure, order=sorted(formula.free))
    )
    if post != want:
        failures.append("post-commit head diverges from the oracle")
    handle.cancel()
    db.close()
    return failures


def run_harness(n: int, batch_sizes, smoke: bool, json_path: str) -> int:
    structure = build_workload(n)
    print(
        f"workload: n={structure.cardinality}, degree={structure.degree}; "
        f"plans={list(WARM_QUERIES)}"
    )
    report = {"n": structure.cardinality, "smoke": smoke, "batches": []}
    failures = []

    for batch_size in batch_sizes:
        ops = update_stream(structure, batch_size)
        singles_elapsed, singles_db, singles_passes = run_singles(
            structure, ops
        )
        batch_elapsed, batch_db, batch_passes, result = run_batch(
            structure, ops
        )

        # Gate 1: exactly one maintenance pass per cached plan per commit.
        if result.changed and any(p != 1 for p in batch_passes):
            failures.append(
                f"batch-of-{batch_size}: maintenance passes {batch_passes} "
                "(expected exactly 1 per plan)"
            )
        # Replaying one-by-one pays one pass per *replay-effective* op
        # (cancelling pairs each count — the batch nets them out).
        replay_effective = count_replay_effective(structure, ops)
        if any(p != replay_effective for p in singles_passes):
            failures.append(
                f"batch-of-{batch_size}: singles ran {singles_passes} "
                f"passes per plan, expected {replay_effective}"
            )

        # Gate 2: batch == replay == oracle.
        failures.extend(check_equivalence(batch_db, singles_db))

        singles_rate = (
            batch_size / singles_elapsed if singles_elapsed > 0 else 0.0
        )
        batch_rate = batch_size / batch_elapsed if batch_elapsed > 0 else 0.0
        speedup = (
            singles_elapsed / batch_elapsed if batch_elapsed > 0 else 0.0
        )
        print(
            f"batch of {batch_size:>4}: singles {singles_elapsed:.4f}s "
            f"({singles_rate:,.0f} facts/s)  batch {batch_elapsed:.4f}s "
            f"({batch_rate:,.0f} facts/s)  speedup {speedup:.2f}x  "
            f"effective {result.ops_effective}  passes/plan {batch_passes}"
        )
        report["batches"].append(
            {
                "batch_size": batch_size,
                "ops_effective": result.ops_effective,
                "singles_seconds": singles_elapsed,
                "batch_seconds": batch_elapsed,
                "singles_facts_per_second": singles_rate,
                "batch_facts_per_second": batch_rate,
                "speedup": speedup,
                "maintenance_passes_per_plan": batch_passes,
            }
        )
        singles_db.close()
        batch_db.close()

    # Gate 3: snapshot isolation across a commit.
    failures.extend(
        check_snapshot_isolation(structure, update_stream(structure, 8))
    )

    report["failures"] = failures
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"report written to {json_path}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "ok: batch commits run one maintenance pass per plan, match "
        "fact-by-fact replay and the oracle, and pinned handles stream "
        "byte-identically"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload; enforce the equality gates only",
    )
    parser.add_argument("-n", type=int, default=None, help="structure size")
    parser.add_argument("--json", default=DEFAULT_JSON, help="report path")
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (64 if args.smoke else 2000)
    batch_sizes = (4, 16) if args.smoke else (10, 50, 200)
    return run_harness(n, batch_sizes, args.smoke, args.json)


if __name__ == "__main__":
    sys.exit(main())
