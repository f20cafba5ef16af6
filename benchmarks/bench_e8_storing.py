"""E8 — the durability layer on top of the Storing-Theorem substrate.

Standalone harness (``python benchmarks/bench_e8_storing.py``): the
snapshot + WAL durability layer on top of the storing substrate —

* recovery time: ``Database.open`` over a snapshot plus a WAL tail must
  restore a state fingerprint- and answer-identical to the pre-crash
  database;
* warm reopen: after a checkpoint spilled the pipeline cache, the first
  cached-plan query on a reopened database must be a cache hit (no
  re-preprocessing) and **>= 2x faster** than the same first query on a
  cold (``load_warm=False``) reopen.

Both modes emit ``BENCH_storing.json``; ``--smoke`` is the CI gate.  The
trie's eps trade-off (lookup depth vs slots allocated) is E8 in
``run_experiments.py``.
"""

import random

import os
import sys

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:  # allow `python benchmarks/bench_e8_storing.py`
    sys.path.insert(0, REPO_SRC)

# -- standalone durability harness --------------------------------------

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from repro.fo.parser import parse  # noqa: E402
from repro.fo.semantics import naive_answers  # noqa: E402
from repro.session import Database  # noqa: E402
from repro.structures.random_gen import random_colored_graph  # noqa: E402

EXAMPLE = "B(x) & R(y) & ~E(x,y)"
QUANTIFIED = "B(x) & exists z. (R(z) & ~E(x,z))"
WARM_QUERIES = (EXAMPLE, QUANTIFIED)

DEFAULT_JSON = "BENCH_storing.json"


def build_workload(n: int, degree: int = 4, seed: int = 42):
    return random_colored_graph(n, max_degree=degree, seed=seed)


def update_stream(structure, count: int, seed: int = 7):
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


def oracle(structure, text):
    formula = parse(text)
    return sorted(naive_answers(formula, structure, order=sorted(formula.free)))


def measure_recovery(structure, commit_count: int, base_dir: str):
    """Build a store with a WAL tail; time Database.open over it.

    Returns (metrics dict, failure strings).
    """
    failures = []
    path = os.path.join(base_dir, "recovery")
    with Database.open(path, structure=structure.copy()) as db:
        for start in range(commit_count):
            db.apply(update_stream(db.structure, 6, seed=100 + start))
        want_fingerprint = db.structure_fingerprint
        want_version = db.version
        want_answers = oracle(db.structure, EXAMPLE)
    # The WAL rotates into wal.NNNNN.jsonl segments.
    wal_bytes = sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if name.startswith("wal.") and name.endswith(".jsonl")
    )

    started = time.perf_counter()
    with Database.open(path) as db:
        recovery_seconds = time.perf_counter() - started
        if db.structure_fingerprint != want_fingerprint:
            failures.append("recovered fingerprint diverges from pre-crash")
        if db.version != want_version:
            failures.append("recovered version diverges from pre-crash")
        if sorted(db.query(EXAMPLE).answers().all()) != want_answers:
            failures.append("recovered answers diverge from pre-crash")
    metrics = {
        "wal_commits_replayed": commit_count,
        "wal_bytes": wal_bytes,
        "recovery_seconds": recovery_seconds,
    }
    return metrics, failures


def first_query_seconds(path: str, load_warm: bool) -> float:
    """Open the store and time the first cached-plan query end to end."""
    with Database.open(path, load_warm=load_warm) as db:
        started = time.perf_counter()
        query = db.query(EXAMPLE)
        query.count()
        elapsed = time.perf_counter() - started
        del query
    return elapsed


def measure_warm_reopen(structure, base_dir: str, rounds: int):
    """Warm-spill checkpoint, then warm vs cold first-query latency."""
    failures = []
    path = os.path.join(base_dir, "warm")
    with Database.open(path, structure=structure.copy()) as db:
        for text in WARM_QUERIES:
            db.query(text).count()
        result = db.checkpoint()
        want_count = len(oracle(db.structure, EXAMPLE))
    if result.warm_entries < len(WARM_QUERIES):
        failures.append(
            f"checkpoint spilled {result.warm_entries} warm plans, "
            f"expected {len(WARM_QUERIES)}"
        )

    # Deterministic gate first: the warm reopen's first query must be a
    # cache hit that answers correctly without any preprocessing miss.
    with Database.open(path) as db:
        if db.query(EXAMPLE).count() != want_count:
            failures.append("warm reopen answers diverge")
        stats = db.stats()
        if stats["misses"] != 0 or stats["hits"] < 1:
            failures.append(
                "warm reopen's first query missed the pipeline cache "
                f"(hits={stats['hits']}, misses={stats['misses']})"
            )

    cold = [first_query_seconds(path, load_warm=False) for _ in range(rounds)]
    warm = [first_query_seconds(path, load_warm=True) for _ in range(rounds)]
    cold_median = statistics.median(cold)
    warm_median = statistics.median(warm)
    speedup = cold_median / warm_median if warm_median > 0 else float("inf")
    if speedup < 2.0:
        failures.append(
            f"warm reopen first query only {speedup:.2f}x faster than cold "
            "(gate: >= 2x)"
        )
    metrics = {
        "warm_plans_spilled": result.warm_entries,
        "cold_first_query_seconds": cold_median,
        "warm_first_query_seconds": warm_median,
        "warm_over_cold_speedup": speedup,
        "rounds": rounds,
    }
    return metrics, failures


def run_harness(n: int, commit_count: int, rounds: int, smoke: bool,
                json_path: str) -> int:
    structure = build_workload(n)
    print(
        f"workload: n={structure.cardinality}, degree={structure.degree}; "
        f"plans={list(WARM_QUERIES)}"
    )
    base_dir = tempfile.mkdtemp(prefix="bench-e8-store-")
    try:
        recovery, failures = measure_recovery(structure, commit_count, base_dir)
        print(
            f"recovery: {recovery['wal_commits_replayed']} WAL commits "
            f"({recovery['wal_bytes']} bytes) replayed in "
            f"{recovery['recovery_seconds']:.4f}s"
        )
        warm, warm_failures = measure_warm_reopen(structure, base_dir, rounds)
        failures.extend(warm_failures)
        print(
            f"first query after reopen: cold "
            f"{warm['cold_first_query_seconds']:.4f}s, warm "
            f"{warm['warm_first_query_seconds']:.4f}s "
            f"({warm['warm_over_cold_speedup']:.1f}x, gate >= 2x)"
        )
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)

    report = {
        "n": structure.cardinality,
        "smoke": smoke,
        "recovery": recovery,
        "warm_reopen": warm,
        "failures": failures,
    }
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"report written to {json_path}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "ok: WAL recovery restores the pre-crash state and a warm reopen "
        "serves its first cached-plan query >= 2x faster than cold"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="durability harness: recovery time + warm reopen"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload; enforce the recovery and >=2x warm gates",
    )
    parser.add_argument("-n", type=int, default=None, help="structure size")
    parser.add_argument("--json", default=DEFAULT_JSON, help="report path")
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (300 if args.smoke else 3000)
    commit_count = 4 if args.smoke else 16
    rounds = 3 if args.smoke else 5
    return run_harness(n, commit_count, rounds, args.smoke, args.json)


if __name__ == "__main__":
    sys.exit(main())
