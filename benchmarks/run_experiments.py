"""Regenerate every experiment table for EXPERIMENTS.md.

Standalone:  python benchmarks/run_experiments.py [--fast]

Prints one markdown table per experiment E1..E13 together with the
scaling exponents / flatness checks that constitute the paper's claims.
The ``bench_e*.py`` scripts next to it are the ``--smoke`` gates.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:  # allow `python benchmarks/run_experiments.py`
    sys.path.insert(0, REPO_SRC)

from repro.core.baselines import ListJoinBaseline
from repro.core.counting import count_answers
from repro.core.enumeration import BranchEnumerator, arm_enumerators, enumerate_answers
from repro.core.model_checking import model_check
from repro.core.pipeline import Pipeline
from repro.core.testing import test_answer
from repro.storage.cost_model import CostMeter
from repro.storage.trie import StoringTrie

from workloads import (
    EXAMPLE_23,
    EXAMPLE_23_POSITIVE,
    QUANTIFIED_QUERY,
    SENTENCE_FAR_PAIR,
    SENTENCE_GUARDED,
    TRIPLE_QUERY,
    colored_graph,
    consume,
    fitted_exponent,
    query,
    three_colored_graph,
)


def timed(fn, repeats=1):
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
        gc.enable()
    return best, result


def table(headers, rows):
    print("| " + " | ".join(headers) + " |")
    print("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        print("| " + " | ".join(str(cell) for cell in row) + " |")
    print()


def e1_preprocessing(sizes):
    print("## E1 — preprocessing scales pseudo-linearly\n")
    rows, times = [], []
    for n in sizes:
        db = colored_graph(n, 4)
        elapsed, pipeline = timed(lambda db=db: Pipeline(db, query(EXAMPLE_23)))
        rows.append((n, f"{elapsed:.3f}", pipeline.stats()["graph_nodes"]))
        times.append(elapsed)
    table(["n", "preprocessing (s)", "colored-graph nodes"], rows)
    exponent = fitted_exponent(sizes, times)
    print(f"fitted exponent: **{exponent:.2f}** (claim: ~1, certainly < 2)\n")


def e2_delay(sizes):
    """Full enumerations: the steady-state regime.  (A fixed answer
    budget at large n would under-amortize the one-time reach-set
    memoization and mis-measure the delay.)"""
    print("## E2 — enumeration delay is constant\n")
    rows = []
    for n in sizes:
        db = colored_graph(n, 4)
        pipeline = Pipeline(db, query(EXAMPLE_23))
        arm_enumerators(pipeline)  # arming is preprocessing, not delay
        meter = CostMeter()
        gc.disable()
        started = time.perf_counter()
        count = 0
        for _ in enumerate_answers(pipeline):
            count += 1
        elapsed = time.perf_counter() - started
        gc.enable()
        # Step deltas over a 20k-answer prefix (exact, n-independent).
        for _ in enumerate_answers(pipeline, meter=meter):
            meter.mark()
            if len(meter.deltas()) >= 20_000:
                break
        deltas = meter.deltas()
        rows.append(
            (
                n,
                f"{count:,}",
                f"{elapsed / max(1, count) * 1e6:.2f}",
                max(deltas),
                f"{sum(deltas) / len(deltas):.1f}",
            )
        )
    table(
        ["n", "answers (full run)", "time/answer (us)", "max step delta", "mean step delta"],
        rows,
    )
    print("claim: time/answer and step deltas flat in n "
          "(the RAM-model content of Thm 2.7)\n")


def e3_counting(sizes):
    print("## E3 — counting is pseudo-linear while |q(A)| is quadratic\n")
    rows, times, counts = [], [], []
    for n in sizes:
        db = colored_graph(n, 4)
        pipeline = Pipeline(db, query(EXAMPLE_23))
        elapsed, count = timed(lambda p=pipeline: count_answers(p), repeats=2)
        rows.append((n, f"{elapsed:.3f}", f"{count:,}"))
        times.append(elapsed)
        counts.append(count)
    table(["n", "count time (s)", "|q(A)|"], rows)
    print(
        f"fitted exponents — time: **{fitted_exponent(sizes, times):.2f}** "
        f"(claim ~1), answers: **{fitted_exponent(sizes, counts):.2f}** "
        "(~2: the result set itself is quadratic)\n"
    )


def e4_testing(sizes, probes=400):
    print("## E4 — membership testing is constant time\n")
    import random

    rows = []
    for n in sizes:
        db = colored_graph(n, 4)
        pipeline = Pipeline(db, query(EXAMPLE_23))
        rng = random.Random(5)
        domain = list(db.domain)
        candidates = [
            (rng.choice(domain), rng.choice(domain)) for _ in range(probes)
        ]
        elapsed, hits = timed(
            lambda: sum(1 for c in candidates if test_answer(pipeline, c)),
            repeats=3,
        )
        rows.append((n, f"{elapsed / probes * 1e6:.2f}", f"{hits / probes:.2f}"))
    table(["n", "time/test (us)", "positive fraction"], rows)
    print("claim: per-test time flat in n\n")


def e5_vs_naive(sizes):
    print("## E5 — skip enumeration vs the list-join baseline (positive query)\n")
    rows = []
    for n in sizes:
        db = colored_graph(n, 4)
        pipeline = Pipeline(db, query(EXAMPLE_23_POSITIVE))
        ours, answers = timed(
            lambda p=pipeline: sum(1 for _ in enumerate_answers(p))
        )
        baseline = ListJoinBaseline(query(EXAMPLE_23_POSITIVE), db)
        theirs, _ = timed(lambda b=baseline: sum(1 for _ in b.enumerate()))
        rows.append(
            (n, f"{answers:,}", f"{ours:.3f}", f"{theirs:.3f}", f"{theirs / max(ours, 1e-9):.1f}x")
        )
    table(["n", "answers", "ours (s)", "list-join (s)", "speedup"], rows)
    print("claim: baseline grows ~n^2 (all candidate pairs), ours ~answers\n")


def e6_degree_sweep(n):
    print("## E6 — degree sweep at fixed n\n")
    import math

    rows = []
    schedule = {
        "2": 2,
        "4": 4,
        "8": 8,
        "log n": max(2, int(math.log2(n))),
        "n^0.4": max(2, int(n ** 0.4)),
    }
    for label, degree in schedule.items():
        db = colored_graph(n, degree)
        prep, pipeline = timed(lambda db=db: Pipeline(db, query(EXAMPLE_23)))
        cnt_time, count = timed(lambda p=pipeline: count_answers(p))
        rows.append(
            (label, db.degree, f"{prep:.3f}", f"{cnt_time:.3f}", f"{count:,}")
        )
    table(
        ["degree schedule", "actual d", "preprocessing (s)", "count (s)", "|q(A)|"],
        rows,
    )
    print("claim: cost grows with d (the d^h(|q|) factors); still far from n^2\n")


def e7_skip_ablation(n):
    print("## E7 — skip ablation: lazy memo vs strict precompute\n")
    db = colored_graph(n, 3)
    rows = []
    for mode in ("lazy", "precompute"):
        pipeline = Pipeline(db, query(EXAMPLE_23))

        def arm():
            cells = 0
            for branch in pipeline.branches:
                enumerator = BranchEnumerator(pipeline, branch, skip_mode=mode)
                cells += enumerator.skip_cells
            return cells

        arm_time, cells = timed(arm)
        enum_time, produced = timed(
            lambda p=pipeline, m=mode: consume(
                enumerate_answers(p, skip_mode=m), 20_000
            )
        )
        rows.append((mode, f"{arm_time:.3f}", cells, f"{enum_time:.3f}", produced))
    table(
        ["mode", "arming (s)", "skip cells precomputed", "enum 20k (s)", "answers"],
        rows,
    )
    print(
        "claim: strict mode pays the paper's d-hat^(3k^2)-flavored bill up "
        "front; outputs are identical\n"
    )


def e8_storing(n=1 << 14, keys=5_000):
    print("## E8 — Storing-Theorem trie: eps trade-off\n")
    import random

    rng = random.Random(7)
    key_list = [(rng.randrange(n), rng.randrange(n)) for _ in range(keys)]
    rows = []
    for eps in (0.25, 0.5, 1.0):
        def build():
            trie = StoringTrie(n=n, k=2, eps=eps)
            for index, key in enumerate(key_list):
                trie.store(key, index)
            return trie

        build_time, trie = timed(build)
        lookup_time, _ = timed(
            lambda t=trie: sum(1 for key in key_list if t.lookup(key) is not None),
            repeats=3,
        )
        rows.append(
            (
                eps,
                trie.depth,
                f"{build_time * 1e3:.1f}",
                f"{lookup_time / keys * 1e6:.2f}",
                f"{trie.slots_allocated:,}",
            )
        )
    table(
        ["eps", "depth", "build (ms)", "lookup (us)", "slots allocated"],
        rows,
    )
    print("claim: smaller eps -> deeper trie, slower lookup, fewer slots; "
          "lookup cost independent of stored-key count\n")


def e10_dynamic(sizes, updates=50):
    print("## E10 — dynamic updates: local recomputation vs full rebuild\n")
    import random

    from repro.session import Database

    rows = []
    for n in sizes:
        db = colored_graph(n, 4).copy()
        session = Database(db)
        session.query(EXAMPLE_23).count()  # one maintained plan
        rng = random.Random(3)
        domain = list(db.domain)
        stream = [
            (rng.choice(domain), rng.choice(domain)) for _ in range(updates)
        ]

        def apply_all():
            for a, b in stream:
                if db.has_fact("E", a, b):
                    session.remove_fact("E", a, b)
                else:
                    session.insert_fact("E", a, b)

        elapsed, _ = timed(apply_all)
        session.close()
        rebuild_time, _ = timed(lambda: Pipeline(db, query(EXAMPLE_23)))
        rows.append(
            (
                n,
                f"{elapsed / updates * 1e3:.2f}",
                f"{rebuild_time * 1e3:.1f}",
                f"{rebuild_time / (elapsed / updates):.0f}x",
            )
        )
    table(
        ["n", "time/update (ms)", "full rebuild (ms)", "rebuild/update ratio"],
        rows,
    )
    print("claim: update cost flat-ish in n; the ratio to a full rebuild "
          "grows with n ([Vig20]'s question, answered locally)\n")


def e9_model_checking(sizes):
    print("## E9 — model checking sentences pseudo-linearly\n")
    rows, times = [], []
    for n in sizes:
        db = colored_graph(n, 3)
        far, verdict_far = timed(
            lambda db=db: model_check(query(SENTENCE_FAR_PAIR), db)
        )
        guarded, verdict_guarded = timed(
            lambda db=db: model_check(query(SENTENCE_GUARDED), db)
        )
        rows.append(
            (n, f"{far:.3f}", verdict_far, f"{guarded:.3f}", verdict_guarded)
        )
        times.append(far)
    table(
        ["n", "far-pair sentence (s)", "verdict", "guarded sentence (s)", "verdict"],
        rows,
    )
    print(f"fitted exponent (far-pair): **{fitted_exponent(sizes, times):.2f}** "
          "(claim ~1)\n")


def e11_parallel(sizes, workers=4) -> None:
    """E11: branch-parallel enumeration with a deterministic merge."""
    from repro.core.enumeration import arm_enumerators
    from repro.engine import WorkerPool, parallel_enumerate, warm_pool

    print(f"## E11 — parallel batch engine vs serial ({workers} workers)\n")
    rows = []
    for n in sizes:
        db = three_colored_graph(n, 4)
        pipeline = Pipeline(db, query(TRIPLE_QUERY))
        arm_enumerators(pipeline)
        serial_t, serial = timed(
            lambda: list(parallel_enumerate(pipeline, mode="serial"))
        )
        with WorkerPool(workers) as pool:
            warm_pool(pool, pipeline, workers)
            process_t, processed = timed(
                lambda pool=pool: list(
                    parallel_enumerate(
                        pipeline, workers=workers, mode="process", pool=pool
                    )
                )
            )
        identical = serial == processed
        rows.append(
            (
                n,
                len(serial),
                f"{serial_t:.3f}",
                f"{process_t:.3f}",
                identical,
            )
        )
    table(
        ["n", "answers", "serial (s)", "process warm (s)", "identical"],
        rows,
    )
    print("(speedup is hardware-bound — ~1x on one core, scaling with "
          "cores; the output must be byte-identical in every mode)\n")


def e12_transport(sizes, workers=4) -> None:
    """E12: columnar answer transport vs pickling the same chunks."""
    from repro.core.enumeration import arm_enumerators
    from repro.engine import (
        WorkerPool, parallel_enumerate, run_branches, warm_pool,
    )
    from repro.engine.transport import TransferStats

    import pickle

    print(f"## E12 — columnar answer transport ({workers} workers)\n")
    rows = []
    for n in sizes:
        db = three_colored_graph(n, 4)
        pipeline = Pipeline(db, query(TRIPLE_QUERY))
        arm_enumerators(pipeline)
        with WorkerPool(workers) as pool:
            warm_pool(pool, pipeline, workers)
            stats = TransferStats()
            columnar_t, chunks = timed(
                lambda: list(
                    run_branches(
                        pipeline, workers=workers, mode="process", pool=pool,
                        transfer_stats=stats,
                    )
                )
            )
        columnar = [answer for chunk in chunks for answer in chunk]
        serial = list(parallel_enumerate(pipeline, mode="serial"))
        pickle_bytes = sum(len(pickle.dumps(chunk)) for chunk in chunks)
        ratio = pickle_bytes / stats.bytes_received if stats.bytes_received else 0.0
        rows.append(
            (
                n,
                len(columnar),
                stats.bytes_received,
                pickle_bytes,
                f"{ratio:.1f}x",
                f"{columnar_t:.3f}",
                columnar == serial,
            )
        )
    table(
        ["n", "answers", "columnar (B)", "pickled chunks (B)", "reduction",
         "columnar (s)", "identical"],
        rows,
    )
    print("(the codec interns elements to dense ids, packs per-column "
          "fixed-width buffers, and compresses chunks; identical output "
          "is the hard gate)\n")


def e13_updates(sizes) -> None:
    """E13: transactional batch commits vs one-at-a-time maintenance."""
    from bench_e13_updates import (
        run_batch,
        run_singles,
        update_stream,
    )
    from repro.structures.random_gen import random_colored_graph

    print("## E13 — transactional batch updates (facts/sec)\n")
    rows = []
    for n in sizes:
        db = random_colored_graph(n, max_degree=4, seed=42)
        ops = update_stream(db, 100)
        singles_t, singles_db, _ = run_singles(db, ops)
        batch_t, batch_db, passes, result = run_batch(db, ops)
        identical = (
            batch_db.structure_fingerprint == singles_db.structure_fingerprint
        )
        rows.append(
            (
                n,
                result.ops_effective,
                f"{len(ops) / singles_t:.0f}",
                f"{len(ops) / batch_t:.0f}",
                f"{singles_t / batch_t:.1f}x",
                passes,
                identical,
            )
        )
        singles_db.close()
        batch_db.close()
    table(
        ["n", "effective", "singles (f/s)", "batch (f/s)", "speedup",
         "passes/plan", "identical"],
        rows,
    )
    print("(one transaction = one maintenance pass per cached plan over "
          "the whole changeset; identical final fingerprints are the "
          "hard gate)\n")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--fast", action="store_true", help="smaller sweeps")
    args = parser.parse_args()

    big = [512, 1024, 2048, 4096] if not args.fast else [256, 512, 1024]
    mid = [256, 512, 1024, 2048] if not args.fast else [128, 256, 512]

    print("# Experiment summary (generated by benchmarks/run_experiments.py)\n")
    e1_preprocessing(big)
    e2_delay(big)
    e3_counting(big)
    e4_testing(big)
    e5_vs_naive(mid)
    e6_degree_sweep(1024 if not args.fast else 512)
    e7_skip_ablation(512 if not args.fast else 256)
    e8_storing()
    e9_model_checking(big)
    e10_dynamic(mid)
    e11_parallel([96, 128] if not args.fast else [48, 64])
    e12_transport([96, 128] if not args.fast else [48, 64])
    e13_updates([256, 512] if not args.fast else [96, 128])


if __name__ == "__main__":
    main()
