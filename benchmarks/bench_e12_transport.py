"""E12 — columnar answer transport vs. pickled tuple lists.

Claim: process-mode enumeration does not pay for shipping pickled
answer lists back to the parent.  The columnar codec (interned element
ids, per-column fixed-width buffers, bounded ``chunk_rows`` chunks,
opportunistic zlib) moves >= 2x fewer bytes to the parent than pickling
the same chunks would, on the large triple workload, while keeping the
merged output *byte-identical* to serial enumeration; the bounded chunks
+ lazy decode keep the time-to-first-chunk (the ``Answers.page(0)``
latency floor) low.

The harness (``python benchmarks/bench_e12_transport.py``) measures
bytes + time-to-first-chunk at the default chunk size, **fails (exit 1)
on any divergence from serial enumeration**, and also fails if the
columnar bytes are not at least 2x below ``pickle.dumps`` of the same
decoded chunks.  It writes ``BENCH_transport.json`` (bytes transferred,
pickled comparator bytes, time-to-first-chunk, ratio) so the trajectory
can be tracked.  Byte-identity for every chunk size (1, 7 and the
default) on the n=48 workload is a tier-1 test:
``tests/engine/test_parallel_differential.py::TestTripleQueryGate``.

Methodology notes: the process pool is warmed first (worker pipeline
rebuilds are preprocessing in the service regime); the comparator is
``pickle.dumps`` of each decoded chunk — the payload a pickled transfer
of the same chunks would move, modulo constant framing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys
import time

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:  # allow `python benchmarks/bench_e12_transport.py`
    sys.path.insert(0, REPO_SRC)

from repro.core.enumeration import arm_enumerators  # noqa: E402
from repro.core.pipeline import Pipeline  # noqa: E402
from repro.engine import (  # noqa: E402
    WorkerPool,
    parallel_enumerate,
    run_branches,
    warm_pool,
)
from repro.engine.transport import ColumnarCodec, TransferStats  # noqa: E402
from repro.fo.parser import parse  # noqa: E402
from repro.structures.random_gen import random_colored_graph  # noqa: E402

TRIPLE_QUERY = "B(x) & R(y) & G(z) & ~E(x,y) & ~E(y,z) & ~E(x,z)"

DEFAULT_JSON = "BENCH_transport.json"


def build_workload(n: int, degree: int = 4, seed: int = 42):
    db = random_colored_graph(n, max_degree=degree, colors=("B", "R", "G"), seed=seed)
    return db, parse(TRIPLE_QUERY)


def output_digest(answers) -> str:
    hasher = hashlib.sha256()
    for answer in answers:
        hasher.update(repr(answer).encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()


def measure(pipeline, pool, workers, chunk_rows):
    """One process-mode run: (answers, bytes_to_parent, pickle_bytes,
    ttfc, total_time).

    ``bytes_to_parent`` is the columnar codec's actual received bytes
    (TransferStats); ``pickle_bytes`` is what pickling the very same
    decoded chunks would have moved — the comparator; ``ttfc`` is the
    time until the first chunk of answers is decoded and available (the
    first-page latency floor).
    """
    stats = TransferStats()
    codec = ColumnarCodec(pipeline.intern_table)
    started = time.perf_counter()
    buffers = run_branches(
        pipeline,
        workers=workers,
        mode="process",
        pool=pool,
        chunk_rows=chunk_rows,
        transfer_stats=stats,
    )
    answers = []
    ttfc = None
    received_chunks = []
    for buf in buffers:
        chunk = codec.decode(buf)
        if ttfc is None:
            ttfc = time.perf_counter() - started
        received_chunks.append(chunk)
        answers.extend(chunk)
    total = time.perf_counter() - started
    if ttfc is None:
        ttfc = total
    pickle_bytes = sum(len(pickle.dumps(chunk)) for chunk in received_chunks)
    return answers, stats.bytes_received, pickle_bytes, ttfc, total


def run_harness(n: int, workers: int, json_path: str, require_ratio: float) -> int:
    db, query = build_workload(n)
    print(f"workload: n={db.cardinality}, degree={db.degree}, query={TRIPLE_QUERY}")

    started = time.perf_counter()
    pipeline = Pipeline(db, query)
    print(f"preprocessing: {time.perf_counter() - started:.2f}s; "
          f"branches={pipeline.branch_count}")

    arm_enumerators(pipeline)
    serial = list(parallel_enumerate(pipeline, mode="serial"))
    serial_digest = output_digest(serial)
    print(f"serial: {len(serial)} answers")

    with WorkerPool(workers) as pool:
        started = time.perf_counter()
        warm_pool(pool, pipeline, workers)
        print(f"process pool warm-up ({workers} workers): "
              f"{time.perf_counter() - started:.2f}s")
        answers, received, pickled, ttfc, total = measure(
            pipeline, pool, workers, None
        )
    identical = output_digest(answers) == serial_digest
    verdict = "byte-identical" if identical else "DIVERGED"
    print(
        f"chunk_rows=auto: {received:>10d} bytes to parent "
        f"(pickled: {pickled}), first chunk {ttfc * 1000:.1f}ms, "
        f"total {total:.2f}s [{verdict}]"
    )
    # None (JSON null), never float('inf'): json.dump would emit the
    # non-standard Infinity literal and break strict consumers.
    ratio = round(pickled / received, 2) if received else None
    report = {
        "workload": {"n": db.cardinality, "workers": workers, "answers": len(serial)},
        "runs": [
            {
                "chunk_rows": None,
                "bytes_to_parent": received,
                "pickle_bytes": pickled,
                "time_to_first_chunk_s": round(ttfc, 6),
                "total_s": round(total, 6),
                "identical": identical,
            }
        ],
        "bytes_ratio": ratio,
    }
    ratio_text = f"{ratio:.1f}x" if ratio is not None else "n/a (0 bytes)"
    print(f"bytes: columnar ships {ratio_text} fewer than pickling the same chunks")

    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {json_path}")

    if not identical:
        print("FAIL: the process run diverged from the serial output")
        return 1
    if ratio is not None and ratio < require_ratio:
        print(
            f"FAIL: columnar transport only {ratio:.2f}x smaller than pickling "
            f"the same chunks (target >= {require_ratio}x)"
        )
        return 1
    print(f"OK: byte-identical; columnar ships {ratio_text} "
          f"fewer bytes to the parent than pickle would")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=140, help="structure size")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--require-ratio",
        type=float,
        default=2.0,
        help="minimum pickled/columnar byte ratio",
    )
    parser.add_argument("--json", default=DEFAULT_JSON, help="report path")
    args = parser.parse_args(argv)
    return run_harness(args.n, args.workers, args.json, args.require_ratio)


if __name__ == "__main__":
    sys.exit(main())
