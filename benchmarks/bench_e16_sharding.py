"""E16 — region-sharded scatter-gather vs unsharded execution.

Claim: partitioning a structure into Gaifman-component regions
(``repro.shard``) changes *where* the work runs but not a single byte of
the output — the stream gather reproduces the global enumeration order
exactly — and with the shared-memory chunk mailbox the first page of the
heaviest work unit arrives while that unit is still enumerating, so
first-page latency is decoupled from the slowest shard's finish line.

Two entry points:

* a standalone harness (``python benchmarks/bench_e16_sharding.py``)
  that measures scatter-gather throughput against serial enumeration
  across shard counts and **fails (exit 1) on any divergence**;
* ``--smoke`` (the CI gate) runs a tiny workload and enforces the
  equality contracts only:

  1. sharded ``answers()``/``count()`` are **byte-identical** to the
     unsharded serial oracle for every shard count;
  2. with the streaming mailbox enabled, the heaviest work unit's first
     chunk arrives before that unit — and before the slowest unit —
     finishes producing.  This is proven from byte counts, not
     timestamps: the unit publishes more than its ring can hold, and a
     ring holds everything a worker published before the first take;
  3. a changeset applied through :meth:`ShardedDatabase.apply` (split
     per shard, one maintenance pass per plan) leaves the structure,
     every region substructure, and every warm query byte-identical to
     the same commit on a plain warm :class:`Database`.

Both modes emit ``BENCH_sharding.json`` so future PRs can track the
trajectory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:  # allow `python benchmarks/bench_e16_sharding.py`
    sys.path.insert(0, REPO_SRC)

from repro.engine.executor import parallel_enumerate  # noqa: E402
from repro.engine.mailbox import mailbox_available, mailbox_capacity  # noqa: E402
from repro.engine.pool import WorkerPool  # noqa: E402
from repro.engine.transport import TransferStats  # noqa: E402
from repro.session import Database  # noqa: E402
from repro.shard import ShardedDatabase  # noqa: E402
from repro.structures import Signature, Structure  # noqa: E402
from repro.structures.serialize import (  # noqa: E402
    fingerprint,
    region_fingerprint,
)

QUERIES = (
    "B(x)",                                   # single-block: per-shard streams
    "B(x) & R(y) & ~E(x,y)",                  # two blocks: merged pipeline
    "exists z. (E(x,z) & B(z)) & R(x)",       # nested witness
)
STREAM_QUERY = "B(x) & R(y) & ~E(x,y)"
# Small chunks keep every ring at its minimum capacity, which the
# heaviest unit's output then exceeds (gate 2).
STREAM_CHUNK_ROWS = 4
DEFAULT_JSON = "BENCH_sharding.json"


def islands(sizes, seed: int = 0) -> Structure:
    """Disjoint path components: the partitioner's natural workload."""
    total = sum(sizes)
    db = Structure(Signature.of(E=2, B=1, R=1), range(total))
    offset = 0
    for size in sizes:
        for position in range(size - 1):
            db.add_fact("E", offset + position, offset + position + 1)
        for position in range(size):
            element = offset + position
            db.add_fact("B" if (element + seed) % 2 == 0 else "R", element)
        offset += size
    return db


def output_digest(answers) -> str:
    hasher = hashlib.sha256()
    for answer in answers:
        hasher.update(repr(answer).encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()


def check_byte_identity(structure, shard_counts, report, failures):
    """Gate 1: every shard count matches the serial oracle."""
    oracles = {}
    with Database(structure.copy()) as plain:
        for query in QUERIES:
            handle = plain.query(query, backend="serial")
            oracles[query] = (handle.answers().all(), handle.count())
    for shards in shard_counts:
        started = time.perf_counter()
        with ShardedDatabase(structure.copy(), shards=shards) as sdb:
            layout = list(sdb.layout.sizes())
            for query in QUERIES:
                expected_answers, expected_count = oracles[query]
                sharded = sdb.query(query)
                got = sharded.answers().all()
                if got != expected_answers:
                    failures.append(
                        f"[shards={shards}] {query}: "
                        f"enumeration diverges from serial "
                        f"({output_digest(got)[:12]} != "
                        f"{output_digest(expected_answers)[:12]})"
                    )
                if sharded.count() != expected_count:
                    failures.append(
                        f"[shards={shards}] {query}: "
                        f"count diverges from serial"
                    )
        elapsed = time.perf_counter() - started
        report["identity_runs"].append(
            {"shards": shards, "shard_sizes": layout, "seconds": elapsed}
        )
        print(
            f"shards={shards}: sizes={layout} "
            f"all queries byte-identical ({elapsed:.3f}s)"
        )


def check_streaming_first_page(structure, workers, report, failures):
    """Gate 2: the mailbox ships the heaviest unit's first page early."""
    if not mailbox_available():
        print("streaming gate skipped: shared memory unavailable")
        report["streaming"] = {"skipped": "shared memory unavailable"}
        return
    with ShardedDatabase(structure.copy(), shards=workers) as sdb:
        sharded = sdb.query(STREAM_QUERY)
        serial = sharded.answers().all()
        merged = sdb._plan_state(sharded._key).merged
        stats = TransferStats()
        with WorkerPool(workers) as pool:
            started = time.perf_counter()
            streamed = list(
                parallel_enumerate(
                    merged,
                    workers=workers,
                    mode="process",
                    pool=pool,
                    transfer_stats=stats,
                    chunk_rows=STREAM_CHUNK_ROWS,
                )
            )
            elapsed = time.perf_counter() - started
    if streamed != serial:
        failures.append("mailboxed process run diverges from serial")
    if not stats.per_source:
        failures.append("no per-source transfer was recorded")
        return
    heaviest_label = max(
        stats.per_source, key=lambda label: stats.per_source[label]["rows"]
    )
    heaviest = stats.per_source[heaviest_label]
    # Nothing is read off a ring before the first take, so at that
    # moment the worker has published at most the ring's capacity.  A
    # unit whose output exceeds it was still producing (blocked on
    # backpressure), and so was the slowest unit, which finishes no
    # earlier.  The bound is the executor's ring size with the widest
    # (8-byte) element ids; mailbox_capacity is monotone.
    ring_bytes = mailbox_capacity(STREAM_CHUNK_ROWS * merged.arity * 8 + 64)
    if heaviest["bytes"] <= ring_bytes:
        failures.append(
            f"heaviest unit {heaviest_label} did not stream: its "
            f"{heaviest['bytes']} bytes fit in a {ring_bytes}-byte ring"
        )
    report["streaming"] = {
        "answers": len(streamed),
        "seconds": elapsed,
        "chunks": stats.chunks,
        "bytes_received": stats.bytes_received,
        "heaviest_unit": heaviest_label,
        "heaviest_rows": heaviest["rows"],
        "heaviest_bytes": heaviest["bytes"],
        "ring_bytes": ring_bytes,
        "sources": len(stats.per_source),
    }
    print(
        f"streaming: {len(streamed)} answers over {stats.chunks} chunks; "
        f"heaviest unit {heaviest_label} ({heaviest['rows']} rows) "
        f"published {heaviest['bytes']} bytes into a {ring_bytes}-byte ring"
    )


def update_stream(structure, count: int = 12):
    """Deterministic shard-local flips guaranteed to change state."""
    ops = []
    domain = list(structure.domain)
    for index, element in enumerate(domain[:count]):
        if index % 3 == 0:
            present = structure.has_fact("B", element)
            ops.append((not present, "B", (element,)))
        elif index % 3 == 1:
            present = structure.has_fact("R", element)
            ops.append((not present, "R", (element,)))
        else:
            edge = (element, element)
            ops.append((not structure.has_fact("E", *edge), "E", edge))
    return ops


def check_apply_equivalence(structure, report, failures):
    """Gate 3: a split commit == the same commit on a plain warm session."""
    ops = update_stream(structure)
    with Database(structure.copy()) as plain, ShardedDatabase(
        structure.copy(), shards=3
    ) as sdb:
        # Warm BOTH sides: identical pipelines before identical surgery.
        for query in QUERIES:
            plain.query(query, backend="serial").answers().all()
            sdb.query(query).answers().all()
        result = sdb.apply(ops)
        plain.apply(ops)
        if result.maintained_plans == 0:
            failures.append("split commit maintained no plans (expected warm)")
        if result.fingerprint_after != fingerprint(plain.structure):
            failures.append("split commit fingerprint diverges from plain")
        for shard, substructure in zip(sdb.layout.shards, sdb.substructures):
            if fingerprint(substructure) != region_fingerprint(
                sdb.structure, shard
            ):
                failures.append(
                    "a region substructure drifted from the full structure"
                )
                break
        for query in QUERIES:
            sharded_rows = sdb.query(query).answers().all()
            plain_rows = plain.query(query, backend="serial").answers().all()
            if sharded_rows != plain_rows:
                failures.append(
                    f"[apply] {query}: maintained sharded enumeration "
                    f"diverges from the maintained plain session"
                )
        report["apply"] = {
            "ops": len(ops),
            "effective": result.ops_effective,
            "maintained_plans": result.maintained_plans,
        }
        print(
            f"apply: {result.ops_effective} effective ops, "
            f"{result.maintained_plans} plans maintained, "
            f"all queries byte-identical to the plain session"
        )


def measure_throughput(structure, shard_counts, report):
    """Standalone mode: wall-clock of the sharded gather vs serial."""
    with Database(structure.copy()) as plain:
        started = time.perf_counter()
        baseline = len(plain.query(STREAM_QUERY, backend="serial").answers().all())
        serial_seconds = time.perf_counter() - started
    report["throughput"] = {"serial_seconds": serial_seconds, "runs": []}
    print(f"serial: {baseline} answers in {serial_seconds:.3f}s")
    for shards in shard_counts:
        with ShardedDatabase(structure.copy(), shards=shards) as sdb:
            started = time.perf_counter()
            rows = len(sdb.query(STREAM_QUERY).answers().all())
            elapsed = time.perf_counter() - started
        assert rows == baseline
        report["throughput"]["runs"].append(
            {"shards": shards, "seconds": elapsed}
        )
        print(f"shards={shards}: {rows} answers in {elapsed:.3f}s")


def run_harness(sizes, workers: int, smoke: bool, json_path: str) -> int:
    structure = islands(sizes)
    print(
        f"workload: n={structure.cardinality}, islands={len(sizes)}, "
        f"sizes={list(sizes)}"
    )
    report = {
        "n": structure.cardinality,
        "islands": list(sizes),
        "smoke": smoke,
        "identity_runs": [],
    }
    failures: list = []

    shard_counts = (1, 3, 5) if smoke else (2, 4, 8)
    check_byte_identity(structure, shard_counts, report, failures)
    check_streaming_first_page(structure, workers, report, failures)
    check_apply_equivalence(structure, report, failures)
    if not smoke:
        measure_throughput(structure, shard_counts, report)

    report["failures"] = failures
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"report written to {json_path}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "ok: sharded scatter-gather is byte-identical to serial for every "
        "configuration, the mailbox streams the heaviest unit's first page "
        "early, and split commits match the plain session"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload; enforce the equality gates only",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--json", default=DEFAULT_JSON, help="report path")
    args = parser.parse_args(argv)
    sizes = (
        (40, 30, 20, 15, 10, 5)
        if args.smoke
        else (300, 250, 200, 150, 100, 80, 60, 40)
    )
    return run_harness(sizes, args.workers, args.smoke, args.json)


if __name__ == "__main__":
    sys.exit(main())
