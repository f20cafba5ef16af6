"""ChunkMailbox unit tests: the SPSC ring's wire protocol, and the
executor's use of it as process mode's one transport.

The first part exercises the byte ring directly — ordering, fragment
reassembly, byte-granular wrap, backpressure/abandon, the done flag, and
the corruption guards.  The second part checks, in-process and without
starting a worker, that there is no second transport: without shared
memory process mode is unavailable (``auto`` stays serial, a forced
``process`` raises before anything is submitted), a ring that cannot be
created or attached fails the run, and the drain reads every chunk of a
unit whose future has resolved.  The streaming integration (mailboxed
work units feeding ``TransferStats``) lives in the parallel
differential and transport suites.
"""

from __future__ import annotations

import struct
import threading
import time
from concurrent.futures import Future

import pytest

from repro.core.enumeration import enumerate_answers
from repro.engine import (
    WorkerPool,
    decide_mode,
    executor,
    parallel_enumerate,
    plan_work_units,
    run_branches,
)
from repro.engine.mailbox import (
    DEFAULT_CAPACITY,
    MIN_CAPACITY,
    ChunkMailbox,
    MailboxAbandoned,
    mailbox_available,
    mailbox_capacity,
)
from repro.engine.transport import ColumnarCodec, TransferStats
from repro.errors import EngineError
from repro.session import Database
from repro.structures.random_gen import random_colored_graph

from planning import plan

needs_shm = pytest.mark.skipif(
    not mailbox_available(), reason="shared memory unavailable"
)

EXAMPLE = "B(x) & R(y) & ~E(x,y)"


@pytest.fixture
def ring():
    box = ChunkMailbox(capacity=MIN_CAPACITY, create=True)
    yield box
    box.close(unlink=True)


@needs_shm
def test_put_poll_roundtrip_preserves_order(ring):
    payloads = [bytes([index]) * (index + 1) for index in range(10)]
    for payload in payloads:
        ring.put(payload)
    ring.finish()
    assert list(ring.drain()) == payloads
    assert ring.poll() is None
    assert ring.done


@needs_shm
def test_attach_by_name_shares_the_ring(ring):
    producer = ChunkMailbox(name=ring.name, capacity=ring.capacity)
    try:
        producer.put(b"hello from the worker")
        producer.finish()
    finally:
        producer.close()
    assert ring.poll() == b"hello from the worker"
    assert ring.done


def test_attach_requires_a_name():
    if not mailbox_available():
        pytest.skip("shared memory unavailable")
    with pytest.raises(EngineError):
        ChunkMailbox()


@needs_shm
def test_oversized_payload_fragments_and_reassembles(ring):
    # Larger than capacity // 2 (one fragment) but fits the ring whole,
    # so a single-threaded put/poll still works.
    payload = bytes(range(256)) * 11  # 2816 > 4096 // 2
    ring.put(payload)
    assert ring.poll() == payload


@needs_shm
def test_payload_larger_than_the_ring_streams_through(ring):
    payload = bytes(range(256)) * 64  # 16384 = 4 * capacity
    received = []

    def consume():
        while True:
            chunk = ring.poll()
            if chunk is not None:
                received.append(chunk)
                return

    consumer = threading.Thread(target=consume)
    consumer.start()
    ring_producer = ChunkMailbox(name=ring.name, capacity=ring.capacity)
    try:
        ring_producer.put(payload)
    finally:
        ring_producer.close()
    consumer.join(timeout=30)
    assert not consumer.is_alive()
    assert received == [payload]


@needs_shm
def test_records_wrap_the_ring_byte_granularly(ring):
    # 1000-byte records never divide the 4096-byte ring: after a few
    # rounds every record straddles the boundary somewhere.
    for round_index in range(50):
        payload = bytes([round_index % 256]) * 1000
        ring.put(payload)
        assert ring.poll() == payload
    assert ring.poll() is None


@needs_shm
def test_abandon_raises_in_the_producer(ring):
    ring.abandon()
    with pytest.raises(MailboxAbandoned):
        ring.put(b"too late")


@needs_shm
def test_abandon_unblocks_a_backpressured_producer(ring):
    errors = []

    def produce():
        try:
            while True:  # fills the ring, then blocks in the wait ladder
                ring.put(b"x" * 512)
        except MailboxAbandoned as exc:
            errors.append(exc)

    producer = threading.Thread(target=produce)
    producer.start()
    ring.abandon()
    producer.join(timeout=30)
    assert not producer.is_alive()
    assert len(errors) == 1


@needs_shm
def test_truncated_fragments_fail_loudly(ring):
    ring._put_record(b"first half", more=True)
    ring.finish()
    with pytest.raises(EngineError, match="mid-chunk"):
        ring.poll()


@needs_shm
def test_corrupt_length_fails_loudly(ring):
    # Forge a record whose length exceeds the ring: a torn or reordered
    # read must raise, never allocate or silently return garbage.
    ring._copy_in(0, struct.pack("<I", ring.capacity))
    ring._write_counter(0, 4)  # head: one record header published
    with pytest.raises(EngineError, match="corrupt"):
        ring.poll()


@needs_shm
def test_capacity_is_clamped_to_the_minimum():
    box = ChunkMailbox(capacity=1, create=True)
    try:
        assert box.capacity == MIN_CAPACITY
    finally:
        box.close(unlink=True)


def test_mailbox_capacity_tracks_the_chunk_hint():
    assert mailbox_capacity(1) == MIN_CAPACITY
    assert mailbox_capacity(10**9) == DEFAULT_CAPACITY
    assert mailbox_capacity(100_000) == 800_000


@pytest.fixture
def submits(monkeypatch):
    """Every work unit submitted to a pool, in order."""
    submitted = []
    submit = WorkerPool.submit

    def counting(self, mode, fn, *args):
        submitted.append(fn)
        return submit(self, mode, fn, *args)

    monkeypatch.setattr(WorkerPool, "submit", counting)
    return submitted


@pytest.fixture
def example():
    pipeline = plan(random_colored_graph(60, max_degree=3, seed=2), EXAMPLE)
    return pipeline, list(enumerate_answers(pipeline))


def test_without_shared_memory_auto_stays_serial(example, submits, monkeypatch):
    """The cost model says ``process``, but there is no shared memory:
    the run goes on serially past its head and submits nothing."""
    monkeypatch.setattr(executor, "mailbox_available", lambda: False)
    monkeypatch.setattr(
        executor, "choose_execution_mode", lambda *args, **kwargs: "process"
    )
    pipeline, serial = example
    assert len(serial) > 7, "the stream must run past its head"
    stats = TransferStats()
    with WorkerPool(2) as pool:
        rows = list(
            parallel_enumerate(
                pipeline, workers=2, pool=pool, chunk_rows=7, transfer_stats=stats
            )
        )
    assert rows == serial
    assert decide_mode(pipeline, workers=2) == ("serial", 1)
    assert stats.head_rows is None and stats.chunks == 0
    structure = random_colored_graph(60, max_degree=3, seed=2)
    with Database(structure, workers=2) as db:
        query = db.query(EXAMPLE, chunk_rows=7)
        handle = query.answers()
        assert handle.all() == serial
        assert handle.backend_used == "serial"
        assert query.explain().backend == "serial"
    assert submits == []


def test_without_shared_memory_forced_process_raises(example, submits, monkeypatch):
    monkeypatch.setattr(executor, "mailbox_available", lambda: False)
    pipeline, _ = example
    with WorkerPool(2) as pool:
        with pytest.raises(EngineError, match="shared memory"):
            list(parallel_enumerate(pipeline, workers=2, mode="process", pool=pool))
        with pytest.raises(EngineError, match="shared memory"):
            next(run_branches(pipeline, workers=2, mode="process", pool=pool))
    assert submits == []


@needs_shm
def test_a_ring_creation_failure_fails_the_run_and_unlinks(
    example, submits, monkeypatch
):
    """The third unit's ring cannot be created: the run raises before
    any unit is submitted, and the two rings made so far are unlinked."""
    created = []

    class FailingThird(ChunkMailbox):
        def __init__(self, *args, **kwargs):
            if kwargs.get("create") and len(created) == 2:
                raise OSError(28, "No space left on device")
            super().__init__(*args, **kwargs)
            created.append(self.name)

    monkeypatch.setattr(executor, "ChunkMailbox", FailingThird)
    pipeline, _ = example
    assert len(plan_work_units(pipeline, 2)) >= 3
    with WorkerPool(2) as pool:
        with pytest.raises(EngineError, match="ring 3 of"):
            list(parallel_enumerate(pipeline, workers=2, mode="process", pool=pool))
    assert submits == []
    assert len(created) == 2
    for name in created:
        with pytest.raises(FileNotFoundError):
            ChunkMailbox(name=name)


def test_a_worker_that_cannot_attach_its_ring_raises(example, monkeypatch):
    """Run in-process: the attach fails for a reason other than a closed
    stream, and the unit raises instead of returning its chunks."""

    class Denied:
        def __init__(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(executor, "ChunkMailbox", Denied)
    pipeline, _ = example
    task = executor.BranchTask(
        pipeline.rebuild_spec(),
        executor._default_spec_key(pipeline),
        0,
        chunk_rows=16,
        mailbox=("a-ring", MIN_CAPACITY),
    )
    with pytest.raises(PermissionError):
        executor.run_branch_task_encoded(task)


class ScriptedRing:
    """A ring whose worker finishes right after the drain's first look:
    that poll finds nothing and resolves the future, and the unit's one
    buffer becomes readable only after.  ``done`` is never set."""

    done = False
    abandoned = False

    def __init__(self, future: Future, buf: bytes):
        self._future = future
        self._pending = [buf]

    def poll(self):
        if not self._future.done():
            self._future.set_result(
                {"chunks": 1, "rows": 3, "finished": time.monotonic()}
            )
            return None
        return self._pending.pop() if self._pending else None

    def drain(self):
        while True:
            buf = self.poll()
            if buf is None:
                return
            yield buf


def test_the_drain_keeps_a_chunk_that_lands_after_the_future(example):
    pipeline, serial = example
    codec = ColumnarCodec(pipeline.intern_table)
    future = Future()
    ring = ScriptedRing(future, codec.encode(serial[:3]))
    stats = TransferStats()
    with WorkerPool(1) as pool:
        chunks = list(
            executor._yield_encoded_mailboxed(
                [(future, ring, "b0[0:]")], codec, stats, pool
            )
        )
    assert chunks == [serial[:3]]
    assert stats.rows == 3


@needs_shm
def test_rings_carry_later_units_once_drained(example, monkeypatch):
    """More units than the in-flight window: the stream creates one ring
    per unit in flight and reuses each for a later unit, byte-identically."""
    created = []

    class Recording(ChunkMailbox):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("create"):
                created.append(self.name)

    monkeypatch.setattr(executor, "ChunkMailbox", Recording)
    monkeypatch.setattr(executor, "_UNITS_IN_FLIGHT_PER_WORKER", 1)
    pipeline, serial = example
    units = plan_work_units(pipeline, 2)
    assert len(units) > 2
    stats = TransferStats()
    with WorkerPool(2) as pool:
        rows = list(
            parallel_enumerate(
                pipeline, workers=2, mode="process", pool=pool, chunk_rows=5,
                transfer_stats=stats,
            )
        )
    assert rows == serial
    assert len(created) == 2
    assert len(stats.per_source) == len(units)
