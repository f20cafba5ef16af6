"""ChunkMailbox unit tests: the SPSC ring's wire protocol.

Exercises the byte ring directly — ordering, fragment reassembly,
byte-granular wrap, backpressure/abandon, the done flag, and the
corruption guards — without involving the executor.  The streaming
integration (mailboxed work units feeding ``TransferStats``) lives in
the parallel differential and transport suites; the last test here
drives the executor's no-shared-memory path end to end.
"""

from __future__ import annotations

import struct
import threading

import pytest

from repro.core.enumeration import enumerate_answers
from repro.engine import WorkerPool, executor, run_branches
from repro.engine.mailbox import (
    DEFAULT_CAPACITY,
    MIN_CAPACITY,
    ChunkMailbox,
    MailboxAbandoned,
    mailbox_available,
    mailbox_capacity,
)
from repro.engine.transport import TransferStats
from repro.errors import EngineError
from repro.structures.random_gen import random_colored_graph

from planning import plan

needs_shm = pytest.mark.skipif(
    not mailbox_available(), reason="shared memory unavailable"
)


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


def test_chunks_ride_the_future_without_shared_memory(monkeypatch):
    """Where the probe finds no shared memory, every process-mode unit
    returns its encoded chunks on the future: same bytes, same order,
    same chunk bound."""
    monkeypatch.setattr(executor, "mailbox_available", lambda: False)
    structure = random_colored_graph(60, max_degree=4, seed=5)
    pipeline = plan(structure, "B(x) & R(y) & ~E(x,y)")
    serial = list(enumerate_answers(pipeline))
    stats = TransferStats()
    with WorkerPool(2) as pool:
        chunks = list(
            run_branches(
                pipeline, workers=2, mode="process", pool=pool, chunk_rows=16,
                transfer_stats=stats,
            )
        )
    assert [row for chunk in chunks for row in chunk] == serial
    assert all(0 < len(chunk) <= 16 for chunk in chunks)
    assert stats.rows == len(serial)
    assert len(chunks) == stats.chunks
