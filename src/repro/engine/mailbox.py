"""Shared-memory chunk mailbox: true streaming worker->parent transfer.

The columnar transport (:mod:`repro.engine.transport`) bounded the
*decode* — the parent unpacks one chunk at a time — but not the
*transfer*: a work unit's encoded chunks ride one future, so every chunk
of a shard arrives at once when the worker finishes.  This module closes
that gap.  Each process-mode work unit gets one single-producer /
single-consumer ring over :mod:`multiprocessing.shared_memory`:

* the worker appends encoded columnar buffers as it enumerates, blocking
  (with an abandon check) when the ring is full — backpressure, not
  unbounded buffering;
* the parent polls records out in order while the worker is still
  enumerating, so the first page of a heavy shard streams long before
  the shard's future resolves.

Layout of a segment (``HEADER_BYTES`` header, then ``capacity`` data
bytes used as a byte ring):

====== ===== ==========================================================
offset size  field
====== ===== ==========================================================
0      8     ``head`` — total bytes ever written (producer-owned)
8      8     ``tail`` — total bytes ever read (consumer-owned)
16     1     ``done`` — producer wrote its last record and left
17     1     ``abandoned`` — consumer is gone; producer should stop
====== ===== ==========================================================

Records are ``[u32 length | flags][payload]`` with byte-granular wrap
(a record may straddle the ring boundary; reads/writes are two-slice
copies).  Payloads larger than half the ring are split into fragment
records (``_FRAGMENT`` flag = more fragments follow) so any chunk fits
any ring while the consumer keeps draining.

Publication order is write-payload-then-advance-``head`` (and the
``done`` flag is set only after the final ``head`` advance), so a
consumer that observes ``head`` — or ``done`` — sees every byte written
before it.  That relies on total-store-order visibility (x86) or the
interpreter's internal barriers; the protocol additionally never trusts
lengths beyond sanity bounds, so a reordered torn read fails loudly
instead of silently.

Everything degrades gracefully: if shared memory is unavailable (no
``/dev/shm``, permissions) the executor reads each unit's chunks off
its future instead, and a worker that cannot attach a ring returns its
chunk list on the future.
"""

from __future__ import annotations

import os
import struct
import time
from typing import Iterator, List, Optional

from repro.errors import EngineError

try:  # pragma: no cover - exercised by environments without _posixshmem
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

HEADER_BYTES = 64
DEFAULT_CAPACITY = 1 << 20
MIN_CAPACITY = 4096

_COUNTER = struct.Struct("<Q")
_RECORD = struct.Struct("<I")
_HEAD_OFF = 0
_TAIL_OFF = 8
_DONE_OFF = 16
_ABANDONED_OFF = 17

# Record length field: low 31 bits = payload length, high bit = "this is
# a fragment; more fragments of the same chunk follow".
_FRAGMENT = 1 << 31
_LENGTH_MASK = _FRAGMENT - 1

# Producer-side wait ladder while the ring is full (seconds).
_POLL_MIN = 0.0002
_POLL_MAX = 0.002


class MailboxAbandoned(EngineError):
    """The consumer abandoned the mailbox; the producer should stop."""


def mailbox_available() -> bool:
    """True when shared-memory mailboxes can actually be created here.

    Checked once per process: imports can succeed on platforms where
    ``shm_open`` is still denied (sealed containers), so the probe
    creates and unlinks a minimal segment.  ``REPRO_MAILBOX=0`` forces
    the chunks-on-the-future path; ``REPRO_MAILBOX=1`` re-probes every call
    (used by tests to exercise the fallback toggles).
    """
    override = os.environ.get("REPRO_MAILBOX")
    if override == "0":
        return False
    global _AVAILABLE
    if _AVAILABLE is None or override == "1":
        if shared_memory is None:
            _AVAILABLE = False
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=16)
                probe.close()
                probe.unlink()
                _AVAILABLE = True
            except Exception:
                _AVAILABLE = False
    return _AVAILABLE


_AVAILABLE: Optional[bool] = None


def mailbox_capacity(chunk_bytes_hint: int) -> int:
    """Ring size for chunks of roughly ``chunk_bytes_hint`` bytes.

    A handful of chunks of headroom keeps the producer streaming ahead
    of the consumer without buffering the whole shard; the fragment
    protocol makes any capacity *correct*, this only tunes overlap.
    """
    return max(MIN_CAPACITY, min(8 * max(chunk_bytes_hint, 1), DEFAULT_CAPACITY))


class ChunkMailbox:
    """One SPSC byte ring in a shared-memory segment.

    The parent creates (``create=True``) and eventually unlinks; the
    worker attaches by name.  Exactly one producer (:meth:`put` /
    :meth:`finish`) and one consumer (:meth:`poll` / :meth:`abandon`)
    may use an instance.
    """

    def __init__(self, name: Optional[str] = None, capacity: int = DEFAULT_CAPACITY,
                 create: bool = False):
        if shared_memory is None:
            raise EngineError("multiprocessing.shared_memory is unavailable")
        if capacity < MIN_CAPACITY:
            capacity = MIN_CAPACITY
        self.capacity = capacity
        if create:
            self._shm = shared_memory.SharedMemory(
                create=True, size=HEADER_BYTES + capacity
            )
            self._shm.buf[:HEADER_BYTES] = bytes(HEADER_BYTES)
            self._owner = True
        else:
            if name is None:
                raise EngineError("attaching a mailbox requires its name")
            # Attach WITHOUT registering with the resource tracker:
            # ownership (and unlink) stays with the creator.  Registering
            # here would either double-book the name on a fork-shared
            # tracker (unregister noise at unlink) or schedule a spurious
            # unlink-at-worker-exit under spawn.  Python 3.13 exposes
            # ``track=False`` for exactly this; until then the register
            # hook is stubbed around the attach (workers run our tasks
            # single-threaded, so the window is private).
            register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                self._shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = register
            self._owner = False
        self._buf = self._shm.buf
        self._max_fragment = capacity // 2
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    # -- header fields -------------------------------------------------

    def _read_counter(self, offset: int) -> int:
        return _COUNTER.unpack_from(self._buf, offset)[0]

    def _write_counter(self, offset: int, value: int) -> None:
        _COUNTER.pack_into(self._buf, offset, value)

    @property
    def done(self) -> bool:
        return self._buf[_DONE_OFF] != 0

    @property
    def abandoned(self) -> bool:
        return self._buf[_ABANDONED_OFF] != 0

    def abandon(self) -> None:
        """Consumer-side: tell the producer to stop (unblocks its waits)."""
        if not self._closed:
            self._buf[_ABANDONED_OFF] = 1

    def finish(self) -> None:
        """Producer-side: no more records will be written."""
        self._buf[_DONE_OFF] = 1

    # -- byte ring -----------------------------------------------------

    def _copy_in(self, position: int, payload) -> None:
        start = position % self.capacity
        end = start + len(payload)
        base = HEADER_BYTES
        if end <= self.capacity:
            self._buf[base + start : base + end] = payload
        else:
            split = self.capacity - start
            self._buf[base + start : base + self.capacity] = payload[:split]
            self._buf[base : base + end - self.capacity] = payload[split:]

    def _copy_out(self, position: int, length: int) -> bytes:
        start = position % self.capacity
        end = start + length
        base = HEADER_BYTES
        if end <= self.capacity:
            return bytes(self._buf[base + start : base + end])
        split = self.capacity - start
        return bytes(self._buf[base + start : base + self.capacity]) + bytes(
            self._buf[base : base + end - self.capacity]
        )

    # -- producer ------------------------------------------------------

    def _wait_for_space(self, need: int) -> int:
        head = self._read_counter(_HEAD_OFF)
        delay = _POLL_MIN
        while True:
            if self.abandoned:
                raise MailboxAbandoned("consumer abandoned the mailbox")
            tail = self._read_counter(_TAIL_OFF)
            if self.capacity - (head - tail) >= need:
                return head
            time.sleep(delay)
            delay = min(delay * 2, _POLL_MAX)

    def _put_record(self, fragment, more: bool) -> None:
        need = _RECORD.size + len(fragment)
        head = self._wait_for_space(need)
        length = len(fragment) | (_FRAGMENT if more else 0)
        self._copy_in(head, _RECORD.pack(length))
        self._copy_in(head + _RECORD.size, fragment)
        # Publish last: a consumer that sees the new head sees the bytes.
        self._write_counter(_HEAD_OFF, head + need)

    def put(self, payload: bytes) -> None:
        """Append one chunk, blocking while the ring is full.

        Raises :class:`MailboxAbandoned` when the consumer abandoned the
        ring (e.g. the query was cancelled) — the producer should stop
        enumerating.
        """
        view = memoryview(payload)
        total = len(view)
        offset = 0
        while True:
            fragment = view[offset : offset + self._max_fragment]
            offset += len(fragment)
            self._put_record(fragment, more=offset < total)
            if offset >= total:
                return

    # -- consumer ------------------------------------------------------

    def poll(self) -> Optional[bytes]:
        """One complete chunk if available right now, else ``None``.

        Reassembles fragment records; blocks only while the *remaining*
        fragments of an already-started chunk are in flight (they follow
        immediately — the producer writes a chunk's fragments back to
        back).
        """
        parts: List[bytes] = []
        while True:
            record = self._poll_record(wait_for_more=bool(parts))
            if record is None:
                return None
            fragment, more = record
            parts.append(fragment)
            if not more:
                return parts[0] if len(parts) == 1 else b"".join(parts)

    def _poll_record(self, wait_for_more: bool):
        tail = self._read_counter(_TAIL_OFF)
        delay = _POLL_MIN
        while True:
            head = self._read_counter(_HEAD_OFF)
            available = head - tail
            if available >= _RECORD.size:
                (length,) = _RECORD.unpack(self._copy_out(tail, _RECORD.size))
                more = bool(length & _FRAGMENT)
                size = length & _LENGTH_MASK
                if size > self.capacity - _RECORD.size:
                    raise EngineError(
                        f"corrupt mailbox record: length {size} exceeds "
                        f"ring capacity {self.capacity}"
                    )
                if available >= _RECORD.size + size:
                    payload = self._copy_out(tail + _RECORD.size, size)
                    self._write_counter(_TAIL_OFF, tail + _RECORD.size + size)
                    return payload, more
            if not wait_for_more:
                return None
            # Mid-chunk: the producer is writing the next fragment now
            # (or died — its future surfaces the error; cap the wait so
            # a dead producer cannot hang the drain forever).
            if self.done and head == self._read_counter(_HEAD_OFF):
                raise EngineError("mailbox closed mid-chunk (truncated fragments)")
            time.sleep(delay)
            delay = min(delay * 2, _POLL_MAX)

    def drain(self) -> Iterator[bytes]:
        """Yield every remaining complete chunk without waiting for more."""
        while True:
            chunk = self.poll()
            if chunk is None:
                return
            yield chunk

    # -- lifecycle -----------------------------------------------------

    def close(self, unlink: bool = False) -> None:
        if self._closed:
            return
        self._closed = True
        self._buf = None  # release the exported memoryview before close()
        self._shm.close()
        if unlink and self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass

    def __repr__(self) -> str:
        return (
            f"ChunkMailbox(name={self._shm.name!r}, capacity={self.capacity}, "
            f"owner={self._owner})"
        )
