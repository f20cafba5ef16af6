"""A long-lived worker pool owned by each session.

:class:`WorkerPool` fronts one :class:`~concurrent.futures.ProcessPoolExecutor`
behind a ``submit("process", fn, *args)`` facade — the only route by
which the engine runs parallel work (a call without a session pool gets
one scoped to that call) — with the lifecycle a long-running service
needs:

* **lazy start** — no OS resource exists until the first parallel
  submission; serial queries never pay for a pool;
* **warm reuse** — once started, the same executor serves every
  subsequent submission, so per-process pipeline memos
  (:mod:`repro.engine.executor`) amortize across queries;
* **crash restart** — a killed or segfaulted worker process breaks a
  :class:`ProcessPoolExecutor` permanently; the pool detects the broken
  executor at the next submission, tears it down, and starts a fresh one,
  so one lost worker costs one failed (retryable) result instead of the
  whole service;
* **explicit shutdown** — idempotent :meth:`close` (also via the context
  manager protocol) joins every worker process, so tests can assert no
  leaks.  It first abandons the mailboxes of every stream still open on
  the pool (see :meth:`watch`): a worker blocked on the full ring of a
  stream nobody reads would otherwise never return, and the join would
  hang.

There is no thread executor: CPython's GIL keeps threads from splitting
CPU-bound enumeration, so parallel work goes to processes or stays
serial.  The pool is thread-safe: submissions may arrive concurrently
from answer handles, the asyncio faces' worker threads, and user code.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Callable, Dict, Optional

from repro.errors import EngineError

POOL_MODES = ("process",)


def default_workers() -> int:
    """Worker count when the caller does not choose: one per core."""
    return os.cpu_count() or 1


class WorkerPool:
    """A lazily-started, restartable process pool."""

    def __init__(self, workers: Optional[int] = None):
        if workers is not None and workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        self._requested_workers = workers
        self._process: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._closed = False
        self._submits = 0
        self._restarts = 0
        self._bytes_received = 0
        # Mailboxes of the process streams in flight (see watch()).
        self._rings: set = set()

    # -- introspection -------------------------------------------------

    @property
    def workers(self) -> int:
        return self._requested_workers or default_workers()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def restarts(self) -> int:
        """How many broken process pools were replaced so far."""
        return self._restarts

    @property
    def bytes_received(self) -> int:
        """Transport bytes the parent pulled off this pool's futures."""
        return self._bytes_received

    def record_transfer(self, nbytes: int) -> None:
        """Account one received transport chunk (columnar process mode)."""
        with self._lock:
            self._bytes_received += nbytes

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "workers": self.workers,
                "submits": self._submits,
                "restarts": self._restarts,
                "bytes_received": self._bytes_received,
                "process_pool_live": int(self._process is not None),
                "closed": int(self._closed),
            }

    # -- executors (lazy) ----------------------------------------------

    def _ensure_process(self) -> ProcessPoolExecutor:
        if self._process is None:
            self._process = ProcessPoolExecutor(max_workers=self.workers)
        return self._process

    def executor_for(self, mode: str):
        """The live executor for ``mode``, starting it if necessary.

        For callers that need the raw executor (e.g. a benchmark
        settling its workers); regular work should go through
        :meth:`submit`, which adds the broken-pool restart.
        """
        self._check_mode(mode)
        with self._lock:
            self._check_open()
            return self._ensure_process()

    @staticmethod
    def _check_mode(mode: str) -> None:
        if mode not in POOL_MODES:
            raise EngineError(
                f"unknown pool mode {mode!r}; choose from {POOL_MODES}"
            )

    def _check_open(self) -> None:
        if self._closed:
            raise EngineError("this worker pool is closed")

    # -- submission ----------------------------------------------------

    def submit(self, mode: str, fn: Callable, /, *args) -> Future:
        """Schedule ``fn(*args)`` on the ``mode`` (``"process"``) executor.

        A broken process executor (a worker died since the last
        submission) is replaced transparently: already-issued futures from
        the dead pool fail with ``BrokenProcessPool`` — retrying their
        originating operation re-submits here and lands on the fresh pool.
        """
        self._check_mode(mode)
        with self._lock:
            self._check_open()
            self._submits += 1
            try:
                return self._ensure_process().submit(fn, *args)
            except BrokenExecutor:
                self._restart_process_locked()
                return self._ensure_process().submit(fn, *args)

    def _restart_process_locked(self) -> None:
        broken, self._process = self._process, None
        self._restarts += 1
        if broken is not None:
            # The executor is already broken; don't wait on dead workers.
            broken.shutdown(wait=False, cancel_futures=True)

    def watch(self, rings) -> None:
        """Register the mailboxes of a stream in flight, so :meth:`close`
        can abandon them; the stream calls :meth:`unwatch` before it
        closes them."""
        with self._lock:
            self._rings.update(ring for ring in rings if ring is not None)

    def unwatch(self, rings) -> None:
        with self._lock:
            self._rings.difference_update(rings)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Shut down the executor, joining every worker.  Idempotent.

        The mailboxes of streams still open are abandoned first (their
        workers stop at their next chunk), so a stream that was dropped
        without being closed cannot hang the join; reading such a stream
        afterwards raises :class:`~repro.errors.EngineError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            process, self._process = self._process, None
            # Under the lock: a stream unwatches before it closes a ring,
            # so every ring here is still open.
            for ring in self._rings:
                ring.abandon()
            self._rings.clear()
        if process is not None:
            process.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"WorkerPool(workers={self.workers}, {state})"
