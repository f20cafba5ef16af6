"""The one answers handle: paged / streamed / counted, sync *and* async.

:class:`Answers` is the handle returned by
:meth:`repro.session.Query.answers`:

* **sync**: ``page`` / ``stream`` / ``all`` / ``count`` / ``test`` /
  ``cancel`` / ``for answer in answers``;
* **async**: ``apage`` / ``astream`` / ``aall`` / ``acount`` / ``atest``
  / ``acancel`` / ``async for answer in answers`` — blocking pulls run on
  a worker thread, the loop never stalls, and cancelling the awaiting
  task propagates into the engine (pool slots are released instead of
  computing unread answers).

Semantics shared by both faces:

* answers materialize in branch-index order (shards in slice order), so
  the full sequence is byte-identical to serial enumeration;
* the handle is *pinned* to the structure version it was planned
  against: a session handle holds a version pin, so a concurrent
  commit forks the database head and leaves this handle's version
  frozen — it streams to completion byte-identically, and never raises
  :class:`repro.errors.StaleResultError`.  The pin is released the
  moment the source is exhausted (``all()`` / a drained ``stream()`` /
  ``astream()`` / a page past the end): a fully-consumed handle is
  *sealed* — complete and self-contained, serving its materialized
  answers forever — so retaining it cannot force copy-on-write forks
  on later commits.  Cancel and garbage collection release the pin
  too.  Only a *direct* structure mutation (bypassing the session)
  still raises on an unsealed handle;
* after :meth:`cancel`, every access raises
  :class:`repro.errors.CancelledResultError`; a cancelled handle never
  serves the partial prefix it may have pulled.
"""

from __future__ import annotations

import asyncio
import threading
import weakref
from itertools import islice
from typing import (
    AsyncIterator,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.pipeline import Pipeline
from repro.core.testing import test_answer
from repro.engine.executor import resolve_chunk_rows, run_branches
from repro.engine.pool import WorkerPool
from repro.engine.transport import TransferStats
from repro.errors import (
    CancelledResultError,
    EngineError,
    QueryError,
    StaleResultError,
)
from repro.session.backends import (
    ExecutionBackend,
    ExecutionPlan,
    resolve_backend,
)

Element = Hashable
Answer = Tuple[Element, ...]

DEFAULT_PAGE_SIZE = 100
# The largest batch one stream() pull materializes (a power of two).
STREAM_BATCH = 64


class Answers:
    """Unified access to one prepared query's answer sequence.

    Pulls are demand-sized: the handle reads the backend's row stream
    and takes only the rows a request needs, so ``page(i, s)``
    enumerates at most ``(i + 1) * s`` rows in-process (serial and
    sharded runs) and ``page(0, 1)`` enumerates one.  An ``auto`` handle
    serves its first ``chunk_rows`` rows in-process too, whatever the
    cost model says.  Once a process run reaches the pool, every work
    unit is submitted at once (they compute concurrently) and ships
    ``chunk_rows``-bounded chunks; laziness governs only when those
    are drained.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        backend: Optional[ExecutionBackend] = None,
        workers: Optional[int] = None,
        spec_key: Optional[tuple] = None,
        pool: Optional[WorkerPool] = None,
        chunk_rows: Optional[int] = None,
        pin=None,
        version_source=None,
        row_budget: Optional[int] = None,
        project_columns: Optional[Tuple[int, ...]] = None,
    ):
        if row_budget is not None and row_budget < 0:
            raise EngineError(
                f"row_budget must be >= 0, got {row_budget}"
            )
        self._row_budget = row_budget
        if project_columns is not None:
            project_columns = tuple(project_columns)
            if any(
                not isinstance(i, int) or i < 0 or i >= pipeline.arity
                for i in project_columns
            ):
                raise EngineError(
                    f"project_columns {project_columns!r} out of range for "
                    f"arity {pipeline.arity}"
                )
        self._project_columns = project_columns
        self._pipeline = pipeline
        self._structure = pipeline.structure
        self._version = pipeline.structure.version
        # Snapshot pinning: `pin` keeps the session from refreshing this
        # pipeline in place (commits fork instead); `version_source`
        # reports the database head's version so `stale` stays
        # informative across forks.
        self._pin = pin
        self._version_source = version_source
        self._source_version = (
            version_source() if version_source is not None else None
        )
        self._pin_finalizer = (
            weakref.finalize(self, pin.release) if pin is not None else None
        )
        self._backend = resolve_backend(backend)
        self._plan = ExecutionPlan(
            pipeline,
            workers=workers,
            spec_key=spec_key,
            pool=pool,
            chunk_rows=chunk_rows,
            transfer_stats=TransferStats(),
            row_budget=row_budget,
            project_columns=project_columns,
        )
        self._answers: List[Answer] = []
        self._source: Optional[Iterator[Answer]] = None
        self._count: Optional[int] = None
        self._done = False
        self._sealed = False
        self._answer_set: Optional[set] = None
        self._cancelled = False
        # Async machinery (created lazily on first awaitable access).
        self._alock: Optional[asyncio.Lock] = None
        self._sync = threading.Lock()
        self._pull_active = False
        self._cancel_requested = False

    # -- introspection -------------------------------------------------

    @property
    def backend(self) -> str:
        """The requested strategy name (``auto`` until forced)."""
        return self._backend.name

    @property
    def backend_used(self) -> Optional[str]:
        """The concrete mode enumeration ran under (None before any pull,
        ``"serial"`` for trivial pipelines)."""
        return self._plan.used_mode

    @property
    def count_backend_used(self) -> Optional[str]:
        """The concrete mode the count ran under (None before count())."""
        return self._plan.used_count_mode

    @property
    def transport_used(self) -> Optional[str]:
        """The answer transport of the last run (``"columnar"`` in
        process mode, ``"none"`` for in-process zero-copy, ``None``
        before any pull)."""
        return self._plan.used_transport

    @property
    def transport_stats(self):
        """Received-bytes accounting of the columnar transport
        (:class:`repro.engine.transport.TransferStats`; zeros for
        in-process modes)."""
        return self._plan.transfer_stats

    @property
    def execution(self) -> ExecutionPlan:
        """The plan this handle runs, which records what ran (the mode
        used and the transfer stats).  It holds no version pin, so a
        caller may keep it after dropping the handle."""
        return self._plan

    # -- liveness ------------------------------------------------------

    def _check_live(self) -> None:
        if self._cancelled:
            raise CancelledResultError("this answers handle was cancelled")
        if self._sealed:
            # Complete and self-contained: the answers are materialized
            # and the pin is gone, so later commits — which may refresh
            # the shared pipeline in place — cannot perturb what this
            # handle serves.
            return
        if self._structure.version != self._version:
            # Session commits can never move a pinned handle's structure
            # (they fork the head instead); only a direct mutation — or,
            # for an un-pinned handle, an in-place commit — lands here.
            raise StaleResultError(
                "the structure changed after this handle was created "
                f"(version {self._version} -> {self._structure.version}); "
                "re-run the query"
            )
        if (
            self._pin is None
            and self._version_source is not None
            and self._version_source() != self._source_version
        ):
            # An un-pinned handle whose plan a failed commit dropped: the
            # revert put the version back, the database's epoch moved.
            raise StaleResultError(
                "a failed commit dropped the plan this handle streams; "
                "re-run the query"
            )

    @property
    def stale(self) -> bool:
        """Whether the database moved past this handle's version.

        A pinned session handle keeps serving its version byte-
        identically even when stale — staleness is informative, not an
        error.
        """
        if self._structure.version != self._version:
            return True
        if self._version_source is not None:
            return self._version_source() != self._source_version
        return False

    @property
    def pinned(self) -> bool:
        """True while this handle holds a version pin on its session."""
        return self._pin is not None and not self._pin.released

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def row_budget(self):
        """The early-stop bound this handle was created with (``None``
        = unbudgeted): it serves at most this many answers."""
        return self._row_budget

    @property
    def project_columns(self):
        """The SELECT-list pushdown this handle was created with
        (``None`` = full answer tuples): each served row keeps only
        these answer columns, in this order."""
        return self._project_columns

    # -- lazy production -----------------------------------------------

    def _ensure_source(self) -> None:
        if self._source is None and not self._done:
            self._source = self._backend.run(self._plan)

    def _pull(self, needed: Optional[int]) -> None:
        """Materialize answers until ``needed`` are held (``None``: all);
        the source enumerates only the rows taken."""
        self._ensure_source()
        if self._done:
            return
        wanted = None if needed is None else needed - len(self._answers)
        if wanted is not None and wanted <= 0:
            return
        assert self._source is not None
        before = len(self._answers)
        try:
            self._answers.extend(
                self._source if wanted is None else islice(self._source, wanted)
            )
        except BaseException:
            # A worker failure mid-production leaves a dead generator
            # and an unusable prefix; reset so a retry re-executes
            # from scratch instead of serving partial answers as if
            # they were complete.
            self._source = None
            self._answers = []
            raise
        if wanted is None or len(self._answers) - before < wanted:
            self._done = True
            self._source = None
            self._seal()

    def _seal(self) -> None:
        """Exhaustion makes the handle self-contained: release the pin.

        The fork-proliferation fix — a fully-consumed handle no longer
        forces copy-on-write forks on every later commit.  The answer
        count and a membership set are fixed from the materialized list
        (enumeration partitions the answer set exactly, so both agree
        with the counting/testing algorithms at the pinned version), and
        the staleness check is retired: nothing this handle serves can
        change anymore.
        """
        if self._sealed:
            return
        self._sealed = True
        if self._count is None:
            self._count = len(self._answers)
        self._answer_set = set(self._answers)
        self._release_pin()

    # -- the synchronous access paths ----------------------------------

    def page(self, index: int, size: int = DEFAULT_PAGE_SIZE) -> List[Answer]:
        """The ``index``-th page (0-based) of ``size`` answers.

        Liveness comes first: a cancelled (or stale) handle raises its
        liveness error even for malformed page arguments, so sealed,
        unsealed, and cancelled handles present one error contract.
        """
        self._check_live()
        if index < 0 or size < 1:
            raise EngineError(
                f"bad page request (index={index}, size={size})"
            )
        self._pull((index + 1) * size)
        return self._answers[index * size : (index + 1) * size]

    def stream(self) -> Iterator[Answer]:
        """Yield answers one by one; staleness is re-checked per answer.

        Production runs at most :data:`STREAM_BATCH` rows ahead of the
        consumer: each pull materializes one batch, which starts at one
        row (the first answer costs one row of enumeration) and doubles
        up to that bound.  The bound is a power of two, so the pulls end
        at rows 1, 2, 4, ..., 64 and then every 64 rows: a consumer that
        takes a power-of-two prefix (a served cursor's 256-row page)
        enumerates exactly that many rows.
        """
        position = 0
        while True:
            self._check_live()
            if position < len(self._answers):
                yield self._answers[position]
                position += 1
            elif self._done:
                return
            else:
                batch = min(max(position, 1), STREAM_BATCH)
                self._pull(position + batch)

    def all(self) -> List[Answer]:
        """Materialize and return every answer (serial order)."""
        self._check_live()
        self._pull(None)
        return list(self._answers)

    def count(self) -> int:
        """``|q(A)|`` via the counting algorithm (no enumeration).

        The backend counts in-process with
        :func:`repro.core.counting.count_answers` over this handle's
        pipeline, whatever it enumerates with: a count never starts or
        submits to the session pool.  Cached: the
        handle is pinned to one structure version (any mutation raises),
        so the count can never go stale.  After :meth:`cancel` this raises
        :class:`repro.errors.CancelledResultError` — it never computes
        from, or returns, a partially pulled handle.
        """
        self._check_live()
        if self._count is None:
            if self._row_budget is not None:
                # A budgeted handle counts what it *serves*:
                # min(|q(A)|, budget).  Materializing is O(budget) rows
                # thanks to the early-stop path, and seals the handle.
                self._pull(None)
                self._count = len(self._answers)
            else:
                self._count = self._backend.count(self._plan)
        return self._count

    def test(self, candidate: Sequence[Element]) -> bool:
        """Constant-time membership test against this query.

        A sealed handle answers from its materialized answer set (the
        shared pipeline may since have been maintained past this
        handle's version) with the same error contract as the testing
        algorithm: :class:`~repro.errors.QueryError` on arity mismatch
        or out-of-domain elements.  A *budgeted* handle serves only its
        first ``row_budget`` answers, so membership means "in the
        served prefix" — it materializes (O(budget)) and checks that.
        """
        self._check_live()
        if self._row_budget is not None or self._project_columns is not None:
            # Budgeted / projected handles serve a derived row sequence;
            # membership is against the rows actually served, so
            # materialize and answer from the sealed set.
            self._pull(None)
        if self._sealed:
            candidate = tuple(candidate)
            arity = (
                len(self._project_columns)
                if self._project_columns is not None
                else self._pipeline.arity
            )
            if len(candidate) != arity:
                raise QueryError(
                    f"expected a {arity}-tuple, got "
                    f"{len(candidate)}-tuple"
                )
            for element in candidate:
                if element not in self._structure:
                    raise QueryError(
                        f"element {element!r} is not in the domain"
                    )
            assert self._answer_set is not None
            return candidate in self._answer_set
        return test_answer(self._pipeline, candidate)

    def cancel(self) -> None:
        """Stop producing; subsequent access raises CancelledResultError.

        Safe to call from any thread, including while an async pull is in
        flight on a worker thread: the handle is marked cancelled
        immediately (later accesses raise), but closing the branch
        generator — which cannot happen while it is executing — is
        deferred until that pull retires.
        """
        if self._cancelled:
            return
        self._cancelled = True
        self._release_pin()
        with self._sync:
            if self._pull_active:
                self._cancel_requested = True
                return
        self._close_source()

    def _release_pin(self) -> None:
        """Give the version pin back to the session (idempotent)."""
        pin, self._pin = self._pin, None
        if self._pin_finalizer is not None:
            self._pin_finalizer.detach()
            self._pin_finalizer = None
        if pin is not None:
            pin.release()

    def _close_source(self) -> None:
        source, self._source = self._source, None
        if source is not None and hasattr(source, "close"):
            source.close()

    def __iter__(self) -> Iterator[Answer]:
        return self.stream()

    # -- the awaitable access paths ------------------------------------
    #
    # One lock serializes async access: the sync pull path is not
    # re-entrant, and one query's answers arrive in one order anyway.
    # Concurrency across *different* handles is the intended scaling
    # axis.  Cancellation must never run concurrently with a pull (the
    # branch generator cannot be closed while executing), so a cancel
    # arriving during an in-flight pull is deferred to its retirement.

    def _async_lock(self) -> asyncio.Lock:
        if self._alock is None:
            self._alock = asyncio.Lock()
        return self._alock

    async def _acall(self, fn, *args):
        async with self._async_lock():
            loop = asyncio.get_running_loop()
            with self._sync:
                self._pull_active = True
            future = loop.run_in_executor(None, self._pull_wrapper, fn, args)
            try:
                # shield: a task cancellation must not cancel the inner
                # future — the wrapper is guaranteed to run (and retire
                # the pull) even if it was still queued when cancelled.
                return await asyncio.shield(future)
            except asyncio.CancelledError:
                # The worker thread cannot be interrupted mid-pull;
                # request cancellation — it lands the moment the
                # in-flight pull retires, releasing its pool futures.
                self._cancel_quietly()
                # The abandoned pull's outcome is intentionally unread.
                future.add_done_callback(
                    lambda f: f.exception() if not f.cancelled() else None
                )
                raise

    def _pull_wrapper(self, fn, args):
        """Run one blocking pull; honor a cancel deferred while it ran."""
        try:
            return fn(*args)
        finally:
            with self._sync:
                self._pull_active = False
                requested = self._cancel_requested
                self._cancel_requested = False
            if requested:
                self._close_source()

    def _cancel_quietly(self) -> None:
        """Cancel without raising (cancel() defers past in-flight pulls)."""
        try:
            self.cancel()
        except Exception:  # pragma: no cover - cancel() does not raise today
            pass

    async def apage(
        self, index: int, size: int = DEFAULT_PAGE_SIZE
    ) -> List[Answer]:
        """The ``index``-th page, pulled off-loop."""
        return await self._acall(self.page, index, size)

    async def aall(self) -> List[Answer]:
        """Every answer (serial order), pulled off-loop."""
        return await self._acall(self.all)

    async def acount(self) -> int:
        """``|q(A)|`` via the (possibly parallel) counting engine."""
        return await self._acall(self.count)

    async def atest(self, candidate: Sequence[Element]) -> bool:
        """Constant-time membership test, off-loop."""
        return await self._acall(self.test, candidate)

    def astream(
        self, page_size: int = DEFAULT_PAGE_SIZE
    ) -> "_AnswerStream":
        """An async iterator over the answers; pulls happen a page at a
        time (off-loop).

        Abandoning the stream (``break``, task cancellation, ``aclose``)
        cancels the handle — a partially consumed stream does not keep
        pool workers busy, and its version pin is released the moment
        the abandonment is observable: a ``CancelledError`` landing in a
        pull releases it before propagating, and a task cancelled while
        the iterator sits *between* pulls releases it when the dead
        task's frame drops the iterator (synchronous refcount
        finalization — not the event loop's lazily-scheduled
        async-generator cleanup, which used to leak the pin until loop
        shutdown).  A fully drained stream seals the handle instead.
        """
        return _AnswerStream(self, page_size)

    def _abandoned_stream(self) -> None:
        """Release an abandoned :meth:`astream` iterator's hold.

        Called from the iterator's finalizer (any thread) and from its
        error paths; a sealed or already-cancelled handle needs nothing
        — cancelling a *sealed* handle would only revoke answers it can
        serve forever.
        """
        if not self._sealed and not self._cancelled:
            self._cancel_quietly()

    async def acancel(self) -> None:
        """Cancel the handle (deferred past any in-flight pull)."""
        async with self._async_lock():
            self._cancel_quietly()

    def __aiter__(self) -> AsyncIterator[Answer]:
        return self.astream()


class _AnswerStream:
    """The async iterator behind :meth:`Answers.astream`.

    A dedicated iterator object instead of an async generator, because
    abandonment must be *deterministic*: an abandoned async generator's
    ``finally`` runs only when the event loop gets around to its
    scheduled ``aclose()`` (or at ``shutdown_asyncgens``), which left
    the handle's version pin held long after the consuming task was
    cancelled mid-iteration.  Here every abandonment path is synchronous:

    * cancellation landing in a pull is caught in :meth:`__anext__` and
      cancels the handle before re-raising;
    * a task cancelled while the iterator is suspended *between* pulls
      drops its last reference when the task's frame is destroyed — the
      ``weakref.finalize`` below then cancels the handle immediately
      (refcount finalization, no collector pass needed);
    * clean exhaustion detaches the finalizer first, so a fully drained
      stream leaves the handle sealed (pin already released), never
      cancelled.
    """

    __slots__ = (
        "_handle",
        "_page_size",
        "_index",
        "_buffer",
        "_pos",
        "_ending",
        "_finished",
        "_finalizer",
        "__weakref__",
    )

    def __init__(self, handle: Answers, page_size: int):
        if page_size < 1:
            raise EngineError(f"page_size must be >= 1, got {page_size}")
        self._handle = handle
        self._page_size = page_size
        self._index = 0
        self._buffer: List[Answer] = []
        self._pos = 0
        self._ending = False  # final (short) page pulled; drain and stop
        self._finished = False
        self._finalizer = weakref.finalize(self, handle._abandoned_stream)

    def _finish(self, cancel: bool) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._finished = True
        if cancel:
            self._handle._abandoned_stream()

    def __aiter__(self) -> "_AnswerStream":
        return self

    async def __anext__(self) -> Answer:
        if self._pos < len(self._buffer):
            answer = self._buffer[self._pos]
            self._pos += 1
            return answer
        if self._finished or self._ending:
            self._finish(cancel=False)
            raise StopAsyncIteration
        handle = self._handle
        try:
            page = await handle._acall(handle.page, self._index, self._page_size)
        except BaseException:
            # CancelledError from a torn-down task, StaleResultError,
            # worker failures — the stream is over either way; release
            # the handle's hold before propagating.
            self._finish(cancel=True)
            raise
        self._index += 1
        if len(page) < self._page_size:
            self._ending = True
        if not page:
            self._finish(cancel=False)
            raise StopAsyncIteration
        self._buffer = page
        self._pos = 1
        return page[0]

    async def aclose(self) -> None:
        """Close the stream; cancels the handle unless fully drained."""
        if self._finished:
            return
        drained = self._ending and self._pos >= len(self._buffer)
        self._finish(cancel=not drained)


class EncodedAnswers:
    """One query's answers as *encoded* columnar wire chunks.

    The substrate of the serve tier's ``wire="columnar"`` cursors:
    :meth:`chunks` yields the byte buffers produced by
    :func:`repro.engine.executor.run_branches` with ``encoded=True`` —
    in process mode they come straight off the workers, never decoded
    in this process (``transport_stats.rows`` stays 0), so a server can
    forward them worker→socket.  The receiving side rebuilds rows with
    ``ColumnarCodec(InternTable(intern_elements))``; concatenated, they
    equal the serial enumeration order exactly.

    Pin semantics match :class:`Answers`: the handle holds a version
    pin, released on exhaustion, :meth:`close`, or garbage collection —
    never leaked.  The stream is forward-only and single-consumer.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        workers: Optional[int] = None,
        spec_key: Optional[tuple] = None,
        pool: Optional[WorkerPool] = None,
        chunk_rows: Optional[int] = None,
        pin=None,
    ):
        self._pipeline = pipeline
        self._workers = workers
        self._spec_key = spec_key
        self._pool = pool
        self._requested_chunk_rows = chunk_rows
        self._stats = TransferStats()
        self._pin = pin
        self._pin_finalizer = (
            weakref.finalize(self, pin.release) if pin is not None else None
        )
        self._source: Optional[Iterator[bytes]] = None
        self._closed = False
        self._exhausted = False

    # -- introspection -------------------------------------------------

    @property
    def columns(self) -> Tuple[str, ...]:
        """Answer column names, in row order."""
        return tuple(v.name for v in self._pipeline.variables)

    @property
    def arity(self) -> int:
        return self._pipeline.arity

    @property
    def intern_elements(self) -> list:
        """The intern table's element list, in id order — ship this once
        (it is the entire decode context a receiver needs)."""
        return list(self._pipeline.intern_table.elements)

    @property
    def chunk_rows(self) -> int:
        """The resolved per-chunk row bound."""
        return resolve_chunk_rows(self._pipeline, self._requested_chunk_rows)

    @property
    def transport_stats(self) -> TransferStats:
        """Byte/chunk accounting; ``rows`` counts *decoded* rows and
        stays 0 on the passthrough path — the acceptance observable."""
        return self._stats

    @property
    def pinned(self) -> bool:
        return self._pin is not None and not self._pin.released

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    # -- the stream ----------------------------------------------------

    def next_chunk(self) -> Optional[bytes]:
        """The next encoded chunk, or ``None`` at end of stream
        (blocking; run off-loop in async servers)."""
        if self._closed:
            raise EngineError("this EncodedAnswers stream is closed")
        if self._exhausted:
            return None
        if self._source is None:
            self._source = run_branches(
                self._pipeline,
                workers=self._workers,
                spec_key=self._spec_key,
                pool=self._pool,
                chunk_rows=self._requested_chunk_rows,
                transfer_stats=self._stats,
                encoded=True,
            )
        try:
            return next(self._source)
        except StopIteration:
            self._exhausted = True
            self._source = None
            self._release_pin()
            return None
        except BaseException:
            self.close()
            raise

    def chunks(self) -> Iterator[bytes]:
        """Iterate the encoded chunks (single consumer, forward only)."""
        while True:
            buf = self.next_chunk()
            if buf is None:
                return
            yield buf

    # -- lifecycle -----------------------------------------------------

    def _release_pin(self) -> None:
        pin, self._pin = self._pin, None
        if self._pin_finalizer is not None:
            self._pin_finalizer.detach()
            self._pin_finalizer = None
        if pin is not None:
            pin.release()

    def close(self) -> None:
        """Stop producing and release the version pin.  Idempotent.

        Abandons any un-pulled work units (their pool futures are
        cancelled through the source generator's close).
        """
        if self._closed:
            return
        self._closed = True
        source, self._source = self._source, None
        if source is not None:
            source.close()
        self._release_pin()

    def __enter__(self) -> "EncodedAnswers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = (
            "closed"
            if self._closed
            else ("exhausted" if self._exhausted else "open")
        )
        return (
            f"EncodedAnswers(arity={self.arity}, "
            f"chunks={self._stats.chunks}, {state})"
        )
