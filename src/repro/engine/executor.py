"""Branch-parallel execution of a prepared pipeline.

The branch decomposition ``(P, t)`` of Proposition 3.4 is embarrassingly
parallel: branches are mutually exclusive by construction and each one
enumerates independently over the colored graph.  This module farms the
branches of one pipeline out to a pool of worker processes and merges
the per-branch outputs *deterministically* — results are always
consumed in branch-index order, so the merged stream is byte-identical
to the serial :func:`repro.core.enumeration.enumerate_answers` order.

Pool selection follows the cost-model heuristic
(:func:`repro.storage.cost_model.choose_execution_mode`), applied to an
automatic run only once its serial *head* (its first chunk of rows) has
been served:

* ``serial`` — small and medium workloads, and any workload whose
  answer transfer would eat the speedup; enumeration runs in the caller;
* ``process`` — large structures; each worker rebuilds the pipeline once
  from a picklable spec (memoized per process) and enumeration scales
  past the GIL.

:func:`parallel_enumerate` is the one producer of answer rows: in
serial mode it chains the lazy branch generators, so a consumer that
reads ``k`` rows enumerates ``k``.  An automatic run serves its head
serially too and, when the heuristic says ``process``, hands the pool
only the rest, from where the head stopped.  :func:`run_branches` is
the one producer of answer chunks, for the places where bytes cross a
boundary (process workers, and the encoded wire with
``encoded=True``): every mode, trivial pipelines, row budgets and
projection included, yields one stream of chunks of at most
:func:`resolve_chunk_rows` rows.  Every submission goes through a
:class:`~repro.engine.pool.WorkerPool` (the caller's, or one scoped to
the call).
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass
from itertools import chain, islice
from typing import Generator, Hashable, Iterator, List, Optional, Tuple

from repro.core.enumeration import (
    arm_enumerator,
    enumerate_branch,
    trivial_answers,
)
from repro.core.pipeline import Pipeline
from repro.engine.mailbox import (
    ChunkMailbox,
    MailboxAbandoned,
    mailbox_available,
    mailbox_capacity,
)
from repro.engine.pool import WorkerPool, default_workers
from repro.engine.transport import (
    ColumnarCodec,
    TransferStats,
    encode_answers,
    split_chunks,
    width_for,
)
from repro.errors import EngineError
from repro.storage.cost_model import (
    COLUMNAR_BYTES_PER_VALUE,
    choose_execution_mode,
    default_chunk_rows,
    estimate_branch_work,
    estimate_transfer_work,
)

Element = Hashable
Answer = Tuple[Element, ...]

MODES = ("serial", "process")


@dataclass(frozen=True)
class BranchTask:
    """One picklable unit of parallel work: a branch shard of a pipeline.

    ``spec`` is the pipeline's rebuild recipe
    (:meth:`repro.core.pipeline.Pipeline.rebuild_spec`) and ``spec_key``
    a hashable identity for it, so worker processes reconstruct the
    pipeline once and serve every shard of the same query from the
    per-process memo.  ``start``/``stop`` bound the branch's outermost
    iteration (``(0, None)`` = the whole branch).
    """

    spec: tuple
    spec_key: tuple
    branch_index: int
    start: int = 0
    stop: Optional[int] = None
    # Chunk bound (resolved parent-side; read only by
    # run_branch_task_encoded).
    chunk_rows: Optional[int] = None
    # Projection pushdown (the qlang SELECT-list fusion): answer columns
    # to keep, applied in the worker *before* encoding, so dropped
    # columns never cross the process boundary.  Duplicates are kept —
    # projection is 1:1 row-preserving.
    project: Optional[Tuple[int, ...]] = None
    # Streaming-transfer mailbox ``(shared_memory_name, capacity)``: when
    # set, run_branch_task_encoded appends each encoded chunk to the ring
    # as it enumerates instead of returning the chunk list on the future
    # (which then carries only a completion summary).
    mailbox: Optional[Tuple[str, int]] = None

    @property
    def label(self) -> str:
        """Stable work-unit name for per-source transfer accounting."""
        stop = "" if self.stop is None else self.stop
        return f"b{self.branch_index}[{self.start}:{stop}]"


# Per-worker-process pipeline memo, keyed by BranchTask.spec_key.  Lives
# at module level so pool worker processes keep it across tasks; bounded
# so a long-lived pool serving many structures/queries cannot grow
# without limit (each entry pins a full colored graph).
_WORKER_MEMO_CAPACITY = 8
_WORKER_PIPELINES: "dict" = {}


def _worker_pipeline(task: BranchTask) -> Pipeline:
    pipeline = _WORKER_PIPELINES.pop(task.spec_key, None)
    if pipeline is None:
        structure, query, variables, budget, intern = task.spec
        pipeline = Pipeline(
            structure, query, order=variables, budget=budget, intern=intern
        )
        while len(_WORKER_PIPELINES) >= _WORKER_MEMO_CAPACITY:
            _WORKER_PIPELINES.pop(next(iter(_WORKER_PIPELINES)))
    # (Re-)append: insertion order stays ~LRU.
    _WORKER_PIPELINES[task.spec_key] = pipeline
    return pipeline


def _project_rows(rows, project: Optional[Tuple[int, ...]]):
    """Keep only the ``project`` columns of each row (lazily)."""
    if project is None:
        return rows
    return (tuple(row[i] for i in project) for row in rows)


def _unit_rows(pipeline: Pipeline, unit, project):
    """One work unit's answers, projected (lazily)."""
    branch_index, start, stop = unit
    outer_slice = None if start == 0 and stop is None else (start, stop)
    return _project_rows(
        enumerate_branch(pipeline, branch_index, outer_slice=outer_slice),
        project,
    )


def run_branch_task_encoded(task: BranchTask):
    """Entry point executed inside a worker process.

    The shard comes back as bounded columnar buffers (``task.chunk_rows``
    rows each) over the pipeline's intern table — the parent decodes
    (or forwards) them one at a time, so its first page never waits on
    the whole shard's serialization.

    With ``task.mailbox`` set, each buffer is appended to the shared
    -memory ring *as enumeration produces it* (true streaming transfer:
    the parent reads the first chunk while this worker is still
    enumerating) and the return value is a completion summary dict
    (``{"chunks", "rows", "finished"}``).  A unit whose ring is already
    gone — the parent unlinks it when the stream closes, so the unit
    started after that — builds and enumerates nothing and returns an
    empty summary with ``"abandoned": True``.  If shared memory is
    unavailable from this worker's side, the chunk list comes back on
    the future instead — the parent detects that by the result type.
    """
    ring = None
    if task.mailbox is not None:
        name, capacity = task.mailbox
        try:
            ring = ChunkMailbox(name=name, capacity=capacity)
        except FileNotFoundError:
            # Nobody reads this unit: its stream closed before it began.
            return {
                "chunks": 0,
                "rows": 0,
                "finished": time.monotonic(),
                "abandoned": True,
            }
        except Exception:
            # No shared memory from this worker's side: the chunk list
            # rides the future (the parent decodes it after completion;
            # `done` never gets set on the ring).
            pass
    chunks = 0
    produced = 0
    try:
        pipeline = _worker_pipeline(task)
        codec = ColumnarCodec(pipeline.intern_table)
        rows = _unit_rows(
            pipeline, (task.branch_index, task.start, task.stop), task.project
        )
        if ring is None:
            return encode_answers(rows, codec, task.chunk_rows)
        for chunk in split_chunks(rows, task.chunk_rows):
            ring.put(codec.encode(chunk))
            chunks += 1
            produced += len(chunk)
        ring.finish()
    except MailboxAbandoned:
        # Parent cancelled the query; what streamed already is enough.
        pass
    finally:
        if ring is not None:
            ring.close()
    return {"chunks": chunks, "rows": produced, "finished": time.monotonic()}


def warm_task(task: BranchTask) -> bool:
    """Rebuild (and memoize) the pipeline in a worker, producing nothing.

    Submitting ``workers`` of these before timing/serving queries moves
    the per-process preprocessing cost out of the request path — the
    service regime, where one long-lived pool answers many queries.
    """
    _worker_pipeline(task)
    return True


def warm_pool(
    pool: WorkerPool,
    pipeline: Pipeline,
    workers: int,
    spec_key: Optional[tuple] = None,
) -> None:
    """Pre-build the pipeline on (up to) every worker of a process pool."""
    if pipeline.trivial is not None:
        return
    if spec_key is None:
        spec_key = _default_spec_key(pipeline)
    task = BranchTask(pipeline.rebuild_spec(), spec_key, 0)
    futures = [pool.submit("process", warm_task, task) for _ in range(workers)]
    for future in futures:
        future.result()


def branch_works(pipeline: Pipeline) -> List[int]:
    """Estimated work per branch (the heuristic's input)."""
    if pipeline.graph is None:  # trivial (or template) pipelines
        return []
    degree = pipeline.graph.max_degree
    return [
        estimate_branch_work(
            [len(node_list) for node_list in branch.lists], degree
        )
        for branch in pipeline.branches
    ]


def transfer_works(pipeline: Pipeline, lanes: Optional[int] = None) -> List[int]:
    """Estimated per-branch cost of shipping answers to the parent.

    Only process mode pays it; the columnar codec moves a bounded few
    bytes per value, so the cost model can decline process mode exactly
    when serialization would eat the speedup.

    ``lanes`` models the streaming overlap: with the shared-memory chunk
    mailbox, a branch split across ``lanes`` work units ships while the
    other units still enumerate, so the serialized parent-side cost is
    the overlapped critical path (largest share plus the amortized
    rest), not the plain sum.  Without it, a large-but-well-sharded
    workload would be misranked as transfer-bound and pushed off the
    process backend it actually benefits from.
    """
    if pipeline.graph is None:  # trivial (or template) pipelines
        return []
    # Intern-id width follows from the domain size alone — don't force
    # the intern table just to estimate (serial plans never build
    # it).
    id_width = width_for(max(pipeline.structure.cardinality - 1, 0))
    bytes_per_value = min(COLUMNAR_BYTES_PER_VALUE, id_width)
    shard_sizes = None
    if lanes is not None and lanes > 1 and mailbox_available():
        # The executor slices heavy branches into roughly equal work
        # units; equal shares are the right overlap model here.
        shard_sizes = [1] * lanes
    return [
        estimate_transfer_work(
            [len(node_list) for node_list in branch.lists],
            pipeline.arity,
            bytes_per_value,
            shard_sizes=shard_sizes,
        )
        for branch in pipeline.branches
    ]


def resolve_chunk_rows(pipeline: Pipeline, chunk_rows: Optional[int]) -> int:
    """The effective chunk bound (cost-model default)."""
    if chunk_rows is not None:
        if chunk_rows < 1:
            raise EngineError(f"chunk_rows must be >= 1, got {chunk_rows}")
        return chunk_rows
    id_width = width_for(max(pipeline.structure.cardinality - 1, 0))
    return default_chunk_rows(pipeline.arity, id_width)


def _check_mode(workers: Optional[int], mode: Optional[str]) -> None:
    if workers is not None and workers < 1:
        raise EngineError(f"workers must be >= 1, got {workers}")
    if mode is not None and mode not in MODES:
        raise EngineError(f"unknown execution mode {mode!r}; choose from {MODES}")


def decide_mode(
    pipeline: Pipeline,
    workers: Optional[int] = None,
    mode: Optional[str] = None,
) -> Tuple[str, int]:
    """Resolve ``(mode, workers)`` for a pipeline, applying the heuristic.

    The enumeration heuristic weighs the answer-transfer term: a
    workload whose estimated serialization cost dominates its compute
    stays serial (zero-copy) even past the process threshold.  Trivial
    pipelines always resolve to ``("serial", 1)``.
    """
    _check_mode(workers, mode)
    if workers is None:
        workers = default_workers()
    if pipeline.trivial is not None:
        # A constant query has no branches to split: its answers (all
        # tuples, or none) come straight from the parent.
        mode = "serial"
    elif mode is None:
        mode = choose_execution_mode(
            branch_works(pipeline),
            workers,
            transfer_work=sum(transfer_works(pipeline, workers)),
        )
    if mode == "serial":
        workers = 1
    return mode, workers


def decide_count_mode(
    pipeline: Pipeline, workers: Optional[int] = None, mode: Optional[str] = None
) -> Tuple[str, int]:
    """``("serial", 1)`` for every valid request: a count always runs
    in-process over the caller's pipeline (Theorem 2.5).  A pooled count
    pickled the structure into every branch task and rebuilt the
    pipeline in every worker, for one work unit per branch, and lost to
    the serial count at every size measured.  The function stays
    because ``ledger/layers.py`` traces it by name."""
    _check_mode(workers, mode)
    return "serial", 1


def _default_spec_key(pipeline: Pipeline) -> tuple:
    from repro.structures.serialize import fingerprint

    budget = pipeline.budget
    return (
        fingerprint(pipeline.structure),
        str(pipeline.query),
        tuple(v.name for v in pipeline.variables),
        None if budget is None else (
            budget.max_radius, budget.max_count_split, budget.max_derived
        ),
    )


WorkUnit = Tuple[int, int, Optional[int]]  # (branch_index, start, stop)


def plan_work_units(
    pipeline: Pipeline, workers: int, start: Tuple[int, int] = (0, 0)
) -> List[WorkUnit]:
    """Split the pipeline's branches into balanced shards.

    Branch-level splitting alone load-balances poorly: on symmetric
    queries the all-far partition's branch often carries nearly all the
    answers.  A branch whose estimated work exceeds the per-worker
    target is therefore sharded along its outermost iteration
    (:meth:`BranchEnumerator.outer_size`), keeping shards contiguous so
    the ordered merge stays exact.  Units are returned in
    ``(branch, start)`` order — concatenating their outputs reproduces
    the serial answer order.

    ``start=(branch, position)`` plans only the work from that outer
    position of that branch on — where an ``auto`` run's serial head
    stopped — so the units continue the serial order without repeating
    a row of the head.
    """
    first_branch, first_position = start
    works = branch_works(pipeline)
    if first_position:
        # Only the rest of the resumed branch is left to do.
        size = arm_enumerator(pipeline, first_branch).outer_size()
        works[first_branch] = works[first_branch] * (size - first_position) // size
    total = sum(works[first_branch:])
    units: List[WorkUnit] = []
    # Aim for ~2 units per worker so stragglers back-fill.
    target = max(total // (2 * workers), 1)
    for branch_index in range(first_branch, len(works)):
        work = works[branch_index]
        low = first_position if branch_index == first_branch else 0
        if work <= target or workers <= 1:
            units.append((branch_index, low, None))
            continue
        # Sharding granularity comes from the armed enumerator (the one
        # the work units then enumerate with).
        size = arm_enumerator(pipeline, branch_index).outer_size()
        shards = min(-(-work // target), 4 * workers, size - low)
        if shards <= 1:
            units.append((branch_index, low, None))
            continue
        bound = low
        for shard in range(shards):
            begin = bound
            bound = low + (size - low) * (shard + 1) // shards
            units.append((branch_index, begin, bound))
    return units


def _pool_scope(pool: Optional[WorkerPool], workers: int):
    """The caller's pool as-is, or a pool that lives for one call."""
    if pool is not None:
        return contextlib.nullcontext(pool)
    return WorkerPool(workers)


def _budgeted(chunks: Generator, budget: int) -> Iterator[List[Answer]]:
    """Truncate a chunk stream after ``budget`` rows, closing the source.

    Closing the inner generator raises ``GeneratorExit`` inside it, which
    the process drain translates into ``future.cancel()`` — work units
    the consumer will never read are abandoned instead of computed.  The
    final chunk is cut to size so the flattened stream holds exactly
    ``min(total, budget)`` answers.
    """
    remaining = budget
    try:
        for chunk in chunks:
            if len(chunk) >= remaining:
                yield chunk[:remaining]
                return
            remaining -= len(chunk)
            if chunk:
                yield chunk
    finally:
        chunks.close()


def _row_budgeted(rows: Generator, budget: int) -> Iterator[Answer]:
    """The first ``budget`` rows; then close the source, which cancels
    the work units nobody will read."""
    try:
        yield from islice(rows, budget)
    finally:
        rows.close()


def _unit_result(future):
    """A work unit's result; raises the worker's error, and
    :class:`EngineError` for a unit a pool shutdown cancelled."""
    try:
        return future.result()
    except CancelledError:
        raise EngineError(
            "the worker pool was closed while this stream was open"
        ) from None


# Parent-side poll cadence while a mailbox is empty but its unit is
# still running (seconds); backs off to keep an idle drain cheap.
_DRAIN_POLL_MIN = 0.0002
_DRAIN_POLL_MAX = 0.005


def _yield_encoded_mailboxed(
    entries,
    codec: Optional[ColumnarCodec],
    transfer_stats: Optional[TransferStats],
    pool: WorkerPool,
):
    """Drain process-mode work units in submission order.

    ``entries`` is a list of ``(future, mailbox_or_None, label)``.  Each
    unit's ring is polled while its worker enumerates, so the first
    chunk of a heavy unit is decoded (and served) long before the
    worker's future resolves; order stays deterministic because units
    are drained in submission (= branch, slice) order.  Units whose
    ring could not be created (or whose worker could not attach — it
    then returns its chunk list) are read off the future instead.

    With a ``codec`` every buffer is decoded into a row list; without
    one the encoded buffers are forwarded as they are (``rows=0`` in
    ``transfer_stats``).  On abandonment or error every unstarted unit
    is cancelled; the caller abandons the rings.
    """

    def account(buf: bytes, label: str):
        chunk = buf if codec is None else codec.decode(buf)
        if transfer_stats is not None:
            rows = 0 if codec is None else len(chunk)
            transfer_stats.record(len(buf), rows, source=label)
        pool.record_transfer(len(buf))
        return chunk

    try:
        for future, ring, label in entries:
            finished_at: Optional[float] = None
            delay = _DRAIN_POLL_MIN
            while ring is not None:
                buf = ring.poll()
                if buf is not None:
                    delay = _DRAIN_POLL_MIN
                    yield account(buf, label)
                    continue
                if ring.done:
                    # `done` is set after the final head advance, so one
                    # more poll round has already proven the ring empty.
                    summary = _unit_result(future) if future.done() else None
                    if isinstance(summary, dict):
                        finished_at = summary.get("finished")
                    break
                if future.done():
                    result = _unit_result(future)
                    if isinstance(result, dict):
                        if ring.abandoned:
                            # Only a pool shutdown abandons a ring the
                            # drain still reads: the unit stopped early.
                            raise EngineError(
                                "the worker pool was closed while this "
                                "stream was open"
                            )
                        # Summary without the done flag visible yet: loop —
                        # the flag write precedes the future's resolution.
                        finished_at = result.get("finished")
                        if ring.done or ring.poll() is None:
                            # Defensive: never hang on a unit whose ring
                            # lost its done flag.
                            for buf in ring.drain():
                                yield account(buf, label)
                            break
                        continue
                    # The worker could not attach the ring: its chunks
                    # are on the future.
                    ring = None
                    break
                time.sleep(delay)
                delay = min(delay * 2, _DRAIN_POLL_MAX)
            if ring is None:
                for buf in _unit_result(future):
                    yield account(buf, label)
            if transfer_stats is not None:
                transfer_stats.note_done(label, at=finished_at)
    except BaseException:
        for future, _, _ in entries:
            future.cancel()
        raise


def _process_chunks(
    pipeline: Pipeline,
    workers: int,
    spec_key: Optional[tuple],
    pool: Optional[WorkerPool],
    chunk_rows: int,
    project_columns: Optional[Tuple[int, ...]],
    transfer_stats: Optional[TransferStats],
    decode: bool,
    start: Tuple[int, int] = (0, 0),
):
    """Process mode: ship the picklable spec, let each worker rebuild the
    pipeline (memoized per process under ``spec_key``) and encode its
    unit's answers; yield decoded row chunks (``decode``) or the encoded
    buffers themselves, in unit order, from the outer position
    ``start=(branch, position)`` on (see :func:`plan_work_units`)."""
    if spec_key is None:
        spec_key = _default_spec_key(pipeline)
    # Force the intern table BEFORE cutting the spec: the table then
    # ships inside every task and the decode side is this exact object
    # (counting never builds it).
    codec = ColumnarCodec(pipeline.intern_table)
    spec = pipeline.rebuild_spec()
    units = plan_work_units(pipeline, workers, start)
    # Streaming transfer: one ring per work unit (a unit whose ring
    # cannot be created rides its future).
    rings: List[Optional[ChunkMailbox]] = [None] * len(units)
    if mailbox_available():
        id_width = width_for(max(pipeline.structure.cardinality - 1, 0))
        capacity = mailbox_capacity(
            chunk_rows * max(pipeline.arity, 1) * id_width + 64
        )
        for index in range(len(units)):
            try:
                rings[index] = ChunkMailbox(create=True, capacity=capacity)
            except Exception:
                rings[index] = None
    tasks = [
        BranchTask(
            spec, spec_key, branch_index, start, stop,
            chunk_rows, project_columns,
            None if ring is None else (ring.name, ring.capacity),
        )
        for (branch_index, start, stop), ring in zip(units, rings)
    ]
    with _pool_scope(pool, workers) as active:
        # The rings are abandoned before a call-scoped pool joins its
        # workers, however the drain ends: a worker blocked on a full
        # ring only returns once its ring is abandoned.  A session pool
        # watches them, so closing it abandons a stream left open.
        active.watch(rings)
        try:
            futures = [
                active.submit("process", run_branch_task_encoded, task)
                for task in tasks
            ]
            entries = list(zip(futures, rings, [task.label for task in tasks]))
            yield from _yield_encoded_mailboxed(
                entries, codec if decode else None, transfer_stats, active
            )
        finally:
            active.unwatch(rings)
            for ring in rings:
                if ring is not None:
                    ring.abandon()
                    ring.close(unlink=True)


def _serial_sources(pipeline: Pipeline, project, start: Tuple[int, int] = (0, 0)):
    """Serial mode: each branch's lazy, projected row stream, in branch
    order, from the outer position ``start=(branch, position)`` on (a
    trivial pipeline's constant answer set is one source)."""
    if pipeline.trivial is not None:
        return [_project_rows(trivial_answers(pipeline), project)]
    first_branch, first_position = start
    return (
        _project_rows(
            enumerate_branch(
                pipeline,
                index,
                outer_slice=(
                    (first_position, None)
                    if index == first_branch and first_position
                    else None
                ),
            ),
            project,
        )
        for index in range(first_branch, len(pipeline.branches))
    )


def _serial_chunks(pipeline: Pipeline, chunk_rows: int, project):
    """Serial mode cut into chunks, one chunk enumerated per pull."""
    for rows in _serial_sources(pipeline, project):
        yield from split_chunks(rows, chunk_rows)


def _serial_head(pipeline: Pipeline, head_rows: int, project, workers, handover: list):
    """An automatic run's in-process rows.

    Rows are served serially, with the outer-position marks of
    :func:`enumerate_branch`, so the run knows where each outer position
    ends.  At the first (branch, position) boundary at or after
    ``head_rows`` rows the cost model decides (:func:`decide_mode`):
    ``serial`` serves the rest here too; ``process`` appends ``(start,
    rows served, workers)`` to ``handover`` and stops, and the work
    units continue from ``start`` (:func:`plan_work_units`).  Nothing
    past the head is decided or enumerated before the consumer pulls
    past it.
    """
    served = 0
    branches = len(pipeline.branches)
    for branch_index in range(branches):
        position = 0
        for row in enumerate_branch(pipeline, branch_index, marks=True):
            if row is not None:
                served += 1
                yield row if project is None else tuple(row[i] for i in project)
                continue
            position += 1
            if served < head_rows:
                continue
            start = (branch_index, position)
            if position == arm_enumerator(pipeline, branch_index).outer_size():
                if branch_index + 1 == branches:
                    return
                start = (branch_index + 1, 0)
            mode, workers = decide_mode(pipeline, workers)
            if mode == "process":
                handover.append((start, served, workers))
                return
            for rows in _serial_sources(pipeline, project, start):
                yield from rows
            return


def _then_pool(head: Iterator, handover: list, pooled, transfer_stats):
    """``head``'s items, then — when the serial head handed over —
    those of ``pooled(start, workers)``, the work units from where it
    stopped.  The handover is recorded as ``transfer_stats.head_rows``."""
    yield from head
    if handover:
        start, served, workers = handover[0]
        if transfer_stats is not None:
            transfer_stats.head_rows = served
        yield from pooled(start, workers)


def _flatten(chunks: Generator) -> Iterator[Answer]:
    """The rows of a chunk stream.  Closing the rows closes ``chunks``,
    which cancels every process work unit nobody will read."""
    try:
        for chunk in chunks:
            yield from chunk
    finally:
        chunks.close()


def _check_row_budget(row_budget: Optional[int]) -> None:
    if row_budget is not None and row_budget < 0:
        raise EngineError(f"row_budget must be >= 0, got {row_budget}")


def _encoded(chunks, codec, transfer_stats, pool) -> Iterator[bytes]:
    """Encode row chunks parent-side, accounted like forwarded buffers."""
    for chunk in chunks:
        buf = codec.encode(chunk)
        if transfer_stats is not None:
            transfer_stats.record(len(buf), 0)
        if pool is not None:
            pool.record_transfer(len(buf))
        yield buf


def run_branches(
    pipeline: Pipeline,
    workers: Optional[int] = None,
    mode: Optional[str] = None,
    spec_key: Optional[tuple] = None,
    pool: Optional[WorkerPool] = None,
    chunk_rows: Optional[int] = None,
    transfer_stats: Optional[TransferStats] = None,
    row_budget: Optional[int] = None,
    project_columns: Optional[Tuple[int, ...]] = None,
    encoded: bool = False,
) -> Iterator:
    """Yield answer chunks, in branch-index (then slice, then chunk) order.

    The deterministic merge: regardless of which worker finishes first,
    branch ``i``'s chunks are yielded before branch ``i + 1``'s, so
    flattening reproduces the serial answer order exactly.  In every
    mode a chunk holds at most ``chunk_rows`` answers (cost-model
    default; with a ``row_budget``, at most that many too) — an upper
    bound, since a work unit's last chunk may be short, so chunk
    boundaries (not contents) can differ between modes.  Serial mode
    enumerates lazily, one chunk per pull; process mode ships columnar
    chunks that are decoded here.  Trivial pipelines always run serial.

    An automatic run (``mode=None``) first serves a serial *head*
    in-process: its first ``chunk_rows`` rows, up to the end of the
    outer position the last of them falls in.  Only when the consumer
    pulls past the head does the cost model decide (:func:`decide_mode`);
    ``process`` starts work units that continue from where the head
    stopped (:func:`plan_work_units` ``start``), so no row is enumerated
    twice and a ``row_budget`` within the head never reaches the pool.

    ``pool`` is the session-owned :class:`~repro.engine.pool.WorkerPool`:
    long-lived, lazily started, restarted after worker crashes; its
    per-process pipeline memos amortize rebuilds across every query of
    the same structure.  Without one, a pool is created and torn down
    per call.  ``transfer_stats`` receives per-chunk byte/row accounting
    for the process path (observability; the bench uses it), and the
    head's row count when an automatic run hands over to the pool.

    ``row_budget`` is the early-stop path (the qlang ``LIMIT`` fusion):
    the stream ends after exactly ``min(total, row_budget)`` answers,
    and closing it cancels every work unit the consumer will never
    read.  The budgeted prefix is byte-identical to the unbudgeted
    stream's prefix in every mode.

    ``project_columns`` keeps only those answer columns (duplicates
    preserved; rows stay 1:1 with the enumeration).  Process-mode
    workers apply it *before* encoding, so dropped columns never cross
    the process boundary — the qlang SELECT-list pushdown.

    ``encoded=True`` yields the *encoded* columnar buffers instead of
    row lists — the serve tier's wire path.  In process mode a
    worker-encoded chunk crosses the parent without ever being decoded
    (``transfer_stats`` records every chunk with ``rows=0``); serial
    chunks, the head's included, are encoded in the parent.  Every
    buffer decodes with ``ColumnarCodec(pipeline.intern_table)``.  Row
    budgets cut decoded rows, so they do not combine with ``encoded``.

    Process-mode units stream their chunks through a shared-memory
    :class:`~repro.engine.mailbox.ChunkMailbox` when the platform
    supports it: the first page of a heavy shard is decoded parent-side
    while that shard is still enumerating.  When shared memory is
    unavailable the chunks ride the future.  Answer bytes and order are
    identical either way.
    """
    head_rows = rows_per_chunk = resolve_chunk_rows(pipeline, chunk_rows)
    _check_row_budget(row_budget)
    _check_mode(workers, mode)
    if row_budget is not None:
        if encoded:
            raise EngineError("row_budget does not combine with encoded chunks")
        if row_budget == 0:
            return
        # Never enumerate more than one chunk past the budget.
        rows_per_chunk = min(rows_per_chunk, row_budget)
    codec = ColumnarCodec(pipeline.intern_table) if encoded else None

    def pooled(start, unit_workers):
        return _process_chunks(
            pipeline, unit_workers, spec_key, pool, rows_per_chunk,
            project_columns, transfer_stats, decode=not encoded, start=start,
        )

    if mode is None and pipeline.trivial is None:
        handover: list = []
        head = split_chunks(
            _serial_head(pipeline, head_rows, project_columns, workers, handover),
            rows_per_chunk,
        )
        if encoded:
            head = _encoded(head, codec, transfer_stats, pool)
        stream = _then_pool(head, handover, pooled, transfer_stats)
    else:
        mode, workers = decide_mode(pipeline, workers, mode)
        if mode == "process":
            stream = pooled((0, 0), workers)
        else:
            stream = _serial_chunks(pipeline, rows_per_chunk, project_columns)
            if encoded:
                stream = _encoded(stream, codec, transfer_stats, pool)
    yield from (stream if row_budget is None else _budgeted(stream, row_budget))


def parallel_enumerate(
    pipeline: Pipeline,
    workers: Optional[int] = None,
    mode: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    chunk_rows: Optional[int] = None,
    transfer_stats: Optional[TransferStats] = None,
    row_budget: Optional[int] = None,
    spec_key: Optional[tuple] = None,
    project_columns: Optional[Tuple[int, ...]] = None,
) -> Iterator[Answer]:
    """Enumerate ``q(A)`` as one row stream, using the branch-parallel
    engine.

    Same answers, same order as the serial
    :func:`repro.core.enumeration.enumerate_answers` — only the wall
    clock (and, in process mode, the wire format) differs.  This is the
    one row producer, and it is demand-sized in-process: serial mode
    chains the lazy per-branch generators, so pulling ``k`` rows
    enumerates ``k`` rows.  Process mode flattens the decoded worker
    chunks; the chunk is what crosses the process boundary, so
    ``chunk_rows`` bounds those chunks only.  An automatic run serves its
    head serially, row by row, and hands only the rest to the pool when
    the cost model says ``process`` (see :func:`run_branches`).  The
    arguments mean what they mean for :func:`run_branches`; closing the
    stream cancels the work units it will never read.
    """
    _check_row_budget(row_budget)
    _check_mode(workers, mode)
    head_rows = resolve_chunk_rows(pipeline, chunk_rows)  # validated in every mode

    def pooled(start, unit_workers):
        return _flatten(
            _process_chunks(
                pipeline, unit_workers, spec_key, pool,
                head_rows if row_budget is None else min(head_rows, row_budget),
                project_columns, transfer_stats, decode=True, start=start,
            )
        )

    if mode is None and pipeline.trivial is None:
        handover: list = []
        head = _serial_head(pipeline, head_rows, project_columns, workers, handover)
        rows = _then_pool(head, handover, pooled, transfer_stats)
    else:
        mode, workers = decide_mode(pipeline, workers, mode)
        if mode == "serial":
            rows = chain.from_iterable(_serial_sources(pipeline, project_columns))
            return rows if row_budget is None else islice(rows, row_budget)
        rows = pooled((0, 0), workers)
    return rows if row_budget is None else _row_budgeted(rows, row_budget)
