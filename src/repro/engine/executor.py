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
reads ``k`` rows enumerates ``k``.  :func:`run_branches` is the one
producer of encoded wire buffers (the serve tier's columnar wire), each
of at most :func:`resolve_chunk_rows` rows.  Both go through one mode
decision, serial head and handover (:func:`_stream`): an automatic run
serves its head serially and, when the heuristic says ``process``,
hands the pool only the rest, from where the head stopped.

Process mode has one transport: each work unit streams its encoded
chunks through a shared-memory :class:`~repro.engine.mailbox.ChunkMailbox`.
Without shared memory there is no process mode: an automatic run stays
serial and a forced ``process`` raises before anything is submitted.
Every submission goes through a :class:`~repro.engine.pool.WorkerPool`
(the caller's, or one scoped to the call).
"""

from __future__ import annotations

import contextlib
import time
from collections import deque
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
    # The unit's streaming-transfer mailbox ``(shared_memory_name,
    # capacity)``: run_branch_task_encoded appends each encoded chunk to
    # the ring as it enumerates (a warm-up task carries none).
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


def run_branch_task_encoded(task: BranchTask) -> dict:
    """Entry point executed inside a worker process.

    The unit's answers are cut into columnar buffers of
    ``task.chunk_rows`` rows over the pipeline's intern table, and each
    buffer is appended to the unit's shared-memory ring
    (``task.mailbox``) *as enumeration produces it*: the parent reads
    the first chunk while this worker is still enumerating.  The return
    value is a completion summary (``{"chunks", "rows", "finished"}``).
    A unit whose ring is already gone — the parent unlinks it when the
    stream closes, so the unit started after that — builds and
    enumerates nothing and returns an empty summary with
    ``"abandoned": True``.  Any other failure to attach the ring is
    raised to the parent.
    """
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
    chunks = 0
    produced = 0
    try:
        pipeline = _worker_pipeline(task)
        codec = ColumnarCodec(pipeline.intern_table)
        rows = _unit_rows(
            pipeline, (task.branch_index, task.start, task.stop), task.project
        )
        for chunk in split_chunks(rows, task.chunk_rows):
            ring.put(codec.encode(chunk))
            chunks += 1
            produced += len(chunk)
        ring.finish()
    except MailboxAbandoned:
        # Parent cancelled the query; what streamed already is enough.
        pass
    finally:
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


def transfer_works(pipeline: Pipeline, lanes: int) -> List[int]:
    """Estimated per-branch cost of shipping answers to the parent.

    Only process mode pays it; the columnar codec moves a bounded few
    bytes per value, so the cost model can decline process mode exactly
    when serialization would eat the speedup.

    ``lanes`` (the worker count) models the streaming overlap: each of
    the roughly equal work units ships through its mailbox while the
    others still enumerate.
    """
    if pipeline.graph is None:  # trivial (or template) pipelines
        return []
    # Intern-id width follows from the domain size alone — don't force
    # the intern table just to estimate (serial plans never build
    # it).
    id_width = width_for(max(pipeline.structure.cardinality - 1, 0))
    bytes_per_value = min(COLUMNAR_BYTES_PER_VALUE, id_width)
    return [
        estimate_transfer_work(
            [len(node_list) for node_list in branch.lists],
            pipeline.arity,
            bytes_per_value,
            lanes,
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
    pipelines always resolve to ``("serial", 1)``.  Without shared
    memory (process mode's one transport) the heuristic's ``process``
    becomes ``serial``, and a forced ``process`` raises.
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
        if mode == "process" and not mailbox_available():
            mode = "serial"
    elif mode == "process" and not mailbox_available():
        raise EngineError(
            "process mode is unavailable: its work units stream through "
            "shared memory, and multiprocessing.shared_memory cannot "
            "create a segment here (is /dev/shm writable?)"
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

    ``entries`` yields ``(future, mailbox, label)`` per unit.  Each unit's
    ring is polled while its worker enumerates, so the first chunk of a
    heavy unit is decoded (and served) long before the worker's future
    resolves; order stays deterministic because units are drained in
    submission (= branch, slice) order.  Once the producer is finished —
    its ring says ``done``, or its future has resolved (a worker sets
    ``done``, if at all, before it returns) — whatever its ring still
    holds is drained once, and the unit is left.

    With a ``codec`` every buffer is decoded into a row list; without
    one the encoded buffers are forwarded as they are (``rows=0`` in
    ``transfer_stats``).
    """

    def account(buf: bytes, label: str):
        chunk = buf if codec is None else codec.decode(buf)
        if transfer_stats is not None:
            rows = 0 if codec is None else len(chunk)
            transfer_stats.record(len(buf), rows, source=label)
        pool.record_transfer(len(buf))
        return chunk

    for future, ring, label in entries:
        delay = _DRAIN_POLL_MIN
        while not (ring.done or future.done()):
            buf = ring.poll()
            if buf is None:
                time.sleep(delay)
                delay = min(delay * 2, _DRAIN_POLL_MAX)
                continue
            delay = _DRAIN_POLL_MIN
            yield account(buf, label)
        finished_at: Optional[float] = None
        if future.done():
            # Only a pool shutdown cancels a unit the drain still reads,
            # or abandons its ring: the unit stopped early.
            if future.cancelled() or (ring.abandoned and not ring.done):
                raise EngineError(
                    "the worker pool was closed while this stream was open"
                )
            finished_at = future.result()["finished"]
        for buf in ring.drain():
            yield account(buf, label)
        if transfer_stats is not None:
            transfer_stats.note_done(label, at=finished_at)


# A stream submits at most this many units (each with its ring) per
# worker ahead of its drain: thousands of branches, few segments.
_UNITS_IN_FLIGHT_PER_WORKER = 4


def _in_flight(units: List[WorkUnit], rings: List[ChunkMailbox], submit):
    """``(future, ring, label)`` per work unit, in unit order, with at
    most ``len(rings)`` units submitted ahead of the drain: when the
    drain asks for the next entry it has read the last one to the end,
    so that unit's ring carries the next unit not yet submitted."""
    pending = iter(units)
    queue = deque(submit(next(pending), ring) for ring in rings)
    while queue:
        entry = queue.popleft()
        yield entry
        unit = next(pending, None)
        if unit is not None:
            ring = entry[1]
            ring.reset()
            queue.append(submit(unit, ring))


def _create_rings(count: int, capacity: int) -> List[ChunkMailbox]:
    """``count`` rings, or none: a failure unlinks the rings already
    created and raises :class:`EngineError`."""
    rings: List[ChunkMailbox] = []
    try:
        for _ in range(count):
            rings.append(ChunkMailbox(create=True, capacity=capacity))
    except OSError as error:
        for ring in rings:
            ring.close(unlink=True)
        raise EngineError(
            f"process mode could not create shared-memory ring "
            f"{len(rings) + 1} of {count}: {error}"
        ) from error
    return rings


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
    pipeline (memoized per process under ``spec_key``) and stream its
    unit's encoded answers through the unit's ring; yield decoded row
    chunks (``decode``) or the encoded buffers themselves, in unit
    order, from the outer position ``start=(branch, position)`` on (see
    :func:`plan_work_units`).  Every ring — one per unit in flight (see
    :func:`_in_flight`) — is created before any unit is submitted."""
    if spec_key is None:
        spec_key = _default_spec_key(pipeline)
    # Force the intern table BEFORE cutting the spec: the table then
    # ships inside every task and the decode side is this exact object
    # (counting never builds it).
    codec = ColumnarCodec(pipeline.intern_table)
    spec = pipeline.rebuild_spec()
    units = plan_work_units(pipeline, workers, start)
    id_width = width_for(max(pipeline.structure.cardinality - 1, 0))
    rings = _create_rings(
        min(len(units), _UNITS_IN_FLIGHT_PER_WORKER * workers),
        mailbox_capacity(chunk_rows * max(pipeline.arity, 1) * id_width + 64),
    )
    futures = []
    # The caller's pool as-is, or a pool that lives for this call.
    scope = WorkerPool(workers) if pool is None else contextlib.nullcontext(pool)
    with scope as active:

        def submit(unit: WorkUnit, ring: ChunkMailbox):
            branch_index, begin, stop = unit
            task = BranchTask(
                spec, spec_key, branch_index, begin, stop,
                chunk_rows, project_columns, (ring.name, ring.capacity),
            )
            futures.append(active.submit("process", run_branch_task_encoded, task))
            return futures[-1], ring, task.label

        # The rings are abandoned before a call-scoped pool joins its
        # workers, however the drain ends: a worker blocked on a full
        # ring only returns once its ring is abandoned.  A session pool
        # watches them, so closing it abandons a stream left open.
        active.watch(rings)
        try:
            yield from _yield_encoded_mailboxed(
                _in_flight(units, rings, submit),
                codec if decode else None,
                transfer_stats,
                active,
            )
        finally:
            # Units not started yet are cancelled.
            for future in futures:
                future.cancel()
            active.unwatch(rings)
            for ring in rings:
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


def _stream(
    pipeline: Pipeline,
    workers: Optional[int],
    mode: Optional[str],
    head_rows: int,
    project,
    transfer_stats: Optional[TransferStats],
    serial,
    pooled,
) -> Generator:
    """The mode decision, serial head and handover of both producers.

    ``serial(rows)`` turns in-process rows into the producer's items;
    ``pooled(start, workers)`` yields the items of the work units from
    the outer position ``start=(branch, position)`` on.  A forced mode,
    and any trivial pipeline, is decided at the first pull.  An
    automatic run (``mode=None``) serves its head in-process: its first
    ``head_rows`` rows, up to the end of the outer position the last of
    them falls in.  Only when the consumer pulls past the head does the
    cost model decide (:func:`decide_mode`); ``process`` starts work
    units that continue from where the head stopped, so no row is
    enumerated twice, and the handover is recorded as
    ``transfer_stats.head_rows``.
    """
    if mode is None and pipeline.trivial is None:
        handover: list = []
        yield from serial(
            _serial_head(pipeline, head_rows, project, workers, handover)
        )
        if not handover:
            return
        start, served, workers = handover[0]
        if transfer_stats is not None:
            transfer_stats.head_rows = served
    else:
        mode, workers = decide_mode(pipeline, workers, mode)
        if mode == "serial":
            yield from serial(chain.from_iterable(_serial_sources(pipeline, project)))
            return
        start = (0, 0)
    yield from pooled(start, workers)


def _flatten(chunks: Generator) -> Iterator[Answer]:
    """The rows of a chunk stream.  Closing the rows closes ``chunks``,
    which cancels every process work unit nobody will read."""
    try:
        for chunk in chunks:
            yield from chunk
    finally:
        chunks.close()


def _row_budgeted(rows: Generator, budget: int) -> Iterator[Answer]:
    """The first ``budget`` rows; then close the source, which cancels
    the work units nobody will read."""
    try:
        yield from islice(rows, budget)
    finally:
        rows.close()


def run_branches(
    pipeline: Pipeline,
    workers: Optional[int] = None,
    mode: Optional[str] = None,
    spec_key: Optional[tuple] = None,
    pool: Optional[WorkerPool] = None,
    chunk_rows: Optional[int] = None,
    transfer_stats: Optional[TransferStats] = None,
    project_columns: Optional[Tuple[int, ...]] = None,
) -> Iterator[bytes]:
    """Yield the answers as encoded columnar buffers — the serve tier's
    wire — in branch-index (then slice, then chunk) order, so the
    decoded, concatenated buffers reproduce the serial answer order
    exactly.  Every buffer decodes with
    ``ColumnarCodec(pipeline.intern_table)`` to at most ``chunk_rows``
    answers (cost-model default); a work unit's last chunk may be short,
    so buffer boundaries (not contents) can differ between modes.

    Serial chunks, an automatic run's head included (see
    :func:`_stream`), are encoded in the parent, one chunk per pull.  A
    process-mode chunk is encoded by its worker and crosses the parent
    undecoded (``transfer_stats`` records every chunk with ``rows=0``).

    ``pool`` is the session-owned :class:`~repro.engine.pool.WorkerPool`
    (its per-process pipeline memos amortize rebuilds); without one, a
    pool lives for the call.  ``transfer_stats`` receives per-chunk byte
    accounting, and the head's row count when an automatic run hands
    over.  ``project_columns`` keeps only those answer columns
    (duplicates preserved); process workers drop the rest before
    encoding.  Closing the stream cancels every unit it will not read.
    """
    rows_per_chunk = resolve_chunk_rows(pipeline, chunk_rows)
    _check_mode(workers, mode)
    codec = ColumnarCodec(pipeline.intern_table)

    def encoded(rows):
        for chunk in split_chunks(rows, rows_per_chunk):
            buf = codec.encode(chunk)
            if transfer_stats is not None:
                transfer_stats.record(len(buf), 0)
            yield buf

    def pooled(start, unit_workers):
        return _process_chunks(
            pipeline, unit_workers, spec_key, pool, rows_per_chunk,
            project_columns, transfer_stats, decode=False, start=start,
        )

    return _stream(
        pipeline, workers, mode, rows_per_chunk, project_columns,
        transfer_stats, encoded, pooled,
    )


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
    """Enumerate ``q(A)`` as one row stream: the same answers, in the
    same order, as :func:`repro.core.enumeration.enumerate_answers`.

    This is the one row producer, and it is demand-sized in-process:
    serial mode chains the lazy per-branch generators, so pulling ``k``
    rows enumerates ``k`` rows.  Process mode flattens the decoded
    worker chunks, which ``chunk_rows`` bounds.  An automatic run serves
    its head serially and hands only the rest to the pool (see
    :func:`_stream`).

    ``row_budget`` is the early-stop path (the qlang ``LIMIT`` fusion):
    the stream ends after exactly ``min(total, row_budget)`` answers, a
    budget within an automatic run's head never reaches the pool, and
    closing the stream cancels every work unit it will never read.  The
    other arguments mean what they mean for :func:`run_branches`.
    """
    if row_budget is not None and row_budget < 0:
        raise EngineError(f"row_budget must be >= 0, got {row_budget}")
    _check_mode(workers, mode)
    head_rows = resolve_chunk_rows(pipeline, chunk_rows)  # validated in every mode
    # Never enumerate more than one chunk past the budget.
    unit_rows = head_rows if row_budget is None else min(head_rows, row_budget)

    def pooled(start, unit_workers):
        return _flatten(
            _process_chunks(
                pipeline, unit_workers, spec_key, pool, unit_rows,
                project_columns, transfer_stats, decode=True, start=start,
            )
        )

    rows = _stream(
        pipeline, workers, mode, head_rows, project_columns, transfer_stats,
        lambda rows: rows, pooled,
    )
    return rows if row_budget is None else _row_budgeted(rows, row_budget)
