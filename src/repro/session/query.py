"""The :class:`Query` plan object and its :class:`QueryPlan` explanation.

``db.query("...")`` preprocesses once (through the session's pipeline
cache) and returns a :class:`Query` exposing the paper's three
operations — :meth:`Query.count` (Theorem 2.5), :meth:`Query.test`
(Theorem 2.6), :meth:`Query.answers` (Theorem 2.7, constant delay) —
plus :meth:`Query.explain`, which reports the chosen plan: branch count,
shard layout, execution backend, and the cost-model estimates behind the
choice.

A ``Query`` is a *live* view of the session: after
``db.insert_fact()`` / ``db.remove_fact()`` it transparently re-resolves
its pipeline — O(1) when the plan was locally maintained, a rebuild
otherwise.  :class:`~repro.session.answers.Answers` handles, by
contrast, are pinned snapshots: a mutation makes an outstanding handle
raise :class:`repro.errors.StaleResultError`.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.testing import test_answer
from repro.engine.executor import (
    branch_works,
    decide_count_mode,
    plan_work_units,
    resolve_chunk_rows,
    transfer_works,
)
from repro.engine.transport import estimate_encoded_bytes, width_for
from repro.errors import EngineError
from repro.fo.syntax import Formula, Var
from repro.session.answers import Answers, EncodedAnswers
from repro.session.backends import ExecutionPlan, PoolBackend, resolve_backend
from repro.storage.cost_model import estimate_rows

Element = Hashable


def _estimated_rows(pipeline) -> int:
    """Pessimistic answer-count bound (the cost model's per-branch
    capped product, summed over branches)."""
    return sum(
        estimate_rows([len(node_list) for node_list in branch.lists])
        for branch in pipeline.branches
    )


@dataclass(frozen=True)
class QueryPlan:
    """What :meth:`Query.explain` returns: the decisions, made inspectable.

    ``backend`` is the concrete execution mode the cost model (or a
    forced backend) resolves to for this plan — the same decision
    procedure the engine applies at pull time, so the report matches
    what actually runs.  ``count_backend`` reads ``serial`` for every
    built-in backend: a count never leaves the process.  ``head_rows``
    is set when an ``auto`` run serves that many rows serially (up to
    the end of an outer position) before it hands the rest to
    ``backend``.
    """

    query: str
    variables: Tuple[str, ...]
    backend_requested: str
    backend: str
    count_backend: str
    workers: int
    branch_count: int
    shards: Tuple[Tuple[int, int, Optional[int]], ...]
    branch_costs: Tuple[int, ...]
    trivial: Optional[bool]
    cached: bool = field(default=False)
    maintained: bool = field(default=False)
    # Answer-transport report: "columnar" when process-mode answers
    # ship back ("none" = in-process zero-copy), the chunk bound, and
    # the estimated parent-received bytes.
    transport: str = "none"
    chunk_rows: Optional[int] = None
    transfer_bytes: int = 0
    transfer_costs: Tuple[int, ...] = ()
    # Snapshot pinning: the structure version the plan resolves against,
    # and whether that version is pinned by a snapshot (a pinned plan
    # never re-resolves; commits fork away from under it).
    at_version: Optional[int] = None
    pinned: bool = False
    # Replication: queries through a FollowerDatabase report the replica
    # role and how many versions the follower trailed its leader when
    # the plan was resolved (None = primary, lag not applicable).
    role: str = "primary"
    lag: Optional[int] = None
    # Observed runtime layout (None until an Answers handle from this
    # Query actually moved chunks): the transfer-stats report — chunks
    # shipped, bytes and rows received, and per-source attribution
    # keyed by work-unit label (``b0[0:]``-style, or ``shard0`` for
    # sharded gathers) — so ``--explain`` shows what *ran*, not only
    # what was estimated.
    runtime: Optional[dict] = field(default=None, compare=False)
    head_rows: Optional[int] = None

    @property
    def total_cost(self) -> int:
        return sum(self.branch_costs)

    def describe(self) -> str:
        """A human-readable account of the plan (CLI ``--explain``)."""
        if self.transport == "none":
            transport_line = "transport: none (in-process, zero-copy)"
        else:
            transport_line = (
                f"transport: {self.transport} (chunk_rows: {self.chunk_rows}, "
                f"est. {self.transfer_bytes} bytes to parent)"
            )
        backend = self.backend
        if self.head_rows is not None:
            backend = f"serial for the first {self.head_rows} rows, then {backend}"
        lines = [
            f"query: {self.query}",
            f"variables: ({', '.join(self.variables)})",
            f"backend: {backend} (requested: {self.backend_requested}, "
            f"count: {self.count_backend}, workers: {self.workers})",
            transport_line,
            f"branches: {self.branch_count}, shards: {len(self.shards)}",
            f"estimated work: {self.total_cost} steps",
            f"pipeline: {'trivially ' + str(self.trivial) if self.trivial is not None else 'built'}"
            f"{', cached' if self.cached else ''}"
            f"{', dynamically maintained' if self.maintained else ''}",
        ]
        if self.at_version is not None:
            lines.append(
                f"version: {self.at_version}"
                f"{' (snapshot-pinned)' if self.pinned else ' (live head)'}"
            )
        if self.role != "primary":
            lines.append(
                f"role: {self.role}"
                + (
                    f" (lag: {self.lag} version(s) behind the leader)"
                    if self.lag is not None
                    else ""
                )
            )
        if self.shards:
            layout = ", ".join(
                f"b{branch}[{start}:{'' if stop is None else stop}]"
                for branch, start, stop in self.shards
            )
            lines.append(f"shard layout: {layout}")
        if self.runtime:
            lines.append(
                f"runtime: {self.runtime.get('chunks', 0)} chunk(s), "
                f"{self.runtime.get('bytes_received', 0)} bytes, "
                f"{self.runtime.get('rows', 0)} rows received"
                + (
                    f", after {self.runtime['head_rows']} rows served in-process"
                    if self.runtime.get("head_rows") is not None
                    else ""
                )
            )
            for label, entry in sorted(
                (self.runtime.get("sources") or {}).items()
            ):
                first_at = entry.get("first_at")
                done_at = entry.get("done_at")
                streamed = (
                    "yes"
                    if first_at is not None
                    and done_at is not None
                    and first_at < done_at
                    else "no"
                )
                lines.append(
                    f"  {label}: chunks={entry.get('chunks', 0)}, "
                    f"bytes={entry.get('bytes', 0)}, "
                    f"rows={entry.get('rows', 0)}, streamed={streamed}"
                )
        return "\n".join(lines)


class Query:
    """One prepared query inside a :class:`repro.session.Database`."""

    def __init__(
        self,
        database,
        formula: Formula,
        order: Optional[Tuple[Var, ...]] = None,
        backend=None,
        workers: Optional[int] = None,
        budget=None,
        chunk_rows: Optional[int] = None,
        snapshot=None,
    ):
        self._db = database
        self._snapshot = snapshot
        self._formula = formula
        self._order = order
        self._backend = resolve_backend(backend)
        self._workers = workers if workers is not None else database.workers
        self._budget = budget
        if chunk_rows is not None and chunk_rows < 1:
            raise EngineError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self._chunk_rows = chunk_rows
        self._resolved_epoch = database._epoch
        if snapshot is not None:
            # The query holds its own version pin: it must keep serving
            # the snapshot's version even after the snapshot itself is
            # closed (commits keep forking instead of refreshing this
            # pipeline in place).  Released on garbage collection.
            self._pin = snapshot._pin_for_handle()
            self._pin_finalizer = weakref.finalize(self, self._pin.release)
            self._pipeline, self._key = snapshot._prepare(
                formula, order=order, budget=budget
            )
        else:
            self._pin = None
            self._pin_finalizer = None
            self._pipeline, self._key = database._prepare(
                formula, order=order, budget=budget
            )
        self._resolved_version = self._pipeline.structure.version
        self._cached_count: Optional[Tuple[int, int]] = None
        # What the most recent Answers handle ran (its execution plan:
        # transfer stats and the mode used), so explain() can report the
        # observed transfer layout next to the cost-model estimates.
        # Not the handle itself: a dropped handle must release its
        # version pin, or every later commit would fork.
        self._last_run: Optional[ExecutionPlan] = None

    # -- plan resolution ----------------------------------------------

    def _resolve(self):
        """The current pipeline: re-resolved after session commits.

        A snapshot-pinned query never re-resolves — it stays on its
        version by contract.  A live query is O(1) while the head is
        unchanged, a cache hit when the plan was dynamically maintained
        (or still fresh), and a rebuild only when the session had to
        invalidate it.
        """
        if self._snapshot is not None:
            return self._pipeline
        db = self._db
        if (
            db.structure.version != self._resolved_version
            or db._epoch != self._resolved_epoch
        ):
            # Read the epoch first: a failed commit that lands during
            # _prepare then leaves it stale, and the next call retries.
            epoch = db._epoch
            self._pipeline, self._key = db._prepare(
                self._formula, order=self._order, budget=self._budget
            )
            self._resolved_version = self._pipeline.structure.version
            self._resolved_epoch = epoch
        return self._pipeline

    @property
    def snapshot(self):
        """The :class:`~repro.session.snapshot.Snapshot` this query is
        pinned to (``None`` for a live head query)."""
        return self._snapshot

    def _pin_resolved(self):
        """``(pipeline, pin)``: the current pipeline and a version pin on it.

        Pin-or-retry: ``_pin_current`` is atomic with commits, so a won
        pin guarantees the resolved pipeline is never refreshed in place
        while the pin is held (a concurrent commit takes the fork path).
        A snapshot query pins its snapshot's version for the handle.
        """
        if self._snapshot is not None:
            return self._resolve(), self._snapshot._pin_for_handle()
        while True:
            pipeline = self._resolve()
            pin = self._db._pin_current(self._resolved_version, self._resolved_epoch)
            if pin is not None:
                return pipeline, pin

    @contextmanager
    def _pinned(self):
        """Resolve and hold a version pin for one read operation (the
        guarantee :meth:`answers` gives its handles).  Snapshot queries
        are pinned by construction."""
        if self._snapshot is not None:
            yield self._resolve()
            return
        pipeline, pin = self._pin_resolved()
        try:
            yield pipeline
        finally:
            pin.release()

    @property
    def pipeline(self):
        """The underlying preprocessing output (current as of this call)."""
        return self._resolve()

    @property
    def formula(self) -> Formula:
        return self._formula

    @property
    def variables(self) -> Tuple[Var, ...]:
        """The free variables, in answer-tuple order."""
        return self._pipeline.variables

    @property
    def arity(self) -> int:
        return self._pipeline.arity

    @property
    def backend(self) -> str:
        """The requested execution strategy ("auto" unless forced)."""
        return self._backend.name

    def _execution_plan(self, pipeline, limit: Optional[int] = None) -> ExecutionPlan:
        return ExecutionPlan(
            pipeline,
            workers=self._workers,
            spec_key=self._key,
            pool=self._db.pool,
            chunk_rows=self._chunk_rows,
            row_budget=limit,
        )

    # -- the three operations ------------------------------------------

    def count(self) -> int:
        """``|q(A)|`` (Theorem 2.5).  Cached until the next update
        (snapshot-pinned queries never see one)."""
        with self._pinned() as pipeline:
            if self._snapshot is not None:
                version = self._snapshot.version
            else:
                version = self._resolved_version
            if (
                self._cached_count is not None
                and self._cached_count[0] == version
            ):
                return self._cached_count[1]
            self._db._check_open()
            value = self._backend.count(self._execution_plan(pipeline))
            self._cached_count = (version, value)
            return value

    def test(self, candidate: Sequence[Element]) -> bool:
        """Constant-time membership test (Theorem 2.6)."""
        with self._pinned() as pipeline:
            return test_answer(pipeline, candidate)

    def answers(
        self,
        limit: Optional[int] = None,
        project: Optional[Tuple[int, ...]] = None,
    ) -> Answers:
        """A fresh :class:`Answers` handle (Theorem 2.7, constant delay).

        The handle *pins* the structure version it was planned against:
        a commit that overlaps it forks the database head and leaves the
        pinned version frozen, so the handle streams to completion
        byte-identical to pre-commit serial enumeration — it never
        raises :class:`~repro.errors.StaleResultError` — while the
        ``Query`` itself stays live (re-resolving to the new head).
        Cancel, fully drop, or garbage-collect the handle to release
        the pin.

        ``limit`` is the early-stop path (what ``LIMIT k`` compiles
        to): the handle serves exactly the first ``min(|q(A)|, limit)``
        answers of the serial order, and production stops after that —
        O(limit) enumeration work instead of materializing everything.

        ``project`` keeps only those answer columns, in that order
        (what a qlang SELECT list compiles to).  Rows stay 1:1 with the
        enumeration — duplicates are *not* collapsed — and in process
        mode the drop happens worker-side, before encoding.
        """
        self._db._check_open()
        pipeline, pin = self._pin_resolved()
        handle = Answers(
            pipeline,
            backend=self._backend,
            workers=self._workers,
            spec_key=self._key,
            pool=self._db.pool,
            chunk_rows=self._chunk_rows,
            pin=pin,
            version_source=self._db._head_version,
            row_budget=limit,
            project_columns=project,
        )
        self._last_run = handle.execution
        return handle

    def answers_encoded(self, chunk_rows: Optional[int] = None) -> EncodedAnswers:
        """The answers as encoded columnar wire chunks.

        The serve tier's passthrough path: chunks come straight off the
        enumeration workers (in process mode never decoded here) and can
        be forwarded byte-for-byte to a network peer, which rebuilds
        rows from :attr:`EncodedAnswers.intern_elements`.  Pin semantics
        match :meth:`answers` — the handle pins its version until
        exhausted, closed, or collected.
        """
        self._db._check_open()
        pipeline, pin = self._pin_resolved()
        return EncodedAnswers(
            pipeline,
            workers=self._workers,
            spec_key=self._key,
            pool=self._db.pool,
            chunk_rows=chunk_rows if chunk_rows is not None else self._chunk_rows,
            pin=pin,
        )

    def __iter__(self):
        return iter(self.answers())

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release a snapshot-pinned query's version pin.  Idempotent.

        Outstanding :class:`Answers` / :class:`EncodedAnswers` handles
        hold their *own* pins and are unaffected; a live-head query
        holds no pin and this is a no-op.  The serve tier calls this as
        soon as a cursor's handle exists, so each cursor costs exactly
        one pinned version against the retention budget.
        """
        pin, self._pin = self._pin, None
        if self._pin_finalizer is not None:
            self._pin_finalizer.detach()
            self._pin_finalizer = None
        if pin is not None:
            pin.release()

    # -- introspection -------------------------------------------------

    def explain(self, limit: Optional[int] = None) -> QueryPlan:
        """The chosen plan: branches, shards, backend, cost estimates.

        An ``auto`` plan that resolves to ``process`` serves its first
        chunk serially and hands only the rest to the pool; the plan
        says so (``head_rows``).  ``limit`` explains
        ``answers(limit=...)``: an ``auto`` run whose limit fits within
        that head never leaves it, and the plan says ``serial``.

        After an :meth:`answers` handle from this query has actually
        moved chunks, the plan additionally carries ``runtime`` — the
        observed transfer layout (chunks shipped, bytes and rows
        received, per-work-unit attribution with streamed-before-done
        flags) from the handle's :class:`TransferStats`."""
        pipeline = self._resolve()
        plan = self._execution_plan(pipeline, limit)
        head_rows: Optional[int] = None
        if isinstance(self._backend, PoolBackend):
            mode, workers = self._backend.resolve(plan)
            count_mode, _ = decide_count_mode(pipeline, plan.workers)
            head_rows = self._backend.head_rows(plan)
        else:
            # A custom backend decides internally; report its name.
            mode, workers = self._backend.name, plan.workers or 0
            count_mode = self._backend.name
        shards: Tuple[Tuple[int, int, Optional[int]], ...] = ()
        if mode != "serial" and workers:
            shards = tuple(plan_work_units(pipeline, workers))
        transport = "none"
        chunk_rows: Optional[int] = None
        transfer_bytes = 0
        transfer_costs: Tuple[int, ...] = ()
        if mode == "process":
            transport = "columnar"
            # The figure the decision weighed (decide_mode).
            transfer_costs = tuple(transfer_works(pipeline, workers))
            chunk_rows = resolve_chunk_rows(pipeline, self._chunk_rows)
            id_width = width_for(max(pipeline.structure.cardinality - 1, 0))
            transfer_bytes = estimate_encoded_bytes(
                _estimated_rows(pipeline), pipeline.arity, id_width, chunk_rows
            )
        return QueryPlan(
            query=str(self._formula),
            variables=tuple(v.name for v in pipeline.variables),
            backend_requested=self._backend.name,
            backend=mode,
            count_backend=count_mode,
            workers=workers,
            branch_count=pipeline.branch_count,
            shards=shards,
            branch_costs=tuple(branch_works(pipeline)),
            trivial=pipeline.trivial,
            cached=self._key is not None,
            maintained=self._db._is_maintained(self._key),
            transport=transport,
            chunk_rows=chunk_rows,
            transfer_bytes=transfer_bytes,
            transfer_costs=transfer_costs,
            at_version=self._resolved_version,
            pinned=self._snapshot is not None,
            runtime=self._observed_runtime(),
            head_rows=head_rows,
        )

    def _observed_runtime(self) -> Optional[dict]:
        """The last handle's transfer report, if anything actually ran."""
        run = self._last_run
        if run is None:
            return None
        stats = run.transfer_stats
        if stats is None or not stats.chunks:
            return None
        runtime = stats.as_dict()
        runtime["backend_used"] = run.used_mode
        return runtime

    def stats(self) -> dict:
        """Preprocessing statistics (graph size, branches, radii, ...)."""
        return self._resolve().stats()

    def __repr__(self) -> str:
        return (
            f"Query({str(self._formula)!r}, backend={self._backend.name!r})"
        )
