"""Pluggable execution strategies for the session layer.

An :class:`ExecutionBackend` decides *where* a plan's branch work runs —
serially in the caller or across the session's worker processes —
while the answer semantics stay identical in every mode: the
deterministic branch-order merge makes the output byte-identical to
serial enumeration, and per-branch counting sums to the exact serial
count.

The default is :data:`AUTO`, which applies the cost-model heuristics
(:func:`repro.engine.executor.decide_mode` /
:func:`~repro.engine.executor.decide_count_mode`) per plan; callers force
a strategy with ``db.query(..., backend="process")`` or by passing any
object implementing the protocol.  Asyncio is not a pool mode but a
front-end property: every :class:`repro.session.Answers` handle exposes
``async`` access that drives whichever backend the plan chose off the
event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, List, Optional, Protocol, Tuple, runtime_checkable

from repro.core.pipeline import Pipeline
from repro.engine.executor import (
    budget_mode,
    decide_count_mode,
    decide_mode,
    parallel_count,
    run_branches,
)
from repro.engine.pool import WorkerPool
from repro.engine.transport import TransferStats
from repro.errors import EngineError

Element = Hashable
Answer = Tuple[Element, ...]


@dataclass
class ExecutionPlan:
    """Everything a backend needs to run one prepared query.

    ``pool`` is the session-owned :class:`WorkerPool` (lazily started).
    ``chunk_rows`` bounds the rows of every answer chunk (``None`` =
    cost-model default); ``transfer_stats`` collects the process path's
    received-bytes accounting.  ``used_mode`` / ``used_count_mode`` /
    ``used_transport`` record what actually ran (the transport is
    ``"columnar"`` in process mode, ``"none"`` in-process), for
    :meth:`repro.session.Query.explain` and the differential suite.

    Snapshot contract: ``pipeline`` (and ``pipeline.structure``) may
    belong to a *pinned* version whose structure is frozen — a commit
    has moved the session head to a copy-on-write fork.  Backends must
    treat both as strictly read-only; process-mode workers that rebuild
    the pipeline from its spec receive the frozen structure by value,
    so every execution mode enumerates the pinned version
    byte-identically.
    """

    pipeline: Pipeline
    workers: Optional[int] = None
    spec_key: Optional[tuple] = None
    pool: Optional[WorkerPool] = None
    chunk_rows: Optional[int] = None
    # Early-stop: the run yields at most this many rows (min(total,
    # budget), byte-identical prefix), cancelling abandoned work units.
    row_budget: Optional[int] = None
    # SELECT-list pushdown: answer columns to keep (1:1 row-preserving;
    # process workers drop the rest before encoding).
    project_columns: Optional[Tuple[int, ...]] = None
    transfer_stats: Optional[TransferStats] = field(default=None, compare=False)
    used_mode: Optional[str] = field(default=None, compare=False)
    used_count_mode: Optional[str] = field(default=None, compare=False)
    used_transport: Optional[str] = field(default=None, compare=False)


@runtime_checkable
class ExecutionBackend(Protocol):
    """The strategy protocol: produce branch chunks, and count.

    ``run`` must yield per-branch answer lists in branch-index order
    (shards in slice order) so the merged stream equals the serial
    enumeration; ``count`` must return exactly
    :func:`repro.core.counting.count_answers`.
    """

    name: str

    def run(self, plan: ExecutionPlan) -> Iterator[List[Answer]]: ...

    def count(self, plan: ExecutionPlan) -> int: ...


class PoolBackend:
    """The built-in strategy family over :mod:`repro.engine.executor`.

    ``mode=None`` is the cost-model-driven automatic backend; a concrete
    ``mode`` pins every plan to that execution mode.
    """

    def __init__(self, name: str, mode: Optional[str]):
        self.name = name
        self._mode = mode

    def __repr__(self) -> str:
        return f"<ExecutionBackend {self.name!r}>"

    def resolve(self, plan: ExecutionPlan) -> Tuple[str, int]:
        """The concrete ``(mode, workers)`` enumeration would use (a
        row budget that fits one chunk keeps ``auto`` serial)."""
        mode = budget_mode(
            plan.pipeline, self._mode, plan.row_budget, plan.chunk_rows
        )
        return decide_mode(plan.pipeline, plan.workers, mode)

    def resolve_count(self, plan: ExecutionPlan) -> Tuple[str, int]:
        """The concrete ``(mode, workers)`` counting would use."""
        return decide_count_mode(plan.pipeline, plan.workers, self._mode)

    def run(self, plan: ExecutionPlan) -> Iterator[List[Answer]]:
        mode, workers = self.resolve(plan)
        plan.used_mode = mode
        plan.used_transport = "columnar" if mode == "process" else "none"
        return run_branches(
            plan.pipeline,
            workers=workers,
            mode=mode,
            spec_key=plan.spec_key,
            pool=plan.pool,
            chunk_rows=plan.chunk_rows,
            transfer_stats=plan.transfer_stats,
            row_budget=plan.row_budget,
            project_columns=plan.project_columns,
        )

    def count(self, plan: ExecutionPlan) -> int:
        mode, workers = self.resolve_count(plan)
        plan.used_count_mode = mode
        return parallel_count(
            plan.pipeline,
            workers=workers,
            mode=mode,
            spec_key=plan.spec_key,
            pool=plan.pool,
        )


AUTO = PoolBackend("auto", None)
SERIAL = PoolBackend("serial", "serial")
PROCESS = PoolBackend("process", "process")

BACKENDS = {
    backend.name: backend for backend in (AUTO, SERIAL, PROCESS)
}


def resolve_backend(spec) -> ExecutionBackend:
    """Accept ``None`` (= auto), a backend name, or a backend object."""
    if spec is None:
        return AUTO
    if isinstance(spec, str):
        backend = BACKENDS.get(spec)
        if backend is None:
            raise EngineError(
                f"unknown backend {spec!r}; choose from "
                f"{sorted(BACKENDS)} or pass an ExecutionBackend"
            )
        return backend
    if callable(getattr(spec, "run", None)) and callable(
        getattr(spec, "count", None)
    ):
        return spec
    raise EngineError(
        f"backend must be None, a name, or an ExecutionBackend; got "
        f"{type(spec).__name__}"
    )
