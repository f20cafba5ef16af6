"""Pluggable execution strategies for the session layer.

An :class:`ExecutionBackend` decides *where* a plan's branch work runs —
serially in the caller or across the session's worker processes —
while the answer semantics stay identical in every mode: the
deterministic branch-order merge makes the output byte-identical to
serial enumeration.  Counting never leaves the process: every built-in
backend counts with :func:`repro.core.counting.count_answers` over the
plan's pipeline, so ``backend="process"`` forces enumeration only.

The default is :data:`AUTO`, which applies the cost-model heuristic
(:func:`repro.engine.executor.decide_mode`) per plan, only after a
serial head of one chunk has been served; callers force a strategy
with ``db.query(..., backend="process")`` or by passing any object
implementing the protocol.  Asyncio is not a pool mode but a
front-end property: every :class:`repro.session.Answers` handle exposes
``async`` access that drives whichever backend the plan chose off the
event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Optional, Protocol, Tuple, runtime_checkable

from repro.core.counting import count_answers
from repro.core.pipeline import Pipeline
from repro.engine.executor import (
    decide_count_mode,
    decide_mode,
    parallel_enumerate,
    resolve_chunk_rows,
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
    ``chunk_rows`` bounds the rows of every chunk a process worker ships
    back (``None`` = cost-model default); in-process runs cut no chunks.
    ``transfer_stats`` collects the process path's received-bytes
    accounting.  ``used_mode`` / ``used_count_mode`` /
    ``used_transport`` record what actually ran (the transport is
    ``"columnar"`` in process mode, ``"none"`` in-process), for
    :meth:`repro.session.Query.explain` and the differential suite: an
    ``auto`` run reads ``"serial"`` / ``"none"`` while it serves its
    serial head and ``"process"`` / ``"columnar"`` once it has handed
    the rest to the pool (``transfer_stats.head_rows`` set).

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
    used_count_mode: Optional[str] = field(default=None, compare=False)
    _used_mode: Optional[str] = field(default=None, compare=False, init=False)
    _used_transport: Optional[str] = field(
        default=None, compare=False, init=False
    )

    def _handed_over(self) -> bool:
        stats = self.transfer_stats
        return stats is not None and stats.head_rows is not None

    @property
    def used_mode(self) -> Optional[str]:
        return "process" if self._handed_over() else self._used_mode

    @used_mode.setter
    def used_mode(self, mode: Optional[str]) -> None:
        self._used_mode = mode

    @property
    def used_transport(self) -> Optional[str]:
        return "columnar" if self._handed_over() else self._used_transport

    @used_transport.setter
    def used_transport(self, transport: Optional[str]) -> None:
        self._used_transport = transport


@runtime_checkable
class ExecutionBackend(Protocol):
    """The strategy protocol: produce answer rows, and count.

    ``run`` must return an iterator over the answer rows in branch-index
    order (shards in slice order), so the stream equals the serial
    enumeration, and should enumerate no further than its consumer
    reads; ``count`` must return exactly
    :func:`repro.core.counting.count_answers`.
    """

    name: str

    def run(self, plan: ExecutionPlan) -> Iterator[Answer]: ...

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
        """The concrete ``(mode, workers)`` the rows past an ``auto``
        run's serial head would use; an ``auto`` run whose row budget
        fits within the head never leaves it, so it resolves serial."""
        mode, workers = decide_mode(plan.pipeline, plan.workers, self._mode)
        if (
            mode == "process"
            and self._mode is None
            and plan.row_budget is not None
            and plan.row_budget <= resolve_chunk_rows(plan.pipeline, plan.chunk_rows)
        ):
            return "serial", 1
        return mode, workers

    def head_rows(self, plan: ExecutionPlan) -> Optional[int]:
        """How many rows an ``auto`` run serves serially before it hands
        the rest to the pool: the resolved ``chunk_rows``, up to the end
        of the outer position the last of them falls in.  ``None`` when
        the run never hands over."""
        if self._mode is None and self.resolve(plan)[0] == "process":
            return resolve_chunk_rows(plan.pipeline, plan.chunk_rows)
        return None

    def run(self, plan: ExecutionPlan) -> Iterator[Answer]:
        # An automatic run starts in-process, as its head or as a whole
        # serial run; the plan reads "process" once the head hands over.
        mode = "serial" if self._mode is None else self.resolve(plan)[0]
        plan.used_mode = mode
        plan.used_transport = "columnar" if mode == "process" else "none"
        return parallel_enumerate(
            plan.pipeline,
            workers=plan.workers,
            mode=self._mode,
            spec_key=plan.spec_key,
            pool=plan.pool,
            chunk_rows=plan.chunk_rows,
            transfer_stats=plan.transfer_stats,
            row_budget=plan.row_budget,
            project_columns=plan.project_columns,
        )

    def count(self, plan: ExecutionPlan) -> int:
        # Always in-process: decide_count_mode validates the request and
        # answers "serial", so a count never starts or submits to the pool.
        plan.used_count_mode, _ = decide_count_mode(
            plan.pipeline, plan.workers, self._mode
        )
        return count_answers(plan.pipeline)


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
