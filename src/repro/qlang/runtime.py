"""The executable side of qlang: :class:`CompiledQuery` and its stages.

A :class:`CompiledQuery` wraps one inner :class:`repro.session.Query`
plus the compiled stage list.  Enumeration streams through the stages;
only ``GROUP BY`` / ``ORDER BY`` materialize, and a pushed ``LIMIT``
never reaches Python at all — it rides the engine's row budget
(:meth:`repro.session.Query.answers`), stopping branch execution after
``k`` rows.

The handle is *live* like the inner query: each :meth:`stream` /
:meth:`all` call plans against the session's current head (or stays
pinned when compiled against a snapshot).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class StageSpec:
    """One compiled stage, for :meth:`CompiledQuery.explain`."""

    name: str
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {self.detail}"


@dataclass(frozen=True)
class StagePlan:
    """What :meth:`CompiledQuery.explain` returns.

    ``inner`` is the enumeration engine's own
    :class:`repro.session.query.QueryPlan` for the ``WHERE`` formula —
    backend, shards, transport, cost estimates — and ``stages`` are the
    qlang stages fused around it.
    """

    statement: str
    columns: Tuple[str, ...]
    stages: Tuple[StageSpec, ...]
    inner: object

    def describe(self) -> str:
        lines = [
            f"statement: {self.statement}",
            f"columns: ({', '.join(self.columns)})",
            "stages:",
        ]
        lines.extend(
            f"  {position}. {stage}"
            for position, stage in enumerate(self.stages, start=1)
        )
        lines.append("enumeration plan:")
        lines.extend(
            f"  {line}" for line in self.inner.describe().splitlines()
        )
        return "\n".join(lines)


class CompiledQuery:
    """One compiled qlang statement, bound to a database (or snapshot).

    Construction goes through :func:`repro.qlang.compiler.compile_select`
    — or just ``db.query("SELECT ...")``, which routes here when the
    string starts with the ``SELECT`` keyword.
    """

    def __init__(
        self,
        select,
        query,
        stages: Tuple[StageSpec, ...],
        carried_columns: Tuple[str, ...],
        project: Optional[Tuple[int, ...]],
        push_limit: bool,
    ):
        self._select = select
        self._query = query
        self._stages = stages
        self._carried = carried_columns
        self._project = project
        self._push_limit = push_limit
        self._last_handle = None

    # -- introspection -------------------------------------------------

    @property
    def select(self):
        """The parsed :class:`repro.qlang.ast.SelectQuery`."""
        return self._select

    @property
    def statement(self) -> str:
        """The canonical statement text (parses back to ``select``)."""
        return str(self._select)

    @property
    def columns(self) -> Tuple[str, ...]:
        """Output column names, in row order."""
        return self._select.output_columns

    @property
    def query(self):
        """The inner enumeration :class:`repro.session.Query`."""
        return self._query

    @property
    def _bare_count(self) -> bool:
        return self._select.count and not self._select.columns

    @property
    def transport_stats(self):
        """Received-row/byte accounting of the most recent enumeration
        (:class:`repro.engine.transport.TransferStats`; ``None`` before
        the first :meth:`stream` / :meth:`all`).  The early-exit
        observable: a pushed ``LIMIT k`` decodes at most ``k`` plus one
        chunk's worth of rows in process mode."""
        if self._last_handle is None:
            return None
        return self._last_handle.transport_stats

    @property
    def backend_used(self):
        """The concrete mode the most recent enumeration ran under
        (``None`` before the first pull)."""
        if self._last_handle is None:
            return None
        return self._last_handle.backend_used

    def explain(self) -> StagePlan:
        """The fused plan: qlang stages around the enumeration plan."""
        return StagePlan(
            statement=self.statement,
            columns=self.columns,
            stages=self._stages,
            inner=self._query.explain(
                limit=self._select.limit if self._push_limit else None
            ),
        )

    # -- stages --------------------------------------------------------

    def _sorted(self, rows: List[tuple], columns: Tuple[str, ...]):
        """Stable multi-key sort: one stable pass per key, last first."""
        for key in reversed(self._select.order_by):
            index = columns.index(key.column)
            rows.sort(key=lambda row: row[index], reverse=key.descending)
        return rows

    def _grouped(self, rows: Iterator[tuple]) -> List[tuple]:
        """Group carried key tuples, first-seen order (dict = insertion
        ordered), appending the per-group count when selected."""
        counts: dict = {}
        for row in rows:
            counts[row] = counts.get(row, 0) + 1
        select = self._select
        positions = tuple(
            self._carried.index(column) for column in select.columns
        )
        if select.count:
            return [
                tuple(key[p] for p in positions) + (count,)
                for key, count in counts.items()
            ]
        return [tuple(key[p] for p in positions) for key in counts]

    def stream(self) -> Iterator[tuple]:
        """Yield output rows; streams end-to-end unless a stage must
        materialize (``GROUP BY`` / ``ORDER BY``)."""
        select = self._select
        if self._bare_count:
            rows: Iterator[tuple] = iter([(self._query.count(),)])
            if select.limit is not None:
                rows = islice(rows, select.limit)
            yield from rows
            return
        limit = select.limit if self._push_limit else None
        handle = self._query.answers(limit=limit, project=self._project)
        self._last_handle = handle
        rows = handle.stream()
        if select.group_by:
            out = self._grouped(rows)
            if select.order_by:
                self._sorted(out, self.columns)
            if select.limit is not None and not self._push_limit:
                out = out[: select.limit]
            yield from out
            return
        if select.order_by:
            materialized = self._sorted(list(rows), self._carried)
            rows = iter(materialized)
        if select.limit is not None and not self._push_limit:
            rows = islice(rows, select.limit)
        positions = tuple(
            self._carried.index(column) for column in select.columns
        )
        if positions == tuple(range(len(self._carried))):
            yield from rows
        else:
            for row in rows:
                yield tuple(row[p] for p in positions)

    def all(self) -> List[tuple]:
        """Materialize every output row."""
        return list(self.stream())

    def count(self) -> int:
        """How many values/rows the statement yields.

        A bare ``SELECT COUNT(*)`` returns the counted value itself
        (Theorem 2.5 — no enumeration).  A plain projection is 1:1 with
        the answer set, so this is the counting algorithm clipped by
        ``LIMIT`` — still no enumeration.  Only ``GROUP BY`` has to
        materialize (the number of groups is not a counting-algorithm
        quantity).
        """
        select = self._select
        if self._bare_count:
            return self._query.count()
        if select.group_by:
            return len(self.all())
        total = self._query.count()
        if select.limit is not None:
            total = min(total, select.limit)
        return total

    def __iter__(self) -> Iterator[tuple]:
        return self.stream()

    def __repr__(self) -> str:
        return f"CompiledQuery({self.statement!r})"
