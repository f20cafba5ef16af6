"""The sharded database front-end: scatter at build, gather at query.

:class:`ShardedDatabase` partitions its structure into regions (unions
of whole Gaifman components, :mod:`repro.shard.partition`), builds each
query *once* as a localization template over the full structure, derives
one pipeline per region from that template, and assembles the derived
pipelines into a merged pipeline that is — provably, and enforced by the
differential suite — byte-identical to a cold global build.  Queries
then execute scatter-gather (:mod:`repro.shard.backend`): per-shard
branch streams are merged lazily into the exact global answer order.

Sharing the *template* is what makes per-region pipelines sound:
localization evaluates sentences, materializes derived unary predicates,
and fixes counting totals against the full structure; deriving reuses
those verbatim and only rebuilds the structure-shaped tail (colored
graph, colors, branch lists) per region.  A query whose localized form
still compares against a structure-wide total that was *not* preserved
as a derived set cannot be sharded; :func:`shard_blockers` detects this
and the plan silently falls back to an ordinary unsharded pipeline —
wrong answers are never an option.

Updates go through :meth:`ShardedDatabase.apply` with the session
commit's exact semantics: validation up front, net effects, then the
session's one maintenance pass (:func:`repro.core.dynamic.maintain`)
over every maintainable cached plan, with the changeset *split by
element ownership* so each region's substructure is updated in the same
mutation.  A fact whose elements span two shards is a **bridge** — it
welds Gaifman components together — and triggers a targeted merge of
the owning shards before anything is answered again.
"""

from __future__ import annotations

import threading
from typing import (
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.dynamic import (
    PipelineMaintainer,
    apply_ops,
    maintain_in_place,
    maintenance_blockers,
    net_effects,
)
from repro.core.pipeline import Pipeline
from repro.core.testing import test_answer
from repro.engine.pool import WorkerPool
from repro.errors import EngineError
from repro.fo import coerce_formula
from repro.fo.syntax import CountCmp, Formula, TotalCount, Var, subformulas
from repro.session.answers import Answers
from repro.session.backends import ExecutionPlan
from repro.session.transaction import Changeset, CommitResult
from repro.shard.backend import ShardGatherBackend
from repro.shard.partition import RegionPartitioner, ShardLayout, merge_shards
from repro.structures.serialize import fingerprint
from repro.structures.structure import Structure

Element = Hashable


def shard_blockers(pipeline: Pipeline) -> List[str]:
    """Why a localized query cannot execute per-shard (empty = shardable).

    The one genuinely global quantity a localized formula can retain is
    a counting atom compared against a structure-wide total
    (``|U ∩ N_r(x)| >= |U|``-style).  When localization preserved ``U``
    as a derived unary set, every shard evaluator reads the *global* set
    and per-shard execution stays exact; when ``U`` is a base relation
    the shard evaluator would count only shard-local members and
    silently diverge — so the plan must stay unsharded.
    """
    blockers: List[str] = []
    localized = pipeline.localized
    for node in subformulas(localized.formula):
        if (
            isinstance(node, CountCmp)
            and isinstance(node.rhs, TotalCount)
            and node.rhs.unary not in localized.extra_unary
        ):
            blockers.append(
                f"counting atom compares against the structure-wide total "
                f"|{node.rhs.unary}| of a base relation; per-shard "
                f"evaluation would count shard-local members only"
            )
    return blockers


class _ShardPlan:
    """One query's sharded execution state.

    ``canonical`` records that the shard graphs (and the merged graph's
    node numbering) are exactly what a cold build over the current
    structure would produce — the precondition for the stream gather's
    rank-keyed merge.  In-place maintenance keeps the *merged* pipeline
    correct but renumbers nothing, so it clears ``canonical`` and drops
    the shard pipelines; subsequent queries run through the maintained
    merged pipeline until a fresh plan is built.
    """

    __slots__ = (
        "formula",
        "template",
        "shards",
        "merged",
        "canonical",
        "blockers",
        "maintainable",
        "maintainer",
    )

    def __init__(
        self,
        formula: Formula,
        template: Optional[Pipeline],
        shards: Optional[List[Pipeline]],
        merged: Pipeline,
        canonical: bool,
        blockers: Tuple[str, ...],
    ):
        self.formula = formula
        self.template = template
        self.shards = shards
        self.merged = merged
        self.canonical = canonical
        self.blockers = blockers
        self.maintainable = (
            merged.trivial is None
            and not maintenance_blockers(merged)
            and merged.localized.sentences_evaluated == 0
        )
        self.maintainer: Optional[PipelineMaintainer] = None


class ShardedQuery:
    """One prepared query against a :class:`ShardedDatabase`."""

    def __init__(self, database: "ShardedDatabase", formula: Formula,
                 order: Optional[Tuple[Var, ...]], key):
        self._db = database
        self._formula = formula
        self._order = order
        self._key = key
        # What the last handle ran, for explain(); not the handle itself,
        # so dropping the handle lets it go.
        self._last_run: Optional[ExecutionPlan] = None

    @property
    def formula(self) -> Formula:
        return self._formula

    @property
    def arity(self) -> int:
        return self._db._plan_state(self._key).merged.arity

    def answers(
        self,
        limit: Optional[int] = None,
        project_columns: Optional[Sequence[int]] = None,
    ) -> Answers:
        """A lazy handle over the sharded execution's answer stream.

        The stream is byte-identical to unsharded serial enumeration;
        ``limit`` bounds it to a prefix.  The handle raises
        :class:`repro.errors.StaleResultError` if the database is
        mutated before it is fully materialized.
        """
        db = self._db
        state = db._plan_state(self._key)
        handle = Answers(
            state.merged,
            backend=ShardGatherBackend(state, db.structure.order.rank),
            workers=db._workers,
            pool=db.pool,
            version_source=lambda: (db.structure.version, db._epoch),
            row_budget=limit,
            project_columns=(
                tuple(project_columns) if project_columns is not None else None
            ),
        )
        self._last_run = handle.execution
        return handle

    def count(self) -> int:
        """``|q(A)|`` — per-shard branch counts summed where exact."""
        return self.answers().count()

    def test(self, candidate: Sequence[Element]) -> bool:
        """Constant-time membership via the merged pipeline."""
        return test_answer(
            self._db._plan_state(self._key).merged, tuple(candidate)
        )

    def explain(self) -> Dict[str, object]:
        """The plan's sharded layout plus, after a run, what actually
        moved: per-shard row counts from the gather's transfer stats."""
        db = self._db
        state = db._plan_state(self._key)
        report: Dict[str, object] = {
            "formula": str(self._formula),
            "sharded": state.shards is not None,
            "canonical": state.canonical,
            "shard_sizes": list(db.layout.sizes()),
            "shard_blockers": list(state.blockers),
            "maintainable": state.maintainable,
            "branches": (
                len(state.merged.branches)
                if state.merged.trivial is None
                else 0
            ),
        }
        run = self._last_run
        if run is not None:
            stats = run.transfer_stats
            if stats is not None and stats.chunks:
                report["runtime"] = stats.as_dict()
                report["backend_used"] = run.used_mode
        return report

    def __repr__(self) -> str:
        return f"ShardedQuery({str(self._formula)!r})"


class ShardedDatabase:
    """Region-sharded structures with scatter-gather query execution.

    ``shards`` is the target shard count (see
    :class:`repro.shard.partition.RegionPartitioner`).  The front-end
    owns its structure: mutate it only through :meth:`apply` /
    :meth:`insert_fact` / :meth:`remove_fact`.
    """

    def __init__(
        self,
        structure: Structure,
        shards: int = 4,
        workers: Optional[int] = None,
        partitioner: Optional[RegionPartitioner] = None,
    ):
        self._structure = structure
        self._workers = workers
        self._partitioner = partitioner or RegionPartitioner(shards)
        self._layout = self._partitioner.partition(structure)
        self._substructures = [
            structure.induced_substructure(shard)
            for shard in self._layout.shards
        ]
        self._plans: Dict[object, _ShardPlan] = {}
        # Moves when a failed commit drops its maintained plans (the
        # revert puts the version back; see Database._epoch).
        self._epoch = 0
        self._pool: Optional[WorkerPool] = None
        self._lock = threading.RLock()
        self._closed = False

    # -- introspection -------------------------------------------------

    @property
    def structure(self) -> Structure:
        return self._structure

    @property
    def layout(self) -> ShardLayout:
        return self._layout

    @property
    def substructures(self) -> Tuple[Structure, ...]:
        return tuple(self._substructures)

    @property
    def pool(self) -> WorkerPool:
        """The lazily-started worker pool (only started when a plan the
        stream gather hands to the engine runs in a parallel mode)."""
        with self._lock:
            if self._pool is None:
                self._pool = WorkerPool(self._workers)
            return self._pool

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "shards": len(self._layout),
                "shard_sizes": list(self._layout.sizes()),
                "components": self._layout.components,
                "cached_plans": len(self._plans),
                "canonical_plans": sum(
                    1 for plan in self._plans.values() if plan.canonical
                ),
                "version": self._structure.version,
            }

    # -- querying ------------------------------------------------------

    def query(
        self,
        query: Union[Formula, str],
        order: Optional[Sequence[Union[Var, str]]] = None,
    ) -> ShardedQuery:
        """Prepare (or cache-hit) a sharded plan for ``query``."""
        self._check_open()
        formula = coerce_formula(query)
        order_vars = None
        if order is not None:
            order_vars = tuple(
                var if isinstance(var, Var) else Var(var) for var in order
            )
        key = (str(formula), order_vars)
        with self._lock:
            if key not in self._plans:
                self._plans[key] = self._build_plan(formula, order_vars)
        return ShardedQuery(self, formula, order_vars, key)

    def count(self, query: Union[Formula, str]) -> int:
        return self.query(query).count()

    def test(
        self, query: Union[Formula, str], candidate: Sequence[Element]
    ) -> bool:
        return self.query(query).test(candidate)

    def _plan_state(self, key) -> _ShardPlan:
        with self._lock:
            state = self._plans.get(key)
            if state is None:
                formula = coerce_formula(key[0])
                state = self._build_plan(formula, key[1])
                self._plans[key] = state
            return state

    def _build_plan(
        self, formula: Formula, order: Optional[Tuple[Var, ...]]
    ) -> _ShardPlan:
        template = Pipeline(
            self._structure, formula, order=order, build_graph=False
        )
        if template.trivial is not None:
            # Localization collapsed the query to a constant; there is no
            # graph to shard and the template already answers everything.
            return _ShardPlan(formula, None, None, template, False, ())
        blockers = tuple(shard_blockers(template))
        if blockers or not self._layout.shards:
            merged = Pipeline(self._structure, formula, order=order)
            return _ShardPlan(formula, None, None, merged, False, blockers)
        shard_pipelines = [
            template.derive(substructure)
            for substructure in self._substructures
        ]
        merged = template.merge(self._structure, shard_pipelines)
        return _ShardPlan(
            formula, template, shard_pipelines, merged, True, ()
        )

    # -- updates -------------------------------------------------------

    def insert_fact(self, relation: str, *elements: Element) -> CommitResult:
        return self.apply([(True, relation, tuple(elements))])

    def remove_fact(self, relation: str, *elements: Element) -> CommitResult:
        return self.apply([(False, relation, tuple(elements))])

    def apply(self, changes) -> CommitResult:
        """Atomically apply a changeset with shard-aware maintenance.

        Operations are validated up front (unknown relation, arity,
        domain membership) and netted; the effective ops are split by
        element ownership and applied to the full structure *and* each
        owning region's substructure.  Ops whose elements span shards
        are bridges: the owning shards are merged in the layout and all
        cached plans rebuild cold.  Otherwise every maintainable cached
        plan is refreshed with one local-recomputation pass
        (:func:`repro.core.dynamic.maintain`), its shard graphs are retired
        (``canonical`` drops — the maintained merged pipeline answers
        until a fresh plan is built), and non-maintainable plans are
        evicted.
        """
        self._check_open()
        if isinstance(changes, Changeset):
            source_ops = changes.ops
        else:
            source_ops = changes
        validated = Changeset(structure=self._structure, ops=source_ops)
        ops = list(validated.ops)
        with self._lock:
            version_before = self._structure.version
            fingerprint_before = fingerprint(self._structure)
            effective = net_effects(self._structure, ops)
            if not effective:
                return CommitResult(
                    len(ops),
                    0,
                    version_before,
                    version_before,
                    fingerprint_before,
                    fingerprint_before,
                )
            per_shard: Dict[int, List] = {}
            bridges: List[frozenset] = []
            for insert, relation, elements in effective:
                touched = self._layout.shards_of(elements)
                if len(touched) > 1:
                    bridges.append(touched)
                else:
                    for index in touched:
                        per_shard.setdefault(index, []).append(
                            (insert, relation, elements)
                        )
            if bridges:
                maintained = self._commit_with_bridges(effective, bridges)
            else:
                maintained = self._commit_in_place(effective, per_shard)
            return CommitResult(
                len(ops),
                len(effective),
                version_before,
                self._structure.version,
                fingerprint_before,
                fingerprint(self._structure),
                maintained_plans=maintained,
            )

    def _commit_with_bridges(
        self, effective, bridges: List[frozenset]
    ) -> int:
        """A cross-shard fact merges the owning shards; plans go cold.

        The merged region is rebuilt from the post-commit structure, so
        the union-of-components invariant is restored by construction —
        sharded execution never silently answers across a cut it cannot
        see.
        """
        apply_ops(self._structure, effective)
        self._layout = merge_shards(
            self._layout, bridges, self._structure.order.rank
        )
        self._substructures = [
            self._structure.induced_substructure(shard)
            for shard in self._layout.shards
        ]
        self._plans.clear()
        return 0

    def _commit_in_place(self, effective, per_shard: Dict[int, List]) -> int:
        """The session's maintenance pass; the mutation also applies each
        region's share of the ops to its substructure.

        Failures follow the in-place policy of
        :func:`repro.core.dynamic.maintain_in_place`: the ops are reverted
        everywhere, versions included, and once the mutation had completed
        the maintained plans are dropped and ``_epoch`` moves, so a handle
        still streaming one of them goes stale.
        """
        maintained: Dict[object, _ShardPlan] = {}
        evict = []
        for key, plan in self._plans.items():
            if plan.maintainable:
                if plan.maintainer is None:
                    plan.maintainer = PipelineMaintainer(plan.merged)
                maintained[key] = plan
            else:
                evict.append(key)
        targets = [(self._structure, effective)] + [
            (self._substructures[index], ops) for index, ops in per_shard.items()
        ]

        def drop():
            for key in maintained:
                del self._plans[key]
            self._epoch += 1

        maintain_in_place(
            [plan.maintainer for plan in maintained.values()], targets, drop
        )
        for plan in maintained.values():
            # Maintenance renumbers nothing: the merged graph stays
            # correct but is no longer the cold build's numbering, and
            # the (unmaintained) shard graphs are stale — retire them.
            plan.shards = None
            plan.template = None
            plan.canonical = False
        for key in evict:
            del self._plans[key]
        return len(maintained)

    # -- layout management ---------------------------------------------

    def repartition(self, shards: Optional[int] = None) -> ShardLayout:
        """Re-run the partitioner against the current structure.

        Recomputes components (removals may have split some), rebuilds
        every substructure, and drops all cached plans — the next query
        per key builds fresh canonical shard pipelines.
        """
        self._check_open()
        with self._lock:
            if shards is not None:
                self._partitioner = RegionPartitioner(
                    shards, self._partitioner.radius
                )
            self._layout = self._partitioner.partition(self._structure)
            self._substructures = [
                self._structure.induced_substructure(shard)
                for shard in self._layout.shards
            ]
            self._plans.clear()
            return self._layout

    # -- lifecycle -----------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise EngineError("this ShardedDatabase is closed")

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._plans.clear()
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedDatabase(|A|={self._structure.cardinality}, "
            f"shards={len(self._layout)}, plans={len(self._plans)})"
        )
