"""Dynamic updates: maintain the preprocessing under fact insertions and
deletions.

The paper's conclusion poses this as the natural follow-up ("it would be
desirable to update efficiently the data structure ... without
recomputing everything from scratch"), solved later by Vigny
[arXiv:2010.02982] with ``O(n^eps)`` update time.  This module provides a
*local-recomputation* maintainer in that spirit:

* a fact touching elements ``S`` can only affect colored-graph nodes,
  colors, and edges within a radius-``rho`` ball around ``S``, where
  ``rho = k * (2r+1) + 2r + 2`` depends only on the query — because node
  existence (cluster connectivity), node colors (r-local unit formulas),
  and edges (linking distance) are all neighborhood-determined;
* the update procedure *diffs* that ball: it re-enumerates the cluster
  keys meeting it against the *new* structure, removes the nodes whose
  key is gone, adds the new keys, installs the region's new link-radius
  balls (the graph stores no edges, only balls and one degree per node),
  moves each degree an appeared or vanished edge touches, and moves a
  node between branch lists only when its colour changed.  A surviving
  node keeps its id; a commit that leaves the Gaifman graph as it was (a
  colour flip) skips the keys, balls and degrees altogether.  Everything
  else is untouched.

Cost per update: ``O(d^{h(|q|)})`` — independent of ``n`` up to the list
splicing (kept sorted with bisect), versus full re-preprocessing at
``O(n^{1+eps})``.

The surgery never writes shared state.  A maintained graph is usually a
clone of a session template or a fork of a pinned head's graph, and
:class:`repro.core.colored_graph.ColoredGraph` is copy-on-write: removed
nodes become colourless tombstones whose ids the next new keys reuse, a
recoloured node is replaced through ``set_colors``, and a rewire
replaces balls (immutable ``frozenset``s) and writes degrees in the
maintained graph's own lists, which :meth:`ColoredGraph.clone` copied.
So a maintainer needs no private copy of the graph up front, and the
template, the pinned head and every sibling clone stay as they were.

**Supported fragment.**  Queries whose localization introduced *no
derived predicates and no counting atoms* — i.e. the localized formula is
built from atoms, distance atoms and relativized quantifiers.  Counting
atoms compare against structure-wide totals (``|U|``), which a single
update shifts *globally*; maintaining them needs Vigny's heavier
machinery and is out of scope here (raises
:class:`UnsupportedQueryError`).

The machinery lives in :class:`PipelineMaintainer`, which maintains *one*
pipeline in place and is what :class:`repro.session.Database` (and
:class:`repro.shard.ShardedDatabase`) attaches to every eligible cached
plan.  :func:`maintain` is the one batch-commit pass every commit path
runs: each maintainer's reach before the mutation, the mutation once,
then one :meth:`PipelineMaintainer.refresh` per maintainer over the
union of the reach before and after.  Updates go through the session
(``Database.insert_fact`` / ``remove_fact`` / ``apply``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Hashable, List, Sequence, Set, Tuple

from repro.core.colored_graph import NO_COLORS, cluster_keys
from repro.core.pipeline import Pipeline
from repro.errors import UnsupportedQueryError
from repro.fo.syntax import CountCmp, subformulas
from repro.structures.gaifman_graph import ball_of_set
from repro.structures.structure import Structure

Element = Hashable


def maintenance_blockers(pipeline: Pipeline) -> List[str]:
    """Why a pipeline cannot be locally maintained (empty = eligible)."""
    blockers: List[str] = []
    localized = pipeline.localized
    if localized.derived_formulas:
        blockers.append(
            "localization materialized derived predicates (unrelativized "
            "quantifiers with far witnesses); see [Vig20] for the general "
            "machinery"
        )
    if pipeline.trivial is None and any(
        isinstance(node, CountCmp) for node in subformulas(localized.formula)
    ):
        blockers.append(
            "counting atoms compare against structure-wide totals"
        )
    return blockers


def supports_maintenance(pipeline: Pipeline) -> bool:
    """True when :class:`PipelineMaintainer` can keep the pipeline fresh."""
    return not maintenance_blockers(pipeline)


UpdateOp = Tuple[bool, str, Tuple[Element, ...]]


def net_effects(
    structure: Structure, ops: Sequence[UpdateOp]
) -> List[UpdateOp]:
    """The net fact changes of replaying ``ops`` in order on ``structure``.

    Each op is ``(insert, relation, elements)`` with replay semantics
    matching ``add_fact``/``remove_fact``: inserting a present fact and
    removing an absent one are no-ops, and a remove-then-reinsert of the
    same fact cancels out.  The result contains exactly one op per fact
    whose final presence differs from its initial presence — what a
    batch commit actually needs to apply and maintain.  Order follows
    first touch, so replaying the result is deterministic.
    """
    initial: dict = {}
    final: dict = {}
    touch_order: List[Tuple[str, Tuple[Element, ...]]] = []
    for insert, relation, elements in ops:
        fact = (relation, tuple(elements))
        if fact not in initial:
            initial[fact] = structure.has_fact(relation, *fact[1])
            final[fact] = initial[fact]
            touch_order.append(fact)
        final[fact] = bool(insert)
    return [
        (final[fact], fact[0], fact[1])
        for fact in touch_order
        if final[fact] != initial[fact]
    ]


def apply_ops(structure: Structure, ops: Sequence[UpdateOp]) -> None:
    """Apply ``(insert, relation, elements)`` triples to ``structure``
    in order (the one op-application loop every commit path shares)."""
    for insert, relation, elements in ops:
        if insert:
            structure.add_fact(relation, *elements)
        else:
            structure.remove_fact(relation, *elements)


def maintain_in_place(
    maintainers: Sequence[PipelineMaintainer],
    targets: Sequence[Tuple[Structure, Sequence[UpdateOp]]],
    drop: Callable[[], None],
) -> List[bool]:
    """:func:`maintain` over ``(structure, ops)`` targets mutated in place:
    the first is the structure the maintainers read, any others (shard
    substructures) take their share of the ops along.

    If anything raises, the applied ops are undone newest first and every
    version counter is put back, so the next logged commit's
    ``version_before`` is still the last logged ``version_after``.  If
    the mutation had completed, a refresh may have run part-way, so
    ``drop()`` discards the maintained plans before the error propagates.
    """
    versions = [(structure, structure.version) for structure, _ in targets]
    applied: List[Tuple[Structure, UpdateOp]] = []

    def mutate():
        for structure, ops in targets:
            for op in ops:
                apply_ops(structure, [op])
                applied.append((structure, op))

    try:
        return maintain(maintainers, targets[0][1], mutate)
    except BaseException:
        for structure, (insert, relation, elements) in reversed(applied):
            apply_ops(structure, [(not insert, relation, elements)])
        for structure, version in versions:
            structure._restore_lineage(version, structure.generation)
        if len(applied) == sum(len(ops) for _, ops in targets):
            drop()
        raise


def maintain(
    maintainers: Sequence[PipelineMaintainer],
    effective: Sequence[UpdateOp],
    mutate: Callable[[], None],
) -> List[bool]:
    """One batch commit's maintenance pass; returns the refresh flags.

    ``effective`` are the commit's net fact changes (:func:`net_effects`)
    and ``mutate`` applies them — once — to the structure every
    maintainer reads.  Each maintainer's refresh region is the union of
    the touched elements' reach *before* and *after* the mutation: an
    inserted edge extends reach, a deleted one used to provide it.  One
    pass per maintainer covers the whole batch because maintenance only
    reconciles the initial and final structures (intermediate states
    are unobservable), and every node whose neighborhood-determined data
    differs between them lies within the query radius of a changed fact
    in one of the two Gaifman graphs.

    When the touched elements' Gaifman neighbourhoods are the same after
    the mutation as before (a colour flip, or an edge parallel to an
    existing one), no node, edge or ball can have changed, and every
    refresh only recolours.  Otherwise a refresh needs the region's
    neighbour sets from before the mutation; it reads them off the
    balls its graph still holds from then, so nothing is taken here.

    Exceptions propagate unchanged: :func:`maintain_in_place` undoes an
    in-place commit, and the forked commit falls back to a cold head.
    """
    if not maintainers:
        mutate()
        return []
    structure = maintainers[0].structure
    touched = tuple(
        {element for _, _, elements in effective for element in elements}
    )
    before = [frozenset(structure.neighbors(element)) for element in touched]
    regions = [maintainer.reach(touched) for maintainer in maintainers]
    mutate()
    rewire = before != [structure.neighbors(element) for element in touched]
    return [
        maintainer.refresh(touched, region | maintainer.reach(touched), rewire)
        for maintainer, region in zip(maintainers, regions)
    ]


class PipelineMaintainer:
    """Keeps one built :class:`Pipeline` consistent under fact updates.

    The maintainer does not own the mutation: commits that coordinate
    several pipelines over one structure run :func:`maintain`, which
    takes :meth:`reach` before *and* after the mutation and then calls
    :meth:`refresh`, so the structure is mutated exactly once.
    """

    def __init__(self, pipeline: Pipeline):
        blockers = maintenance_blockers(pipeline)
        if blockers:
            raise UnsupportedQueryError(
                "dynamic updates do not support this query: "
                + "; ".join(blockers)
            )
        self.pipeline = pipeline
        self.structure: Structure = pipeline.structure
        self.updates_applied = 0

    def reach(self, touched: Sequence[Element]) -> Set[Element]:
        """Every element an update to ``touched`` can affect (one side)."""
        return set(
            ball_of_set(self.structure, set(touched), self.refresh_radius)
        )

    @property
    def refresh_radius(self) -> int:
        """How far an update can reach (query-dependent, n-independent).

        Every quantity attached to a node — existence (pairwise component
        distances <= 2r+1 for cluster connectivity), colors (r-local unit
        evaluations around components, including distance atoms whose
        paths may route through a changed edge), and its edges (component
        distances <= 2r+1) — changes only if some *component* lies within
        the linking radius ``2r+1`` of a touched element: any changed
        distance or visible fact is anchored at a component with a path of
        length at most ``r + bound <= 2r+1`` to the touched elements.  One
        extra unit of slack is kept for safety.
        """
        return self.pipeline.link_radius + 1

    # ------------------------------------------------------------------
    # Local recomputation
    # ------------------------------------------------------------------

    def refresh(
        self, touched: Sequence[Element], region: Set[Element], rewire: bool
    ) -> bool:
        """Bring every node with a component in ``region`` up to date,
        writing only what differs.

        ``region`` must be the union of :meth:`reach` computed before and
        after the structure mutation was applied.  ``rewire=False``
        promises that the Gaifman graph did not change (a colour flip):
        then no node appears or disappears and no ball or degree moves,
        so only colours are re-evaluated and the evaluator keeps its
        balls.  With ``rewire=True``, :meth:`_rekey` diffs the region's
        keys and balls: each node that was added, removed or has a
        component whose ball changed gets its degree from its new
        neighbour set, and every other node moves by one per edge to
        such a node that appeared or vanished.

        Returns whether the pipeline's *durable* plan state changed — a
        node removed or added, an edge (a degree) or a colour rewritten
        (cleared memo caches rebuild on demand and do not count).  The
        session uses this as the dirty flag for incremental checkpoint
        spills.
        """
        self.updates_applied += 1
        pipeline = self.pipeline
        evaluator = pipeline.evaluator
        # Stale caches: memoized local evaluations may cross the modified
        # facts, unary sets change on unary-fact updates, and balls change
        # with the Gaifman graph.
        if rewire:
            evaluator._ball_cache.clear()
        evaluator._memo.clear()
        evaluator._unary_cache.clear()
        # Armed enumerators hold skip/reach memos over the old graph.
        if hasattr(pipeline, "_armed_branches"):
            del pipeline._armed_branches
        if pipeline.trivial is not None:
            return False
        graph = pipeline.graph
        assert graph is not None
        live = {
            node_id
            for element in region
            for node_id in graph.nodes_containing(element)
        }
        changed = False
        if rewire:
            live, changed = self._rekey(live, region)
        for node_id in sorted(live):
            node = graph.node(node_id)
            colors = pipeline.node_colors(node)
            if colors != node.unit_values:
                self._move_buckets(node, colors)
                graph.set_colors(node_id, colors)
                changed = True
        return changed

    def _rekey(self, live: Set[int], region: Set[Element]) -> Tuple[Set[int], bool]:
        """Diff the region's node keys against the new structure (Step 3
        of Prop 3.4, restricted to tuples meeting the region): remove the
        nodes whose key is gone, add the new keys, and rewire the graph
        (the balls that changed, and every degree they move).  Returns
        the region's live ids and whether a node or an edge changed.

        ``live`` holds the nodes with a component in the region.  Only
        the removed ones and those with a component whose ball changed
        can lose or gain an edge to a surviving node; their neighbour
        sets before the change are read first, off the balls the graph
        still holds from before the mutation."""
        pipeline = self.pipeline
        graph = pipeline.graph
        assert graph is not None
        evaluator = pipeline.evaluator
        # Tuples meeting the region have their first component within
        # (k-1)*link of it.
        seeds = ball_of_set(
            self.structure, region, (pipeline.arity - 1) * pipeline.link_radius
        )
        keys = dict.fromkeys(
            cluster_keys(
                self.structure,
                evaluator,
                pipeline.arity,
                pipeline.link_radius,
                sorted(seeds, key=self.structure.order.rank),
                region,
            )
        )
        dead = set()
        for node_id in live:
            node = graph.node(node_id)
            if (node.elements, node.positions) not in keys:
                dead.add(node_id)
                self._move_buckets(node, NO_COLORS)
        balls = {}
        for element in region:
            ball = evaluator.ball(element, pipeline.link_radius)
            if ball != graph.balls[element]:
                balls[element] = ball
        before = graph.neighbor_sets(
            dead.union(
                node_id
                for element in balls
                for node_id in graph.nodes_containing(element)
            )
        )
        graph.remove_nodes(dead)
        survivors = live - dead
        born = [
            graph.add_node(*key) for key in keys if graph.node_id(*key) is None
        ]
        moved = graph.rewire(before, balls, born)
        return survivors.union(born), bool(dead) or bool(born) or moved

    def _move_buckets(self, node, colors) -> None:
        """Move ``node`` between ``(plan, block, vector)`` buckets (the
        branch lists) from its stored colours to ``colors``."""
        index = self.pipeline.block_vector_index
        old = node.unit_values
        for plan_index in old.keys() | colors.keys():
            before, after = old.get(plan_index), colors.get(plan_index)
            if before == after:
                continue
            if before is not None:
                bucket = index.get((plan_index, node.positions, before))
                if bucket is not None:
                    position = bisect_left(bucket, node.node_id)
                    if position < len(bucket) and bucket[position] == node.node_id:
                        del bucket[position]
            if after is not None:
                insort(
                    index.setdefault((plan_index, node.positions, after), []),
                    node.node_id,
                )
