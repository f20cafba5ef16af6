"""Dynamic updates: maintain the preprocessing under fact insertions and
deletions.

The paper's conclusion poses this as the natural follow-up ("it would be
desirable to update efficiently the data structure ... without
recomputing everything from scratch"), solved later by Vigny
[arXiv:2010.02982] with ``O(n^eps)`` update time.  This module provides a
*local-recomputation* maintainer in that spirit:

* a fact touching elements ``S`` can only affect the colored-graph data
  near ``S``, with one radius per kind of data.  A node's colours are
  the truth values of its plan units, ``c``-local formulas
  (``c`` = the largest :func:`repro.fo.syntax.locality_radius` of the
  units, which is the localization radius ``r`` on every query seen so
  far), so they can change only if ``S`` lies within ``c`` of one of the
  node's components, in the Gaifman graph before or after the commit.
  A node's existence (cluster connectivity) and its edges are read off
  the links ``dist <= L`` (``L = 2r+1``), which each element's
  link-radius ball lists; the ball of an element ``e`` changes only if
  ``e`` is within ``L - 1`` of ``S``, and then both ends of every link
  that appeared or vanished lie there too;
* the update procedure *diffs* from the links: it recomputes the balls
  within ``L - 1`` of ``S``, reads the changed links off their symmetric
  differences with the stored balls, and enumerates only the member
  sets (at most ``k`` elements) that hold a changed link and are
  connected by links on one side of the commit but not the other.  It
  removes the nodes over the sets that came apart, adds the keys over
  the sets that came together, installs the new balls (the graph stores
  no edges and no degrees, only balls), re-evaluates the colours of the
  nodes within ``c`` and of the new ones, and moves a node between
  branch lists only when its colour changed.  A surviving node keeps
  its id; a commit that leaves the Gaifman graph as it was (a colour
  flip) skips the keys and balls altogether, and one that
  changes no unary relation keeps the evaluator's unary sets.
  Everything else is untouched.

Cost per update: ``O(d^{h(|q|)})`` — independent of ``n`` up to the list
splicing (kept sorted with bisect), versus full re-preprocessing at
``O(n^{1+eps})``.

The surgery never writes shared state.  A maintained graph is usually a
clone of a session template or a fork of a pinned head's graph, and
:class:`repro.core.colored_graph.ColoredGraph` is copy-on-write: removed
nodes become colourless tombstones whose ids the next new keys reuse, a
recoloured node is replaced through ``set_colors``, and a rewire
replaces balls (immutable ``frozenset``s) in the maintained graph's own
ball table, which :meth:`ColoredGraph.clone` copied.
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
then one :meth:`PipelineMaintainer.refresh` per maintainer over its
reach.  Updates go through the session
(``Database.insert_fact`` / ``remove_fact`` / ``apply``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Dict, Hashable, List, Mapping, Sequence, Set, Tuple

from repro.core.colored_graph import NO_COLORS, member_keys
from repro.core.pipeline import Pipeline
from repro.errors import UnsupportedQueryError
from repro.fo.syntax import CountCmp, locality_radius, subformulas
from repro.structures.gaifman_graph import distances_from_set
from repro.structures.structure import Structure
from repro.util.itertools2 import connected_subsets

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
    maintainer reads.  Each maintainer's :meth:`~PipelineMaintainer.reach`
    is taken before the mutation, so a failing one leaves nothing to
    undo, and serves the Gaifman graph after it too: an edge the commit
    adds or removes joins two touched elements, and a shortest path to
    the touched set stops at the first touched element it meets, so it
    never crosses such an edge and every distance to the set is the same
    before and after the mutation.  One pass per maintainer covers the
    whole batch because maintenance only reconciles the initial and final
    structures (intermediate states are unobservable), and every node
    whose neighbourhood-determined data differs between them lies within
    the radius of that data of a changed fact.

    When the touched elements' Gaifman neighbourhoods are the same after
    the mutation as before (a colour flip, or an edge parallel to an
    existing one), no node, edge or ball can have changed, and every
    refresh only recolours.  Otherwise a refresh needs the region's
    neighbour sets from before the mutation; it reads them off the
    balls its graph still holds from then, so nothing is taken here.
    After the mutation, each maintainer's evaluator drops its cached set
    of every unary relation the commit changed, and keeps the others.

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
    unary = {relation for _, relation, elements in effective if len(elements) == 1}
    for maintainer in maintainers:
        for relation in unary:
            maintainer.pipeline.evaluator.invalidate_unary(relation)
    rewire = before != [structure.neighbors(element) for element in touched]
    return [
        maintainer.refresh(touched, region, rewire)
        for maintainer, region in zip(maintainers, regions)
    ]


class PipelineMaintainer:
    """Keeps one built :class:`Pipeline` consistent under fact updates.

    The maintainer does not own the mutation: commits that coordinate
    several pipelines over one structure run :func:`maintain`, which
    takes :meth:`reach` before the mutation, mutates the structure
    exactly once and then calls :meth:`refresh`.
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
        # Colours are the plan units' truth values, each determined by
        # the induced substructure on the unit's locality ball.
        self.color_radius = max(
            (locality_radius(unit) for plan in pipeline.plans for unit in plan.units),
            default=0,
        )

    def reach(self, touched: Sequence[Element]) -> Dict[Element, int]:
        """Each element within :attr:`refresh_radius` of ``touched``,
        mapped to its distance from them (one breadth-first search)."""
        return distances_from_set(self.structure, touched, self.refresh_radius)

    @property
    def refresh_radius(self) -> int:
        """How far a refresh reads around the touched elements
        (query-dependent, n-independent): the larger of its two radii.

        A node's colours change only if a touched element lies within
        :attr:`color_radius` of one of its components.  Its existence
        (its components connected by links ``dist <= L``, ``L = 2r+1``)
        and its edges (some component distance <= ``L``) change only if
        a link changes, and a link ``{a, b}`` changes only if a changed
        Gaifman edge lies on a path of length ``<= L`` between them, so
        both ``a`` and ``b`` are within ``L - 1`` of a touched element.
        The balls are recomputed, and the changed links read off, within
        ``L - 1``.
        """
        return max(self.color_radius, self.pipeline.link_radius - 1)

    # ------------------------------------------------------------------
    # Local recomputation
    # ------------------------------------------------------------------

    def refresh(
        self, touched: Sequence[Element], region: Mapping[Element, int], rewire: bool
    ) -> bool:
        """Bring every node the commit can have changed up to date,
        writing only what differs.

        ``region`` is :meth:`reach` of ``touched``: each element within
        :attr:`refresh_radius` of them, mapped to its distance from them,
        which is the same in the Gaifman graph before and after the
        mutation (see :func:`maintain`).  ``rewire=False`` promises that
        the Gaifman graph did not change (a colour flip): then no node
        appears or disappears and no ball moves, so only colours
        are re-evaluated and the evaluator keeps its balls.  With
        ``rewire=True``, :meth:`_rekey` gets the elements within
        ``L - 1``, whose balls are the only ones that can change: it
        diffs their balls, adds and removes the nodes over the member
        sets a changed link joined or split, and installs the changed
        balls, which is every edge the commit moved.  Colours are then
        re-evaluated for the surviving nodes with a component within
        :attr:`color_radius` and for every node :meth:`_rekey` added.
        The evaluator's unary sets are :func:`maintain`'s to drop, since
        it sees which relations the commit changed.

        Returns whether the pipeline's *durable* plan state changed — a
        node removed or added, a ball (an edge) or a colour rewritten
        (cleared memo caches rebuild on demand and do not count).  The
        session uses this as the dirty flag for incremental checkpoint
        spills.
        """
        self.updates_applied += 1
        pipeline = self.pipeline
        evaluator = pipeline.evaluator
        # Stale caches: memoized local evaluations may cross the modified
        # facts, and balls change with the Gaifman graph.  (:func:`maintain`
        # has dropped the unary sets the commit changed.)
        if rewire:
            evaluator._ball_cache.clear()
        evaluator._memo.clear()
        # Armed enumerators hold skip/reach memos over the old graph.
        if hasattr(pipeline, "_armed_branches"):
            del pipeline._armed_branches
        if pipeline.trivial is not None:
            return False
        graph = pipeline.graph
        assert graph is not None
        changed = False
        recolor: Set[int] = set()
        if rewire:
            linked = {
                element
                for element, distance in region.items()
                if distance < pipeline.link_radius
            }
            born, changed = self._rekey(linked)
            recolor.update(born)
        for element, distance in region.items():
            if distance <= self.color_radius:
                recolor.update(graph.nodes_containing(element))
        for node_id in sorted(recolor):
            node = graph.node(node_id)
            colors = pipeline.node_colors(node)
            if colors != node.unit_values:
                self._move_buckets(node, colors)
                graph.set_colors(node_id, colors)
                changed = True
        return changed

    def _rekey(self, region: Set[Element]) -> Tuple[List[int], bool]:
        """Diff the node keys against the new structure from the links
        the commit changed (Step 3 of Prop 3.4), remove the nodes whose
        key is gone, add the new keys, and install the balls that
        changed.  Returns the added ids and whether a node or a ball
        changed.

        ``region`` holds the elements within ``L - 1`` of the touched
        ones, which are the only elements whose link-radius ball can
        change.  Each element of a changed ball's symmetric difference
        with the old one is a link ``{a, b}`` (``dist <= L``) that
        appeared or vanished.  A key's node exists iff its member set is
        connected by links, so a key can appear or vanish only with a
        member set of at most ``k`` elements that holds both ends of a
        changed link and is connected in the old link graph or in the
        new one, not both.  Those member sets are enumerated from the
        changed links, on the graph's balls (old) and on the new balls
        (new).  For ``k = 1`` there is no such set, and only balls
        move."""
        pipeline = self.pipeline
        graph = pipeline.graph
        assert graph is not None
        evaluator = pipeline.evaluator
        k = pipeline.arity
        rank = self.structure.order.rank
        old = graph.balls
        balls = {}
        for element in region:
            ball = evaluator.ball(element, pipeline.link_radius)
            if ball != old[element]:
                balls[element] = ball

        def new_links(element: Element):
            ball = balls.get(element)
            return old[element] if ball is None else ball

        connected_before: Set[frozenset] = set()
        connected_after: Set[frozenset] = set()
        for a, ball in balls.items():
            for b in ball.symmetric_difference(old[a]):
                if rank(a) > rank(b):
                    continue  # the same link, seen from ``b``
                for found, links in (
                    (connected_before, old.__getitem__),
                    (connected_after, new_links),
                ):
                    found.update(
                        members
                        for members in connected_subsets(a, links, k)
                        if b in members
                    )

        def keys(member_sets):
            for members in sorted(
                (tuple(sorted(members, key=rank)) for members in member_sets),
                key=lambda ordered: [rank(element) for element in ordered],
            ):
                yield from member_keys(members, members, k)

        dead = {graph.node_id(*key) for key in keys(connected_before - connected_after)}
        for node_id in dead:
            self._move_buckets(graph.node(node_id), NO_COLORS)
        graph.remove_nodes(dead)
        born = [graph.add_node(*key) for key in keys(connected_after - connected_before)]
        moved = graph.rewire(balls)
        return born, bool(dead) or bool(born) or moved

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
