"""Counting answers (Lemma 3.6, Proposition 3.7, Theorem 2.5).

Per branch ``(P, t)`` the task is: count tuples choosing one node per
block from the branch's lists such that no two chosen nodes are adjacent
in the colored graph.  Following Lemma 3.6 we eliminate the negated
adjacency constraints one at a time::

    |gamma and not E(i,j)|  =  |gamma|  -  |gamma and E(i,j)|

Each leaf of the recursion has only *positive* adjacency constraints; its
position graph splits into connected components, the count is the product
of per-component counts, and each component is counted by the brute-force
neighborhood walk of Lemma 3.2 (over the colored graph, whose degree is
``d^{h(|q|)}``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from repro.core.colored_graph import ColoredGraph
from repro.core.pipeline import Branch, Pipeline
from repro.storage.cost_model import CostMeter, tick

Pair = Tuple[int, int]
# Per block position: that list's nodes filed under their components.
ElementIndexes = Dict[int, Dict[Hashable, List[int]]]


def count_answers(pipeline: Pipeline, meter: Optional[CostMeter] = None) -> int:
    """``|q(A)|`` in pseudo-linear time (Theorem 2.5)."""
    if pipeline.trivial is not None:
        return trivial_count(pipeline)
    total = 0
    for branch_index in range(len(pipeline.branches)):
        total += count_branch_at(pipeline, branch_index, meter)
    return total


def trivial_count(pipeline: Pipeline) -> int:
    """The count when localization collapsed the query to a constant."""
    assert pipeline.trivial is not None
    if not pipeline.trivial:
        return 0
    return pipeline.structure.cardinality ** pipeline.arity


def count_branch_at(
    pipeline: Pipeline, branch_index: int, meter: Optional[CostMeter] = None
) -> int:
    """Count one branch of a pipeline, addressed by index.

    Theorem 2.5 makes ``|q(A)|`` a sum of independent per-branch counts;
    the sharded gather sums this term per shard.  Counting only *reads*
    the colored graph and the branch lists.
    """
    assert pipeline.graph is not None
    return count_branch(pipeline.graph, pipeline.branches[branch_index], meter)


def count_branch(
    graph: ColoredGraph, branch: Branch, meter: Optional[CostMeter] = None
) -> int:
    """Count pairwise-non-adjacent block assignments for one branch."""
    block_count = len(branch.lists)
    if block_count == 0:
        # A 0-ary branch: the empty tuple is its single answer.
        return 1
    negated: FrozenSet[Pair] = frozenset(
        (i, j) for i in range(block_count) for j in range(i + 1, block_count)
    )
    return _count(graph, branch.lists, negated, frozenset(), meter, {})


def _count(
    graph: ColoredGraph,
    lists: Sequence[Sequence[int]],
    negated: FrozenSet[Pair],
    positive: FrozenSet[Pair],
    meter: Optional[CostMeter],
    indexes: ElementIndexes,
) -> int:
    if negated:
        # Lemma 3.6 induction step: resolve one negated adjacency.
        pair = min(negated)
        remaining = negated - {pair}
        tick(meter, "count.split")
        without = _count(graph, lists, remaining, positive, meter, indexes)
        with_edge = _count(
            graph, lists, remaining, positive | {pair}, meter, indexes
        )
        return without - with_edge
    # Base case: only positive adjacency constraints; split into connected
    # components of the position graph.
    block_count = len(lists)
    component_of = list(range(block_count))

    def find(i: int) -> int:
        while component_of[i] != i:
            component_of[i] = component_of[component_of[i]]
            i = component_of[i]
        return i

    for i, j in positive:
        root_i, root_j = find(i), find(j)
        if root_i != root_j:
            component_of[root_j] = root_i
    components: Dict[int, List[int]] = {}
    for i in range(block_count):
        components.setdefault(find(i), []).append(i)
    product = 1
    for members in components.values():
        product *= _count_component(
            graph, lists, members, positive, meter, indexes
        )
        if product == 0:
            return 0
    return product


def _count_component(
    graph: ColoredGraph,
    lists: Sequence[Sequence[int]],
    members: List[int],
    positive: FrozenSet[Pair],
    meter: Optional[CostMeter],
    indexes: ElementIndexes,
) -> int:
    """Count assignments for one connected component (Lemma 3.2 on G).

    Singleton components cost ``O(1)`` (list length).  Larger components
    are enumerated by backtracking, extending along positive adjacency
    edges, so candidates are always neighbours of an already assigned
    node: the position's list members with a component in that node's
    ball union, drawn through the list's element index (``indexes``,
    built once per list and branch) — cost per start node bounded by the
    graph degree to the component size.
    """
    if len(members) == 1:
        tick(meter, "count.singleton")
        return len(lists[members[0]])
    member_set = set(members)
    edges: Dict[int, List[int]] = {member: [] for member in members}
    for i, j in positive:
        if i in member_set and j in member_set:
            edges[i].append(j)
            edges[j].append(i)
    # Order positions so each (after the first) touches an earlier one.
    order = [members[0]]
    placed = {members[0]}
    while len(order) < len(members):
        progressed = False
        for member in members:
            if member in placed:
                continue
            if any(other in placed for other in edges[member]):
                order.append(member)
                placed.add(member)
                progressed = True
        if not progressed:  # pragma: no cover - components are connected
            raise AssertionError("disconnected component in positive edges")
    first_list = lists[order[0]]
    for member in order[1:]:
        if member not in indexes:
            indexes[member] = graph.element_index(lists[member])
    count = 0

    def extend(depth: int, assignment: Dict[int, int]) -> int:
        if depth == len(order):
            return 1
        position = order[depth]
        anchors = [other for other in edges[position] if other in assignment]
        candidates = graph.neighbors_in(assignment[anchors[0]], indexes[position])
        found = 0
        for candidate in candidates:
            tick(meter, "count.candidate")
            if any(
                not graph.adjacent(assignment[other], candidate)
                for other in anchors[1:]
            ):
                continue
            assignment[position] = candidate
            found += extend(depth + 1, assignment)
            del assignment[position]
        return found

    for start in first_list:
        tick(meter, "count.start")
        count += extend(1, {order[0]: start})
    return count
