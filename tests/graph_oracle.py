"""The explicit-edge oracle for the colored graph.

``repro.core.colored_graph.ColoredGraph`` stores no edges: it reads them
off its link-radius balls and keeps one degree per node.  This module
computes the edges the way the graph once stored them — Step 4 of
Proposition 3.4: two nodes are linked iff some of their components lie
within the linking radius — from a fresh evaluator over the structure,
so tests can hold ``adjacent`` / ``neighbors`` / ``degree`` and the
small/big block split to it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.core.colored_graph import BOTTOM
from repro.fo.localize import LocalEvaluator


def live_ids(graph) -> Set[int]:
    """The ids of the graph's live nodes (tombstones and the dummy node
    excluded)."""
    return set(graph._by_key.values()) - {BOTTOM}


def finalize_edges(graph, structure=None) -> List[FrozenSet[int]]:
    """Every node's neighbour set, by id (tombstones and the dummy node
    get none): nodes are linked iff some components are within the
    linking radius in ``structure`` (the graph's own by default)."""
    evaluator = LocalEvaluator(structure if structure is not None else graph.structure, {})
    live = live_ids(graph)
    containing: Dict[object, List[int]] = {}
    for node_id in sorted(live):
        for element in set(graph.nodes[node_id].elements):
            containing.setdefault(element, []).append(node_id)
    adjacency: List[Set[int]] = [set() for _ in graph.nodes]
    for node_id in live:
        for component in set(graph.nodes[node_id].elements):
            for other_element in evaluator.ball(component, graph.link_radius):
                adjacency[node_id].update(containing.get(other_element, ()))
        adjacency[node_id].discard(node_id)
    # Symmetrize (ball membership is symmetric; this makes the oracle
    # independent of that argument).
    for node_id, neighbors in enumerate(adjacency):
        for other_id in neighbors:
            adjacency[other_id].add(node_id)
    return [frozenset(neighbors) for neighbors in adjacency]


def small_blocks(branch, adjacency) -> List[int]:
    """The small/big block split of ``repro.core.enumeration``, computed
    from explicit degrees: a block is small when its list is no longer
    than the other blocks' maximum degrees summed."""
    max_degree_of = [
        max((len(adjacency[node]) for node in node_list), default=0)
        for node_list in branch.lists
    ]
    total = sum(max_degree_of)
    small = [
        j
        for j, node_list in enumerate(branch.lists)
        if len(node_list) <= total - max_degree_of[j]
    ]
    return sorted(small, key=lambda j: len(branch.lists[j]))
