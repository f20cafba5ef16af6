"""Tests for the colored graph construction (Steps 3-4 of Prop 3.4)."""

import pytest

from repro.core.colored_graph import BOTTOM, ColoredGraph, build_colored_graph
from repro.errors import UnsupportedQueryError
from repro.fo.localize import LocalEvaluator
from repro.structures.gaifman_graph import within_distance
from repro.structures.random_gen import random_colored_graph
from repro.structures.signature import Signature
from repro.structures.structure import Structure


@pytest.fixture
def path():
    """0 - 1 - 2 - 3 path."""
    db = Structure(Signature.of(E=2), range(4))
    for u in range(3):
        db.add_fact("E", u, u + 1)
    return db


def build(db, k, link_radius=1):
    evaluator = LocalEvaluator(db, {})
    return build_colored_graph(db, evaluator, k, link_radius)


class TestNodes:
    def test_bottom_node(self, path):
        graph = build(path, 2)
        bottom = graph.node(BOTTOM)
        assert bottom.elements == ()
        assert bottom.positions == ()

    def test_singletons_for_every_element_and_position(self, path):
        graph = build(path, 2)
        for element in path.domain:
            for position in ((0,), (1,)):
                assert graph.node_id((element,), position) is not None

    def test_adjacent_pairs_present(self, path):
        graph = build(path, 2)
        assert graph.node_id((0, 1), (0, 1)) is not None
        assert graph.node_id((1, 0), (0, 1)) is not None

    def test_far_pairs_absent(self, path):
        graph = build(path, 2)
        assert graph.node_id((0, 3), (0, 1)) is None

    def test_repeated_element_tuples_present(self, path):
        graph = build(path, 2)
        assert graph.node_id((2, 2), (0, 1)) is not None

    def test_larger_link_radius_connects_more(self, path):
        graph = build(path, 2, link_radius=3)
        assert graph.node_id((0, 3), (0, 1)) is not None

    def test_k_zero_graph_is_just_bottom(self, path):
        graph = build(path, 0)
        assert graph.node_count == 1

    def test_k_three_includes_chains(self, path):
        graph = build(path, 3)
        # (0, 1, 2) is connected through consecutive edges.
        assert graph.node_id((0, 1, 2), (0, 1, 2)) is not None
        # (0, 2) alone is not connected at radius 1...
        assert graph.node_id((0, 2), (0, 1)) is None
        # ...but (0, 2, 1) is, through 1.
        assert graph.node_id((0, 2, 1), (0, 1, 2)) is not None

    def test_node_budget_enforced(self, path):
        with pytest.raises(UnsupportedQueryError):
            build_colored_graph(path, LocalEvaluator(path, {}), 3, 1, max_nodes=5)


class TestEdges:
    def test_bottom_is_isolated(self, path):
        graph = build(path, 2)
        assert graph.neighbors(BOTTOM) == frozenset()

    def test_adjacent_singletons_linked(self, path):
        graph = build(path, 2)
        left = graph.node_id((0,), (0,))
        right = graph.node_id((1,), (1,))
        assert graph.adjacent(left, right)

    def test_far_singletons_not_linked(self, path):
        graph = build(path, 2)
        left = graph.node_id((0,), (0,))
        right = graph.node_id((3,), (1,))
        assert not graph.adjacent(left, right)

    def test_shared_component_linked(self, path):
        graph = build(path, 2)
        left = graph.node_id((1,), (0,))
        right = graph.node_id((1, 2), (0, 1))
        assert graph.adjacent(left, right)

    def test_adjacency_symmetric(self, path):
        graph = build(path, 2)
        for node in graph.nodes:
            for other in graph.neighbors(node.node_id):
                assert node.node_id in graph.neighbors(other)

    def test_no_self_loops(self, path):
        graph = build(path, 2)
        for node in graph.nodes:
            assert node.node_id not in graph.neighbors(node.node_id)

    def test_edge_semantics_on_random_graph(self):
        db = random_colored_graph(12, max_degree=3, seed=3)
        graph = build(db, 2)
        # Check a sample: adjacency in G iff some components within the
        # linking radius.
        sample = [node for node in graph.nodes[1:]][:40]
        for left in sample:
            for right in sample:
                if left.node_id == right.node_id:
                    continue
                expected = any(
                    within_distance(db, a, b, 1)
                    for a in left.elements
                    for b in right.elements
                )
                assert graph.adjacent(left.node_id, right.node_id) == expected
                assert (right.node_id in graph.neighbors(left.node_id)) == expected

    def test_degrees_count_neighbours(self, path):
        # Edges are not stored; each node keeps only its degree.
        graph = build(path, 2)
        assert not hasattr(graph, "adjacency")
        for node in graph.nodes:
            assert graph.degree(node.node_id) == len(graph.neighbors(node.node_id))
        assert graph.max_degree == max(graph.degrees)

    def test_stats(self, path):
        graph = build(path, 2)
        assert graph.max_degree > 0
        assert graph.edge_count() == sum(graph.degrees) // 2 > 0
        assert graph.node_count == len(graph.nodes)
