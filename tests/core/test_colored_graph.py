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
        # Neither edges nor degrees are stored; both are read off the balls.
        graph = build(path, 2)
        assert not hasattr(graph, "adjacency") and not hasattr(graph, "degrees")
        sizes = [len(graph.neighbors(node.node_id)) for node in graph.nodes]
        for node, size in zip(graph.nodes, sizes):
            assert graph.degree(node.node_id) == size
        for node, size in zip(graph.nodes[1:], sizes[1:]):
            assert graph.degree_bound(node.node_id) >= size
        assert graph.max_degree == max(sizes)

    def test_stats(self, path):
        graph = build(path, 2)
        sizes = [len(graph.neighbors(node.node_id)) for node in graph.nodes]
        assert graph.max_degree == max(sizes) > 0
        assert graph.edge_count() == sum(sizes) // 2 > 0
        assert graph.node_count == len(graph.nodes)

    def test_max_degree_is_dropped_by_every_surgery(self, path):
        graph = build(path, 2)

        def exact():
            return max(graph.degree(node_id) for node_id in graph._by_key.values())

        assert graph.max_degree == exact()
        assert graph.clone().max_degree == graph.max_degree
        top = max(graph.nodes[1:], key=lambda node: graph.degree(node.node_id))
        element = top.elements[0]
        for surgery in (
            lambda: graph.remove_nodes({top.node_id}),
            lambda: graph.add_node(top.elements, top.positions),
            lambda: graph.rewire({element: frozenset(graph.structure.domain)}),
        ):
            surgery()
            assert graph._max_degree is None
            assert graph.max_degree == exact()
        # The whole domain in one ball: its nodes neighbour every live node.
        assert graph.max_degree == len(graph._by_key) - 2
        assert not graph.rewire({})
        assert graph._max_degree is not None
