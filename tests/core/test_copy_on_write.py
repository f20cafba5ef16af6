"""The copy-on-write colored graph: templates and forks share nodes and
balls (what adjacency is read off), and a write on either side never
reaches the other.

The rule under test (``repro.core.colored_graph``): a published ``VNode``
never changes — colours replace the node — a ball is an immutable
frozenset that a rewire replaces, and degrees live in each graph's own
list, which ``clone()`` copies.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.colored_graph import NO_COLORS, build_colored_graph
from repro.core.dynamic import PipelineMaintainer, apply_ops, maintain, net_effects
from repro.core.enumeration import enumerate_answers
from repro.core.pipeline import Pipeline
from repro.fo.localize import LocalEvaluator
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.session import Database
from repro.structures.gaifman_graph import ball_of_set
from repro.structures.random_gen import random_colored_graph

from graph_oracle import live_ids

EXAMPLE = "B(x) & R(y) & ~E(x,y)"
MIRROR = "R(x) & B(y) & ~E(x,y)"


def oracle(structure, text=EXAMPLE):
    formula = parse(text)
    return sorted(naive_answers(formula, structure, order=sorted(formula.free)))


def sparse_structure(seed=5):
    return random_colored_graph(120, max_degree=2, seed=seed).copy()


def missing_unary(structure, relation="B"):
    return next(
        e for e in structure.domain if not structure.has_fact(relation, e)
    )


def new_answers(db):
    return db.query(EXAMPLE).answers().all()


def capture(graph):
    """Everything a reader of ``graph`` can observe, by value: nodes,
    each live node's neighbour set, and the degrees."""
    return (
        [
            (node.node_id, node.elements, node.positions, dict(node.unit_values))
            for node in graph.nodes
        ],
        {node_id: frozenset(graph.neighbors(node_id)) for node_id in live_ids(graph)},
        list(graph.degrees),
    )


class TestGraphPrimitives:
    def test_nodes_are_immutable(self):
        structure = sparse_structure()
        graph = build_colored_graph(structure, LocalEvaluator(structure, {}), 2, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.nodes[1].unit_values = {}

    def test_clone_shares_nodes_and_adjacency(self):
        structure = sparse_structure()
        graph = build_colored_graph(structure, LocalEvaluator(structure, {}), 2, 1)
        twin = graph.clone()
        assert twin.nodes is not graph.nodes
        assert all(a is b for a, b in zip(twin.nodes, graph.nodes))
        # Adjacency is read off the balls: the twin shares every one.
        assert twin.balls is not graph.balls
        assert all(twin.balls[e] is ball for e, ball in graph.balls.items())
        assert twin.degrees == graph.degrees and twin.degrees is not graph.degrees

    def test_writes_on_a_clone_stay_private(self):
        structure = sparse_structure()
        evaluator = LocalEvaluator(structure, {})
        graph = build_colored_graph(structure, evaluator, 2, 1)
        before = capture(graph)
        twin = graph.clone()
        victim = next(i for i in range(1, twin.node_count) if twin.degree(i))
        elements = twin.nodes[victim].elements
        region = set(elements)
        neighbours = twin.neighbor_sets(
            {i for e in region for i in twin.nodes_containing(e)}
        )
        twin.set_colors(1, {0: (True,)})
        twin.remove_nodes({victim})
        fresh = twin.add_node(elements, twin.nodes[victim].positions)
        balls = {e: evaluator.ball(e, 1) for e in region}
        assert not twin.rewire(neighbours, balls, [fresh])
        assert twin.nodes[victim].unit_values is NO_COLORS
        assert twin.neighbors(fresh) == before[1][victim]
        assert twin.degrees == before[2]
        assert capture(graph) == before
        # A second clone of the twin has its own containment lists and
        # degrees: detaching a node there leaves the twin as it was.
        second = twin.clone()
        second.remove_nodes({fresh})
        assert twin.neighbors(fresh) == before[1][victim]
        assert twin.degree(fresh) == before[2][victim]


class TestPinnedCommitSharing:
    def test_fork_shares_everything_outside_the_refresh_region(self):
        with Database(sparse_structure()) as db:
            old = db.query(EXAMPLE).pipeline
            snapshot = db.snapshot()
            element = missing_unary(db.structure)
            result = db.apply([("insert", "B", (element,))])
            assert result.forked and result.maintained_plans == 1
            new = db.query(EXAMPLE).pipeline
            assert new is not old
            old_graph, graph = old.graph, new.graph
            radius = new.link_radius + 1
            region = ball_of_set(old.structure, {element}, radius) | ball_of_set(
                new.structure, {element}, radius
            )
            dead = {i for e in region for i in old_graph.nodes_containing(e)}
            born = set(range(old_graph.node_count, graph.node_count))
            rewired = set(dead | born)
            for node_id in dead:
                rewired |= old_graph.neighbors(node_id)
            for node_id in born:
                rewired |= graph.neighbors(node_id)
            kept = [i for i in range(old_graph.node_count) if i not in dead]
            assert len(kept) > old_graph.node_count // 2
            for node_id in kept:
                assert graph.nodes[node_id] is old_graph.nodes[node_id]
                if node_id not in rewired:
                    assert graph.degree(node_id) == old_graph.degree(node_id)
            # Adjacency is read off the balls: outside the region the
            # fork shares every one with the pinned head.
            outside = [e for e in old_graph.balls if e not in region]
            assert outside
            assert all(graph.balls[e] is old_graph.balls[e] for e in outside)
            assert sorted(new_answers(db)) == oracle(db.structure)
            snapshot.close()

    def test_old_head_stays_byte_identical(self):
        with Database(sparse_structure()) as db:
            old = db.query(EXAMPLE).pipeline
            nodes = list(old.graph.nodes)
            before = capture(old.graph)
            answers = list(enumerate_answers(old))
            snapshot = db.snapshot()
            assert db.apply([("insert", "B", (missing_unary(db.structure),))]).forked
            # The next commits run in place on the fork, whose graph
            # shares nodes and balls with the pinned head.
            edge = next(iter(db.structure.facts("E")))
            assert not db.apply([("remove", "E", edge)]).forked
            assert not db.apply([("insert", "R", (missing_unary(db.structure, "R"),))]).forked
            assert capture(old.graph) == before
            assert all(a is b for a, b in zip(old.graph.nodes, nodes))
            assert snapshot.query(EXAMPLE).pipeline is old
            assert list(enumerate_answers(old)) == answers
            assert sorted(new_answers(db)) == oracle(db.structure)
            snapshot.close()


def test_template_clones_stay_isolated_when_one_is_maintained():
    structure = sparse_structure(seed=8)
    templates = {}

    def factory(structure, evaluator, arity, link_radius, max_nodes=5_000_000):
        key = (arity, link_radius)
        if key not in templates:
            templates[key] = build_colored_graph(
                structure, evaluator, arity, link_radius, max_nodes=max_nodes
            )
        return templates[key].clone()

    maintained = Pipeline(structure, parse(EXAMPLE), graph_factory=factory)
    bystander = Pipeline(structure, parse(MIRROR), graph_factory=factory)
    assert len(templates) == 1, "both plans clone one template"
    (template,) = templates.values()
    template_before = capture(template)
    bystander_before = capture(bystander.graph)
    bystander_answers = list(enumerate_answers(bystander))

    edge = next(iter(structure.facts("E")))
    effective = net_effects(
        structure,
        [(True, "B", (missing_unary(structure),)), (False, "E", edge)],
    )
    maintain(
        [PipelineMaintainer(maintained)],
        effective,
        lambda: apply_ops(structure, effective),
    )

    assert sorted(enumerate_answers(maintained)) == oracle(structure)
    assert capture(template) == template_before
    assert all(node.unit_values is NO_COLORS for node in template.nodes)
    assert capture(bystander.graph) == bystander_before
    assert list(enumerate_answers(bystander)) == bystander_answers
