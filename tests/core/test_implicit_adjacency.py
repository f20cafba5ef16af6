"""Implicit adjacency: the colored graph stores nodes and balls, never
edges or degrees.

``ColoredGraph.adjacent`` / ``neighbors`` / ``degree`` must equal the
explicit edge relation of Step 4 (``graph_oracle.finalize_edges``) on
every generated (structure, query) pair, and ``degree_bound`` must bound
the explicit degree from above.  The small/big block split reads that
bound, so every block the explicit degrees make small stays small (an
over-estimate may only move a block to the small side), and the rows
must still equal the naive answers.  The size row of the
operation-count contract: what the graph stores is linear in its nodes
plus its elements' balls, while its edges are not.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.enumeration import arm_enumerators, enumerate_answers
from repro.core.pipeline import Pipeline
from repro.fo.localize import LocalEvaluator
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.structures.random_gen import random_colored_graph

from graph_oracle import finalize_edges, live_ids, small_blocks
from strategies import supported_inputs

SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
TERNARY = "B(x) & R(y) & G(z) & ~E(x,y) & ~E(y,z)"


def assert_matches_explicit(pipeline):
    graph = pipeline.graph
    explicit = finalize_edges(graph)
    live = live_ids(graph)
    for node_id in live:
        neighbours = graph.neighbors(node_id)
        assert neighbours == explicit[node_id]
        assert graph.degree(node_id) == len(explicit[node_id])
        assert graph.degree_bound(node_id) >= len(explicit[node_id])
        assert all(graph.adjacent(node_id, other) for other in neighbours)
        strangers = sorted(live - neighbours - {node_id})[:20]
        assert not any(graph.adjacent(node_id, other) for other in strangers)
        assert not graph.adjacent(node_id, node_id)
    assert graph.edge_count() == sum(len(entry) for entry in explicit) // 2
    assert graph.max_degree == max(len(entry) for entry in explicit)
    for enumerator in arm_enumerators(pipeline):
        assert set(small_blocks(enumerator.branch, explicit)) <= set(enumerator.small_blocks)
    rows = list(enumerate_answers(pipeline, validate=True))
    want = naive_answers(pipeline.query, pipeline.structure, order=pipeline.variables)
    assert sorted(rows) == sorted(want)


def built(pair):
    structure, formula = pair
    pipeline = Pipeline(structure, formula, order=sorted(formula.free))
    return pipeline if pipeline.graph is not None else None


@given(pair=supported_inputs(max_n=10))
@settings(max_examples=30, **SETTINGS)
def test_binary_graphs_match_the_explicit_edges(pair):
    pipeline = built(pair)
    if pipeline is not None:
        assert_matches_explicit(pipeline)


@given(pair=supported_inputs(free_count=3, max_depth=2, max_n=8))
@settings(max_examples=15, **SETTINGS)
def test_three_position_graphs_match_the_explicit_edges(pair):
    pipeline = built(pair)
    if pipeline is not None:
        assert_matches_explicit(pipeline)


@given(pair=supported_inputs(ternary=True, max_depth=2, max_n=8))
@settings(max_examples=15, **SETTINGS)
def test_ternary_signature_graphs_match_the_explicit_edges(pair):
    pipeline = built(pair)
    if pipeline is not None:
        assert_matches_explicit(pipeline)


def stored_entries(graph) -> int:
    """Every entry of every container the graph holds, one level into
    nested containers (so a dict of lists counts its lists' items)."""
    total = 0
    for value in vars(graph).values():
        if not isinstance(value, (list, dict, set, frozenset, tuple)):
            continue
        total += len(value)
        items = value.values() if isinstance(value, dict) else value
        total += sum(
            len(item)
            for item in items
            if isinstance(item, (list, dict, set, frozenset))
        )
    return total


def ternary_pipeline(n: int) -> Pipeline:
    structure = random_colored_graph(n, max_degree=4, colors=("B", "R", "G"), seed=1)
    return Pipeline(structure, parse(TERNARY))


# Nodes, key map, containment keys and lists (at most k=3 per node),
# and the ball table: a fixed multiple of nodes + ball entries.
SIZE_FACTOR = 8


@pytest.mark.parametrize("n", [25, 100])
def test_stored_size_is_linear_in_nodes_and_balls(n):
    pipeline = ternary_pipeline(n)
    graph = pipeline.graph
    evaluator = LocalEvaluator(pipeline.structure, {})
    ball_entries = sum(
        len(evaluator.ball(element, graph.link_radius))
        for element in pipeline.structure.domain
    )
    bound = SIZE_FACTOR * (graph.node_count + ball_entries)
    assert stored_entries(graph) <= bound
    assert not hasattr(graph, "adjacency")
    if n == 100:
        # Storing the edges could not fit under that bound.
        assert graph.edge_count() > bound
    else:
        explicit = finalize_edges(graph)
        assert graph.max_degree == max(len(entry) for entry in explicit)
        assert graph.edge_count() == sum(len(entry) for entry in explicit) // 2
