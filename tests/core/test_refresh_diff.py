"""The diffing refresh: a commit rewrites only the colored-graph nodes,
colours, balls and degrees it changes.

``PipelineMaintainer.refresh`` compares the refresh region's old and new
state.  A node whose key survives keeps its id, a colour flip touches no
ball or degree, and a removed node's id is reused by the next new key.
The differential check: after every commit the maintained graph equals a
cold ``build_colored_graph`` up to id renaming — nodes, colours, the
neighbour sets over keys, and the stored degrees, which must equal the
neighbour-set sizes.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import PipelineMaintainer, apply_ops
from repro.core.pipeline import Pipeline
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.session import Database
from repro.structures.random_gen import random_colored_graph
from repro.structures.signature import Signature
from repro.structures.structure import Structure

from graph_oracle import finalize_edges, live_ids

QUERIES = (
    "B(x) & R(y) & ~E(x,y)",
    "B(x) & R(y) & E(x,y)",
    "B(x) & exists z. (R(z) & E(x,z))",
)
COLOURS = ("B", "R", "G")


def colored(n, seed, max_degree=3):
    return random_colored_graph(n, max_degree=max_degree, colors=COLOURS, seed=seed).copy()


def oracle(structure, text):
    formula = parse(text)
    return sorted(naive_answers(formula, structure, order=sorted(formula.free)))


def canonical(pipeline):
    """The pipeline's graph and buckets with every id replaced by its key."""
    graph = pipeline.graph
    live = live_ids(graph)
    key = {node_id: (graph.node(node_id).elements, graph.node(node_id).positions) for node_id in live}
    for node_id in range(1, graph.node_count):
        if node_id not in live:  # a tombstone: no colours, no edges
            assert not graph.node(node_id).unit_values
            assert graph.degree(node_id) == 0
    assert all(graph.node(node_id).node_id == node_id for node_id in live)
    colours = {key[node_id]: dict(graph.node(node_id).unit_values) for node_id in live}
    explicit = finalize_edges(graph)
    edges = set()
    for node_id in live:
        neighbours = graph.neighbors(node_id)
        assert neighbours == explicit[node_id]
        assert graph.degree(node_id) == len(neighbours)
        for other in neighbours:
            edges.add((key[node_id], key[other]))
    buckets = {}
    for bucket_key, bucket in pipeline.block_vector_index.items():
        assert bucket == sorted(set(bucket)), "a bucket is sorted and unique"
        assert set(bucket) <= live, "buckets hold live ids only"
        if bucket:
            buckets[bucket_key] = sorted(key[node_id] for node_id in bucket)
    return colours, edges, buckets


def assert_matches_cold(db, text):
    maintained = db.query(text, backend="serial").pipeline
    formula = parse(text)
    cold = Pipeline(db.structure.copy(), formula, order=sorted(formula.free))
    assert canonical(maintained) == canonical(cold)
    want = oracle(db.structure, text)
    query = db.query(text, backend="serial")
    assert query.count() == len(want)
    assert sorted(query.answers().all()) == want


def random_change(structure, rng):
    """One op that changes ``structure``: an edge insert or delete, or a
    colour flip."""
    domain = list(structure.domain)
    kind = rng.choice(("insert", "delete", "flip"))
    edges = sorted(structure.facts("E"))
    if kind == "delete" and edges:
        return (False, "E", rng.choice(edges))
    if kind == "flip":
        colour, element = rng.choice(COLOURS), rng.choice(domain)
        return (not structure.has_fact(colour, element), colour, (element,))
    while True:
        u, v = rng.sample(domain, 2)
        if not structure.has_fact("E", u, v):
            return (True, "E", (u, v))


def inverse(op):
    insert, relation, elements = op
    return (not insert, relation, elements)


@given(
    seed=st.integers(0, 40),
    update_seed=st.integers(0, 10_000),
    pins=st.lists(st.booleans(), min_size=1, max_size=8),
)
@settings(max_examples=12, deadline=None)
def test_maintained_graph_equals_a_cold_build(seed, update_seed, pins):
    rng = random.Random(update_seed)
    with Database(colored(14, seed)) as db:
        for text in QUERIES:
            db.query(text, backend="serial").count()
        for pinned in pins:
            op = random_change(db.structure, rng)
            snapshot = db.snapshot() if pinned else None
            try:
                result = db.apply([op])
            finally:
                if snapshot is not None:
                    snapshot.close()
            assert result.changed and result.forked == pinned
            assert result.maintained_plans == len(QUERIES)
            for text in QUERIES:
                assert_matches_cold(db, text)


THREE_BLOCKS = "B(x) & R(y) & G(z) & ~E(x,y) & ~E(y,z)"


@given(
    seed=st.integers(0, 40),
    update_seed=st.integers(0, 10_000),
    pins=st.lists(st.booleans(), min_size=1, max_size=4),
)
@settings(max_examples=6, deadline=None)
def test_three_position_graph_equals_a_cold_build(seed, update_seed, pins):
    """The same differential on a three-position graph, whose nodes
    carry up to three components: its degrees stay exact too."""
    rng = random.Random(update_seed)
    with Database(colored(10, seed)) as db:
        db.query(THREE_BLOCKS, backend="serial").count()
        for pinned in pins:
            op = random_change(db.structure, rng)
            snapshot = db.snapshot() if pinned else None
            try:
                result = db.apply([op])
            finally:
                if snapshot is not None:
                    snapshot.close()
            assert result.changed and result.maintained_plans == 1
            assert_matches_cold(db, THREE_BLOCKS)


def test_colour_flip_writes_no_edge_and_allocates_no_id(monkeypatch):
    with Database(colored(120, 3)) as db:
        pipelines = [db.query(text, backend="serial").pipeline for text in QUERIES]
        sizes = [len(pipeline.graph.nodes) for pipeline in pipelines]
        degrees = [list(pipeline.graph.degrees) for pipeline in pipelines]
        balls = [dict(pipeline.graph.balls) for pipeline in pipelines]
        rekeys = []
        original = PipelineMaintainer._rekey

        def counting(maintainer, live, region):
            rekeys.append(region)
            return original(maintainer, live, region)

        monkeypatch.setattr(PipelineMaintainer, "_rekey", counting)
        element = next(e for e in db.structure.domain if db.structure.neighbors(e))
        result = db.apply([(not db.structure.has_fact("B", element), "B", (element,))])
        assert result.maintained_plans == len(QUERIES)
        # No rekey, so no ball and no degree is written.
        assert rekeys == []
        assert [list(pipeline.graph.degrees) for pipeline in pipelines] == degrees
        for pipeline, before in zip(pipelines, balls):
            assert all(pipeline.graph.balls[e] is ball for e, ball in before.items())
        assert [len(pipeline.graph.nodes) for pipeline in pipelines] == sizes
        for text in QUERIES:
            assert_matches_cold(db, text)


def test_id_space_stays_near_the_live_graph_over_replayed_cycles():
    structure = colored(120, 4)
    rng = random.Random(7)
    scratch = structure.copy()
    half = []
    for _ in range(20):
        op = random_change(scratch, rng)
        half.append(op)
        apply_ops(scratch, [op])
    cycle = half + [inverse(op) for op in reversed(half)]
    assert len(cycle) == 40
    with Database(structure) as db:
        for text in QUERIES:
            db.query(text, backend="serial").count()
        start = db.structure_fingerprint
        for _ in range(10):
            for op in cycle:
                assert db.apply([op]).changed
        assert db.structure_fingerprint == start
        for text in QUERIES:
            graph = db.query(text, backend="serial").pipeline.graph
            assert len(graph.nodes) <= 1.1 * (len(live_ids(graph)) + 1)
            assert_matches_cold(db, text)


def path_structure(n):
    """A directed path with colours by position, so every element far
    from both ends sees the same neighbourhood whatever ``n`` is."""
    structure = Structure(Signature({"E": 2, "B": 1, "R": 1, "G": 1}), range(n))
    for element in range(n - 1):
        structure.add_fact("E", element, element + 1)
    for element in range(n):
        for colour, period in (("B", 2), ("R", 3), ("G", 5)):
            if element % period == 0:
                structure.add_fact(colour, element)
    return structure


def test_a_local_flip_recolours_the_same_nodes_at_any_n(monkeypatch):
    """The first commit row of the operation-count contract: the same
    colour flip re-evaluates the same number of node colours at n=500
    and n=2000."""
    calls = []
    original = Pipeline.node_colors

    def counting(pipeline, node):
        calls.append(node)
        return original(pipeline, node)

    recoloured = []
    for n in (500, 2000):
        with Database(path_structure(n)) as db:
            for text in QUERIES:
                db.query(text, backend="serial").count()
            monkeypatch.setattr(Pipeline, "node_colors", counting)
            calls.clear()
            db.apply([(False, "B", (240,))])
            monkeypatch.undo()
            recoloured.append(len(calls))
    assert recoloured[0] > 0
    assert recoloured[0] == recoloured[1]
