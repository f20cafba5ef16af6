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

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dynamic
from repro.core.dynamic import PipelineMaintainer, apply_ops, net_effects
from repro.core.pipeline import Pipeline
from repro.fo.localize import LocalEvaluator
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.session import Database
from repro.structures.gaifman_graph import ball_of_set, distances_from_set
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

        def counting(maintainer, region):
            rekeys.append(region)
            return original(maintainer, region)

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


def keys_of(graph):
    return {
        (graph.node(node_id).elements, graph.node(node_id).positions)
        for node_id in live_ids(graph)
    }


def near(structure, graph, centers, radius):
    """Keys of the live nodes with a component within ``radius`` of
    ``centers``."""
    return {
        (graph.node(node_id).elements, graph.node(node_id).positions)
        for element in ball_of_set(structure, centers, radius)
        for node_id in graph.nodes_containing(element)
    }


@pytest.fixture
def recorded(monkeypatch):
    """Every ``node_colors`` call and every region ``_rekey`` receives,
    keyed by pipeline."""
    colours, rekeys = {}, {}
    node_colors, rekey = Pipeline.node_colors, PipelineMaintainer._rekey

    def counting_colours(pipeline, node):
        colours.setdefault(id(pipeline), []).append((node.elements, node.positions))
        return node_colors(pipeline, node)

    def counting_rekeys(maintainer, region):
        rekeys.setdefault(id(maintainer.pipeline), []).append(set(region))
        return rekey(maintainer, region)

    monkeypatch.setattr(Pipeline, "node_colors", counting_colours)
    monkeypatch.setattr(PipelineMaintainer, "_rekey", counting_rekeys)
    return colours, rekeys


def test_a_local_flip_recolours_the_same_nodes_at_any_n(recorded):
    """The first commit row of the operation-count contract: a colour
    flip re-evaluates exactly the nodes with a component within the
    colour radius c of the flipped element, the same nodes at n=500 and
    n=2000, and it re-keys nothing.  For the dense query (c = 0) that is
    only the nodes containing the element."""
    colours, rekeys = recorded
    for n in (500, 2000):
        with Database(path_structure(n)) as db:
            pipelines = [db.query(text, backend="serial").pipeline for text in QUERIES]
            colours.clear()
            db.apply([(False, "B", (240,))])
            counts = []
            for text, pipeline in zip(QUERIES, pipelines):
                radius = PipelineMaintainer(pipeline).color_radius
                evaluated = colours[id(pipeline)]
                assert len(evaluated) == len(set(evaluated)), "each node once"
                want = near(db.structure, pipeline.graph, {240}, radius)
                assert set(evaluated) == want, text
                counts.append(len(evaluated))
            assert rekeys == {}
        # The 7 nodes of each two-block query that contain 240 (two
        # single-element nodes, the pair (240, 240) and four pairs with a
        # path neighbour), and the exists query's 3 single-element nodes
        # within 1 of it.
        assert counts == [7, 7, 3]


@pytest.mark.parametrize("n", (500, 2000))
def test_an_edge_insert_rekeys_the_link_radius_ball(n, recorded):
    """The second row: an E insert hands ``_rekey`` exactly the
    elements within ``L - 1`` of its ends (the same before and after the
    commit), the only ones whose link-radius ball can change, and
    recolours exactly the surviving nodes within the colour radius plus
    every node it created."""
    colours, rekeys = recorded
    ends = {240, 245}
    with Database(path_structure(n)) as db:
        pipelines = [db.query(text, backend="serial").pipeline for text in QUERIES]
        keys_before = [keys_of(pipeline.graph) for pipeline in pipelines]
        colours.clear()
        db.apply([(True, "E", (240, 245))])
        for text, pipeline, before in zip(QUERIES, pipelines, keys_before):
            inner = pipeline.link_radius - 1
            assert rekeys[id(pipeline)] == [ball_of_set(db.structure, ends, inner)], text
            radius = PipelineMaintainer(pipeline).color_radius
            graph = pipeline.graph
            born = keys_of(graph) - before
            recolour = near(db.structure, graph, ends, radius) | born
            evaluated = colours[id(pipeline)]
            assert len(evaluated) == len(set(evaluated)), "each node once"
            assert set(evaluated) == recolour, text
            if n == 500:  # the naive oracle is quadratic in n
                assert_matches_cold(db, text)


@pytest.fixture
def rekey_work(monkeypatch):
    """Per evaluator, the link-radius balls computed (cache misses), and
    every key ``_rekey`` expanded from a candidate member set."""
    balls, keys = {}, []
    ball, expand = LocalEvaluator.ball, dynamic.member_keys

    def counting_ball(evaluator, element, radius):
        if (element, radius) not in evaluator._ball_cache:
            balls.setdefault(id(evaluator), []).append((element, radius))
        return ball(evaluator, element, radius)

    def counting_keys(ordered_members, seeds, k):
        for key in expand(ordered_members, seeds, k):
            keys.append(key)
            yield key

    monkeypatch.setattr(LocalEvaluator, "ball", counting_ball)
    monkeypatch.setattr(dynamic, "member_keys", counting_keys)
    return balls, keys


def test_a_local_edge_insert_does_the_same_rekey_work_at_any_n(rekey_work):
    """The third row: the same local E insert computes the same link-radius
    balls (those within ``L - 1`` of its ends, one each) and expands the
    same candidate keys at n=500 and n=2000.  The two-block queries
    (k = 2, L = 1) expand the two keys over the new link ``{240, 245}``;
    the exists query (k = 1) has no candidate set, so none."""
    balls, keys = rekey_work
    work = []
    for n in (500, 2000):
        with Database(path_structure(n)) as db:
            pipelines = [db.query(text, backend="serial").pipeline for text in QUERIES]
            balls.clear()
            keys.clear()
            db.apply([(True, "E", (240, 245))])
            computed = []
            for pipeline in pipelines:
                link = pipeline.link_radius
                linked = [
                    element
                    for element, radius in balls[id(pipeline.evaluator)]
                    if radius == link
                ]
                assert sorted(linked) == sorted(
                    ball_of_set(db.structure, {240, 245}, link - 1)
                )
                computed.append(len(linked))
            work.append((computed, sorted(keys)))
            if n == 500:
                for text in QUERIES:
                    assert_matches_cold(db, text)
    assert work[0] == work[1]
    assert work[0][0] == [2, 2, 10]
    assert work[0][1] == sorted(2 * [((240, 245), (0, 1)), ((245, 240), (0, 1))])


def test_an_edge_commit_rebuilds_no_unary_set(monkeypatch):
    """The fourth row: an E commit re-reads no unary relation at n=500 or
    n=2000, and a B flip re-reads B alone."""
    misses = []
    unary_set = LocalEvaluator.unary_set

    def counting(evaluator, name):
        if name not in evaluator._unary_cache:
            misses.append(name)
        return unary_set(evaluator, name)

    monkeypatch.setattr(LocalEvaluator, "unary_set", counting)
    for n in (500, 2000):
        with Database(path_structure(n)) as db:
            for text in QUERIES:
                db.query(text, backend="serial").count()
            misses.clear()
            db.apply([(True, "E", (240, 245))])
            db.apply([(False, "E", (240, 241))])
            assert misses == []
            db.apply([(False, "B", (240,))])
            assert set(misses) == {"B"}
            if n == 500:
                for text in QUERIES:
                    assert_matches_cold(db, text)


def keys_over(members, k):
    """Every key over the member set: each tuple of length ``|members|..k``
    that uses all members, with each position set of its length."""
    return {
        (elements, positions)
        for length in range(len(members), k + 1)
        for elements in itertools.product(sorted(members), repeat=length)
        if set(elements) == set(members)
        for positions in itertools.combinations(range(k), length)
    }


def test_a_triangle_keeps_its_three_member_set():
    """The k = 3 differential on a path (L = 1, so links are edges).
    Closing the triangle 20-21-22 with E(20,22) adds exactly the keys over
    the sets the new link connects, and opening it again removes exactly
    those: {20, 21, 22} is connected on both sides, so its nodes keep
    their ids.  Deleting E(20,21) then removes exactly the keys over the
    sets that come apart, {20, 21, 22} among them."""
    with Database(path_structure(24)) as db:
        graph = db.query(THREE_BLOCKS, backend="serial").pipeline.graph
        triangle = {key: graph.node_id(*key) for key in keys_over({20, 21, 22}, 3)}
        joined = (
            keys_over({20, 22}, 3) | keys_over({19, 20, 22}, 3) | keys_over({20, 22, 23}, 3)
        )
        split = (
            keys_over({20, 21}, 3) | keys_over({19, 20, 21}, 3) | keys_over({20, 21, 22}, 3)
        )
        for op, added, removed in (
            ((True, "E", (20, 22)), joined, set()),
            ((False, "E", (20, 22)), set(), joined),
            ((False, "E", (20, 21)), set(), split),
        ):
            before = keys_of(graph)
            assert db.apply([op]).maintained_plans == 1
            after = keys_of(graph)
            assert (after - before, before - after) == (added, removed), op
            if triangle.keys() <= after:
                assert {key: graph.node_id(*key) for key in triangle} == triangle
            assert_matches_cold(db, THREE_BLOCKS)


@given(
    seed=st.integers(0, 40),
    update_seed=st.integers(0, 10_000),
    size=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_a_commit_keeps_every_distance_to_the_touched_elements(seed, update_seed, size):
    """Why one search serves both Gaifman graphs: every edge a commit
    changes joins two touched elements, which a shortest path to the
    touched set never crosses."""
    rng = random.Random(update_seed)
    structure = colored(30, seed, max_degree=2)
    after = structure.copy()
    ops = []
    for _ in range(size):
        op = random_change(after, rng)
        apply_ops(after, [op])
        ops.append(op)
    touched = {
        element for _, _, elements in net_effects(structure, ops) for element in elements
    }
    before = distances_from_set(structure, touched, 6)
    assert before == distances_from_set(after, touched, 6)


WIDE = (
    "dist(x,y) <= 2 & B(x)",
    "B(x) & R(y) & dist(x,y) > 2",
    "B(x) & forall z. (E(x,z) -> R(z))",
    "exists z in N1(x). (R(z) & exists w in N1(z). G(w))",
)


@pytest.mark.parametrize("seed", range(5))
def test_wide_radius_plans_equal_a_cold_build(seed):
    """The differential on queries whose localization radius r, colour
    radius c and link radius L = 2r+1 differ (r = 2, 2, 1, 2): seeded
    single and batched commits, in place and under an open snapshot,
    leave every maintained graph equal to a cold build."""
    rng = random.Random(seed)
    with Database(colored(18, seed, max_degree=2)) as db:
        for text in WIDE:
            db.query(text, backend="serial").count()
        for step in range(8):
            scratch = db.structure.copy()
            ops = []
            for _ in range(1 if step % 2 == 0 else 3):
                op = random_change(scratch, rng)
                apply_ops(scratch, [op])
                ops.append(op)
            if not net_effects(db.structure, ops):
                continue
            pinned = step % 4 >= 2
            snapshot = db.snapshot() if pinned else None
            try:
                result = db.apply(ops)
            finally:
                if snapshot is not None:
                    snapshot.close()
            assert result.changed and result.forked == pinned
            assert result.maintained_plans == len(WIDE)
            for text in WIDE:
                assert_matches_cold(db, text)
