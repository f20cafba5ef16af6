"""Tests for constant-delay enumeration (Theorem 2.7) and the skip
machinery (Proposition 3.10)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enumeration import (
    BranchEnumerator,
    SkipList,
    arm_enumerator,
    enumerate_answers,
)
from repro.core.pipeline import Pipeline
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.fo.syntax import Var
from repro.storage.cost_model import CostMeter
from repro.structures.random_gen import random_colored_graph

x, y, z = Var("x"), Var("y"), Var("z")


def assert_enumeration_matches(db, text, skip_mode="lazy"):
    query = parse(text)
    order = sorted(query.free)
    pipeline = Pipeline(db, query, order=order)
    got = list(
        enumerate_answers(pipeline, skip_mode=skip_mode, validate=True)
    )
    assert len(got) == len(set(got)), "enumeration produced repetitions"
    assert sorted(got) == sorted(naive_answers(query, db, order=order))


CORPUS = [
    "B(x) & R(y) & ~E(x,y)",
    "B(x) & R(y) & E(x,y)",
    "B(x) & B(y) & ~E(x,y) & ~E(y,x) & x != y",
    "B(x) | R(x)",
    "exists z. E(x,z) & R(z)",
    "exists z. R(z) & ~E(x,z) & ~E(z,y)",
    "forall z. E(x,z) -> B(z)",
]


class TestEnumerationCorpus:
    @pytest.mark.parametrize("text", CORPUS)
    def test_small_random(self, text, small_colored):
        assert_enumeration_matches(small_colored, text)

    @pytest.mark.parametrize("text", CORPUS[:4])
    def test_padded_clique(self, text, clique_structure):
        assert_enumeration_matches(clique_structure, text)

    @pytest.mark.parametrize("text", CORPUS[:4])
    def test_ring(self, text, ring_structure):
        assert_enumeration_matches(ring_structure, text)

    def test_three_variable_query(self, three_colored):
        assert_enumeration_matches(
            three_colored,
            "B(x) & R(y) & G(z) & ~E(x,y) & ~E(y,z) & ~E(x,z)",
        )


class TestSkipModes:
    def test_precompute_agrees_with_lazy(self, small_colored):
        query = parse("B(x) & R(y) & ~E(x,y)")
        pipeline = Pipeline(small_colored, query, order=(x, y))
        lazy = list(enumerate_answers(pipeline, skip_mode="lazy"))
        strict = list(enumerate_answers(pipeline, skip_mode="precompute"))
        assert lazy == strict

    def test_precompute_on_corpus(self, small_colored):
        for text in CORPUS[:4]:
            assert_enumeration_matches(small_colored, text, skip_mode="precompute")

    def test_unknown_mode_rejected(self, small_colored):
        pipeline = Pipeline(small_colored, parse("B(x)"), order=(x,))
        with pytest.raises(ValueError):
            list(enumerate_answers(pipeline, skip_mode="bogus"))


class TestPositionMarks:
    """``marks=True`` puts a ``None`` after every outermost position:
    the rows between marks are exactly the one-position slices."""

    @pytest.mark.parametrize(
        "text, structure",
        [(text, "small_colored") for text in CORPUS]
        + [("B(x) & R(y) & G(z) & ~E(x,y) & ~E(y,z) & ~E(x,z)", "three_colored")],
    )
    def test_marks_delimit_the_outer_positions(self, text, structure, request):
        query = parse(text)
        pipeline = Pipeline(
            request.getfixturevalue(structure), query, order=sorted(query.free)
        )
        for index in range(pipeline.branch_count):
            enumerator = arm_enumerator(pipeline, index)
            size = enumerator.outer_size()
            slices = [
                list(enumerator.enumerate(outer_slice=(i, i + 1)))
                for i in range(size)
            ]
            for start in (0, size // 2):
                groups = [[]]
                for item in enumerator.enumerate(outer_slice=(start, None), marks=True):
                    if item is None:
                        groups.append([])
                    else:
                        groups[-1].append(item)
                assert groups.pop() == [], "the stream ends on a mark"
                assert groups == slices[start:]

    def test_marks_need_lazy_mode(self, small_colored):
        pipeline = Pipeline(
            small_colored, parse("B(x) & R(y) & ~E(x,y)"), order=(x, y)
        )
        for branch in pipeline.branches:
            enumerator = BranchEnumerator(pipeline, branch, skip_mode="precompute")
            if enumerator.small_blocks:
                with pytest.raises(ValueError):
                    list(enumerator.enumerate(marks=True))
                return
        pytest.fail("the workload needs a branch with small blocks")


class TestTrivialCases:
    def test_trivial_false_yields_nothing(self, small_colored):
        pipeline = Pipeline(small_colored, parse("B(x) & ~B(x)"), order=(x,))
        assert list(enumerate_answers(pipeline)) == []

    def test_trivial_true_yields_domain(self, small_colored):
        pipeline = Pipeline(small_colored, parse("B(x) | ~B(x)"), order=(x,))
        got = list(enumerate_answers(pipeline))
        assert sorted(got) == sorted((a,) for a in small_colored.domain)

    def test_true_sentence_yields_empty_tuple(self, small_colored):
        pipeline = Pipeline(small_colored, parse("exists x. B(x)"))
        assert list(enumerate_answers(pipeline)) == [()]

    def test_false_sentence_yields_nothing(self, small_colored):
        pipeline = Pipeline(
            small_colored, parse("exists x. B(x) & ~B(x)")
        )
        assert list(enumerate_answers(pipeline)) == []


class TestDelayShape:
    def test_step_deltas_are_bounded(self, medium_colored):
        """RAM steps between consecutive outputs are small and uniform —
        the measurable content of 'constant delay'."""
        query = parse("B(x) & R(y) & ~E(x,y)")
        pipeline = Pipeline(medium_colored, query, order=(x, y))
        meter = CostMeter()
        outputs = 0
        for _ in enumerate_answers(pipeline, meter=meter):
            meter.mark()
            outputs += 1
        assert outputs > 0
        assert meter.max_delta <= 60

    def test_delay_flat_across_sizes(self):
        """Max step-delta does not grow when n quadruples."""
        deltas = []
        for n in (50, 200):
            db = random_colored_graph(n, max_degree=3, seed=13)
            pipeline = Pipeline(
                db, parse("B(x) & R(y) & ~E(x,y)"), order=(x, y)
            )
            meter = CostMeter()
            for _ in enumerate_answers(pipeline, meter=meter):
                meter.mark()
            deltas.append(meter.max_delta)
        assert deltas[1] <= deltas[0] + 5


class TestSkipList:
    @pytest.fixture
    def skiplist(self, small_colored):
        pipeline = Pipeline(
            small_colored, parse("B(x) & R(y) & ~E(x,y)"), order=(x, y)
        )
        branch = max(pipeline.branches, key=lambda b: min(len(l) for l in b.lists))
        nodes = branch.lists[0]
        return SkipList(pipeline.graph, nodes, 2), pipeline.graph

    def test_first_and_next(self, skiplist):
        sl, _ = skiplist
        first = sl.first()
        assert first == sl.nodes[0]
        assert sl.next(sl.nodes[-1]) is None
        if len(sl) > 1:
            assert sl.next(first) == sl.nodes[1]

    def test_skip_with_no_blockers_is_identity(self, skiplist):
        sl, _ = skiplist
        for node in sl.nodes[:5]:
            assert sl.skip(node, frozenset()) == node

    def test_skip_skips_adjacent(self, skiplist):
        sl, graph = skiplist
        # Use each node's own neighbors as blockers: skip must never
        # return a node adjacent to them.
        for node in sl.nodes[:5]:
            blockers = frozenset(list(graph.neighbors(node))[:1])
            if not blockers:
                continue
            landed = sl.skip(node, blockers)
            if landed is not None:
                assert not any(
                    blocker in graph.neighbors(landed) for blocker in blockers
                )

    def test_skip_memoized(self, skiplist):
        sl, _ = skiplist
        node = sl.first()
        meter1 = CostMeter()
        sl.skip(node, frozenset(), meter1)
        meter2 = CostMeter()
        sl.skip(node, frozenset(), meter2)
        assert meter2.by_label.get("enum.skip_hit", 0) == 1

    def test_reach_contains_neighbors(self, skiplist):
        sl, graph = skiplist
        for node in sl.nodes[:5]:
            assert graph.neighbors(node) <= sl.reach(node)

    def test_reach_monotone_in_closure(self, small_colored):
        pipeline = Pipeline(
            small_colored, parse("B(x) & R(y) & ~E(x,y)"), order=(x, y)
        )
        branch = pipeline.branches[0]
        nodes = branch.lists[0]
        shallow = SkipList(pipeline.graph, nodes, 1)
        deep = SkipList(pipeline.graph, nodes, 3)
        for node in nodes[:5]:
            assert shallow.reach(node) <= deep.reach(node)


@given(seed=st.integers(0, 60), degree=st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_enumeration_oracle_property(seed, degree):
    db = random_colored_graph(14, max_degree=degree, seed=seed)
    assert_enumeration_matches(db, "B(x) & R(y) & ~E(x,y)")


@given(seed=st.integers(0, 40))
@settings(max_examples=10, deadline=None)
def test_enumeration_three_blocks_property(seed):
    db = random_colored_graph(10, max_degree=2, colors=("B", "R", "G"), seed=seed)
    assert_enumeration_matches(
        db, "B(x) & R(y) & G(z) & ~E(x,y) & ~E(y,z) & ~E(x,z)"
    )
