"""Tests for dynamic updates (the [Vig20]-flavored extension).

Oracle discipline: after every update, enumeration / counting / testing
must agree with naive evaluation of the query on the mutated structure.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicQuery
from repro.core.enumeration import enumerate_answers
from repro.errors import UnsupportedQueryError
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.fo.syntax import Var
from repro.structures.random_gen import random_colored_graph
from repro.structures.signature import Signature
from repro.structures.structure import Structure

x, y = Var("x"), Var("y")

EXAMPLE = "B(x) & R(y) & ~E(x,y)"


def dynamic_query(*args, **kwargs):
    """A :class:`DynamicQuery` — deprecated in favour of the session
    API, so constructing one warns."""
    with pytest.warns(DeprecationWarning, match="DynamicQuery"):
        return DynamicQuery(*args, **kwargs)


def _assert_consistent(dyn, query, order):
    got = sorted(dyn.enumerate())
    want = sorted(naive_answers(query, dyn.structure, order=order))
    assert got == want
    assert dyn.count() == len(want)
    want_set = set(want)
    for probe in list(want)[:5]:
        assert dyn.test(probe)
    domain = list(dyn.structure.domain)
    for probe in [(domain[0], domain[-1]), (domain[1], domain[1])]:
        assert dyn.test(probe) == (probe in want_set)


@pytest.fixture
def dyn_pair(small_colored):
    query = parse(EXAMPLE)
    db = small_colored.copy()
    return dynamic_query(db, query, order=(x, y)), query


class TestSingleUpdates:
    def test_insert_edge_removes_answer(self, dyn_pair):
        dyn, query = dyn_pair
        answers = dyn.answers()
        assert answers
        blue, red = answers[0]
        if blue != red:
            dyn.insert_fact("E", blue, red)
            assert not dyn.test((blue, red))
            _assert_consistent(dyn, query, (x, y))

    def test_delete_edge_adds_answer(self, dyn_pair):
        dyn, query = dyn_pair
        # Find a blue-red edge to delete.
        edge = None
        for u, v in dyn.structure.facts("E"):
            if dyn.structure.has_fact("B", u) and dyn.structure.has_fact("R", v):
                edge = (u, v)
                break
        if edge is None:
            pytest.skip("no blue-red edge in this structure")
        before = dyn.count()
        dyn.delete_fact("E", *edge)
        _assert_consistent(dyn, query, (x, y))
        if not dyn.structure.has_fact("E", edge[1], edge[0]):
            assert dyn.test(edge)
            assert dyn.count() == before + 1

    def test_insert_color(self, dyn_pair):
        dyn, query = dyn_pair
        uncolored = next(
            e for e in dyn.structure.domain if not dyn.structure.has_fact("B", e)
        )
        dyn.insert_fact("B", uncolored)
        _assert_consistent(dyn, query, (x, y))

    def test_delete_color(self, dyn_pair):
        dyn, query = dyn_pair
        blue = next(fact[0] for fact in dyn.structure.facts("B"))
        dyn.delete_fact("B", blue)
        _assert_consistent(dyn, query, (x, y))

    def test_idempotent_insert(self, dyn_pair):
        dyn, query = dyn_pair
        fact = next(iter(dyn.structure.facts("E")))
        before = dyn.updates_applied
        dyn.insert_fact("E", *fact)  # already present: no refresh
        assert dyn.updates_applied == before

    def test_idempotent_delete(self, dyn_pair):
        dyn, _ = dyn_pair
        before = dyn.updates_applied
        dyn.delete_fact("E", dyn.structure.domain[0], dyn.structure.domain[0])
        assert dyn.updates_applied == before


class TestUpdateSequences:
    @pytest.mark.parametrize(
        "query_text",
        [
            EXAMPLE,
            "B(x) & R(y) & E(x,y)",
            "dist(x,y) <= 2 & B(x)",
            "exists z in N1(x). R(z)",
        ],
    )
    def test_random_walk_stays_consistent(self, query_text, small_colored):
        query = parse(query_text)
        order = sorted(query.free)
        dyn = dynamic_query(small_colored.copy(), query, order=order)
        rng = random.Random(7)
        domain = list(dyn.structure.domain)
        for _ in range(15):
            a, b = rng.choice(domain), rng.choice(domain)
            roll = rng.random()
            if roll < 0.4:
                dyn.insert_fact("E", a, b)
            elif roll < 0.7:
                dyn.delete_fact("E", a, b)
            elif roll < 0.85:
                dyn.insert_fact("B", a)
            else:
                dyn.delete_fact("R", a)
        got = sorted(dyn.enumerate())
        want = sorted(naive_answers(query, dyn.structure, order=order))
        assert got == want

    def test_build_graph_from_empty(self):
        """Grow a graph edge by edge; the maintained state tracks it."""
        db = Structure(Signature.of(E=2, B=1, R=1), range(8))
        for u in range(0, 8, 2):
            db.add_fact("B", u)
        for u in range(1, 8, 2):
            db.add_fact("R", u)
        query = parse(EXAMPLE)
        dyn = dynamic_query(db, query, order=(x, y))
        assert dyn.count() == 16  # all blue-red pairs, nothing connected
        for u in range(0, 8, 2):
            dyn.insert_fact("E", u, u + 1)
        _assert_consistent(dyn, query, (x, y))
        assert dyn.count() == 12

    def test_tear_down_to_empty(self, dyn_pair):
        dyn, query = dyn_pair
        for fact in list(dyn.structure.facts("E")):
            dyn.delete_fact("E", *fact)
        # Without edges, every blue-red pair is an answer.
        blues = len(dyn.structure.facts("B"))
        reds = len(dyn.structure.facts("R"))
        assert dyn.count() == blues * reds


class TestSupportGuard:
    def test_rejects_derived_predicates(self, small_colored):
        with pytest.raises(UnsupportedQueryError):
            dynamic_query(
                small_colored.copy(),
                parse("B(x) & exists z. (R(z) & ~E(x,z))"),
                order=(x,),
            )

    def test_accepts_relativized_quantifiers(self, small_colored):
        dynamic_query(
            small_colored.copy(), parse("exists z in N2(x). R(z)"), order=(x,)
        )

    def test_refresh_radius_is_query_dependent(self, dyn_pair):
        dyn, _ = dyn_pair
        assert dyn.refresh_radius >= dyn.pipeline.link_radius


class TestBatchMaintenance:
    """PipelineMaintainer.apply_batch: one refresh pass for a whole
    changeset, with no-ops and cancelling pairs netted out."""

    def test_batch_is_one_pass_and_oracle_exact(self, small_colored):
        from repro.core.dynamic import PipelineMaintainer
        from repro.core.pipeline import Pipeline

        db = small_colored.copy()
        query = parse(EXAMPLE)
        pipeline = Pipeline(db, query, order=(x, y))
        maintainer = PipelineMaintainer(pipeline)
        domain = list(db.domain)
        existing = next(iter(db.facts("E")))
        ops = [
            (True, "E", (domain[0], domain[-1])),
            (False, "E", existing),
            (True, "E", existing),            # cancels the remove
            (True, "B", (domain[1],)),
        ]
        before = maintainer.updates_applied
        effective = maintainer.apply_batch(ops)
        assert maintainer.updates_applied == before + 1, "one pass, not four"
        assert 0 < effective <= 2
        got = sorted(enumerate_answers(pipeline))
        want = sorted(naive_answers(query, db, order=(x, y)))
        assert got == want

    def test_all_noops_skip_the_refresh(self, small_colored):
        from repro.core.dynamic import PipelineMaintainer
        from repro.core.pipeline import Pipeline

        db = small_colored.copy()
        pipeline = Pipeline(db, parse(EXAMPLE), order=(x, y))
        maintainer = PipelineMaintainer(pipeline)
        existing = next(iter(db.facts("E")))
        assert maintainer.apply_batch([(True, "E", existing)]) == 0
        assert maintainer.updates_applied == 0

    @given(seed=st.integers(0, 30), update_seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_batch_oracle_property(self, seed, update_seed):
        from repro.core.dynamic import PipelineMaintainer
        from repro.core.pipeline import Pipeline

        db = random_colored_graph(12, max_degree=3, seed=seed).copy()
        query = parse(EXAMPLE)
        pipeline = Pipeline(db, query, order=(x, y))
        maintainer = PipelineMaintainer(pipeline)
        rng = random.Random(update_seed)
        domain = list(db.domain)
        ops = []
        for _ in range(8):
            a, b = rng.choice(domain), rng.choice(domain)
            ops.append((rng.random() < 0.5, "E", (a, b)))
        maintainer.apply_batch(ops)
        assert maintainer.updates_applied <= 1
        got = sorted(enumerate_answers(pipeline))
        want = sorted(naive_answers(query, db, order=(x, y)))
        assert got == want


@given(seed=st.integers(0, 30), update_seed=st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_dynamic_oracle_property(seed, update_seed):
    db = random_colored_graph(12, max_degree=3, seed=seed)
    query = parse(EXAMPLE)
    dyn = dynamic_query(db.copy(), query, order=(x, y))
    rng = random.Random(update_seed)
    domain = list(dyn.structure.domain)
    for _ in range(8):
        a, b = rng.choice(domain), rng.choice(domain)
        if rng.random() < 0.5:
            dyn.insert_fact("E", a, b)
        else:
            dyn.delete_fact("E", a, b)
    got = sorted(dyn.enumerate())
    want = sorted(naive_answers(query, dyn.structure, order=(x, y)))
    assert got == want
