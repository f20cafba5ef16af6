"""Tests for dynamic updates (the [Vig20]-flavored extension).

Updates go through the session (:class:`repro.session.Database`), which
maintains every eligible cached plan with one local-recomputation pass
per commit.  Every changing commit here must report a maintained plan —
the point is to exercise maintenance, not a cold rebuild.

Oracle discipline: after every update, enumeration / counting / testing
must agree with naive evaluation of the query on the mutated structure.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import PipelineMaintainer
from repro.errors import UnsupportedQueryError
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.fo.syntax import Var
from repro.session import Database
from repro.structures.random_gen import random_colored_graph
from repro.structures.signature import Signature
from repro.structures.structure import Structure

x, y = Var("x"), Var("y")

EXAMPLE = "B(x) & R(y) & ~E(x,y)"


class Maintained:
    """One session with one maintained plan for ``query``."""

    def __init__(self, structure, query, order):
        self.db = Database(structure)
        self.structure = structure
        self.query = query
        self.order = tuple(order)
        self.plan = self.db.query(query, order=self.order, backend="serial")
        self.plan.count()  # cached and attached to a maintainer
        assert self.db.stats()["maintained_plans"] == 1

    @property
    def maintainer(self) -> PipelineMaintainer:
        (maintainer,) = self.db._maintainers.values()
        return maintainer

    def apply(self, ops):
        result = self.db.apply(ops)
        if result.changed:
            assert result.maintained_plans >= 1, "maintained, not rebuilt"
        return result

    def insert(self, relation, *elements):
        return self.apply([(True, relation, elements)])

    def delete(self, relation, *elements):
        return self.apply([(False, relation, elements)])

    def answers(self):
        return self.plan.answers().all()

    def count(self):
        return self.plan.count()

    def test(self, candidate):
        return self.plan.test(candidate)

    def oracle(self):
        return sorted(naive_answers(self.query, self.structure, order=self.order))

    def close(self):
        self.db.close()


@pytest.fixture
def maintained():
    sessions = []

    def make(structure, query, order):
        session = Maintained(structure, query, order)
        sessions.append(session)
        return session

    yield make
    for session in sessions:
        session.close()


def _assert_consistent(dyn):
    want = dyn.oracle()
    assert sorted(dyn.answers()) == want
    assert dyn.count() == len(want)
    want_set = set(want)
    for probe in list(want)[:5]:
        assert dyn.test(probe)
    domain = list(dyn.structure.domain)
    for probe in [(domain[0], domain[-1]), (domain[1], domain[1])]:
        assert dyn.test(probe) == (probe in want_set)


@pytest.fixture
def dyn(small_colored, maintained):
    return maintained(small_colored.copy(), parse(EXAMPLE), (x, y))


class TestSingleUpdates:
    def test_insert_edge_removes_answer(self, dyn):
        answers = dyn.answers()
        assert answers
        blue, red = answers[0]
        if blue != red:
            assert dyn.insert("E", blue, red).changed
            assert not dyn.test((blue, red))
            _assert_consistent(dyn)

    def test_delete_edge_adds_answer(self, dyn):
        # Find a blue-red edge to delete.
        edge = None
        for u, v in dyn.structure.facts("E"):
            if dyn.structure.has_fact("B", u) and dyn.structure.has_fact("R", v):
                edge = (u, v)
                break
        if edge is None:
            pytest.skip("no blue-red edge in this structure")
        before = dyn.count()
        assert dyn.delete("E", *edge).changed
        _assert_consistent(dyn)
        if not dyn.structure.has_fact("E", edge[1], edge[0]):
            assert dyn.test(edge)
            assert dyn.count() == before + 1

    def test_insert_color(self, dyn):
        uncolored = next(
            e for e in dyn.structure.domain if not dyn.structure.has_fact("B", e)
        )
        assert dyn.insert("B", uncolored).changed
        _assert_consistent(dyn)

    def test_delete_color(self, dyn):
        blue = next(fact[0] for fact in dyn.structure.facts("B"))
        assert dyn.delete("B", blue).changed
        _assert_consistent(dyn)

    def test_idempotent_insert(self, dyn):
        fact = next(iter(dyn.structure.facts("E")))
        before = dyn.maintainer.updates_applied
        result = dyn.insert("E", *fact)  # already present: no refresh
        assert not result.changed
        assert dyn.maintainer.updates_applied == before

    def test_idempotent_delete(self, dyn):
        before = dyn.maintainer.updates_applied
        domain = dyn.structure.domain
        result = dyn.delete("E", domain[0], domain[0])
        assert not result.changed
        assert dyn.maintainer.updates_applied == before


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
    def test_random_walk_stays_consistent(
        self, query_text, small_colored, maintained
    ):
        query = parse(query_text)
        dyn = maintained(small_colored.copy(), query, sorted(query.free))
        rng = random.Random(7)
        domain = list(dyn.structure.domain)
        for _ in range(15):
            a, b = rng.choice(domain), rng.choice(domain)
            roll = rng.random()
            if roll < 0.4:
                dyn.insert("E", a, b)
            elif roll < 0.7:
                dyn.delete("E", a, b)
            elif roll < 0.85:
                dyn.insert("B", a)
            else:
                dyn.delete("R", a)
        assert sorted(dyn.answers()) == dyn.oracle()

    def test_build_graph_from_empty(self, maintained):
        """Grow a graph edge by edge; the maintained state tracks it."""
        db = Structure(Signature.of(E=2, B=1, R=1), range(8))
        for u in range(0, 8, 2):
            db.add_fact("B", u)
        for u in range(1, 8, 2):
            db.add_fact("R", u)
        dyn = maintained(db, parse(EXAMPLE), (x, y))
        assert dyn.count() == 16  # all blue-red pairs, nothing connected
        for u in range(0, 8, 2):
            assert dyn.insert("E", u, u + 1).changed
        _assert_consistent(dyn)
        assert dyn.count() == 12

    def test_tear_down_to_empty(self, dyn):
        for fact in list(dyn.structure.facts("E")):
            assert dyn.delete("E", *fact).changed
        # Without edges, every blue-red pair is an answer.
        blues = len(dyn.structure.facts("B"))
        reds = len(dyn.structure.facts("R"))
        assert dyn.count() == blues * reds


class TestSupportGuard:
    def test_rejects_derived_predicates(self, small_colored):
        structure = small_colored.copy()
        with Database(structure) as db:
            query = db.query(
                parse("B(x) & exists z. (R(z) & ~E(x,z))"), order=(x,)
            )
            with pytest.raises(UnsupportedQueryError):
                PipelineMaintainer(query.pipeline)
            assert db.stats()["maintained_plans"] == 0
            blue = next(e for e in structure.domain if not structure.has_fact("B", e))
            result = db.apply([(True, "B", (blue,))])
            assert result.changed and result.maintained_plans == 0

    def test_accepts_relativized_quantifiers(self, small_colored, maintained):
        dyn = maintained(
            small_colored.copy(), parse("exists z in N2(x). R(z)"), (x,)
        )
        red = next(e for e in dyn.structure.domain if not dyn.structure.has_fact("R", e))
        assert dyn.insert("R", red).changed
        assert sorted(dyn.answers()) == dyn.oracle()

    def test_refresh_radius_is_query_dependent(self, dyn):
        maintainer = dyn.maintainer
        assert maintainer.refresh_radius >= maintainer.pipeline.link_radius


class TestBatchMaintenance:
    """One refresh pass per plan for a whole changeset, with no-ops and
    cancelling pairs netted out."""

    def test_batch_is_one_pass_and_oracle_exact(self, dyn):
        domain = list(dyn.structure.domain)
        existing = next(iter(dyn.structure.facts("E")))
        ops = [
            (True, "E", (domain[0], domain[-1])),
            (False, "E", existing),
            (True, "E", existing),            # cancels the remove
            (True, "B", (domain[1],)),
        ]
        before = dyn.maintainer.updates_applied
        result = dyn.apply(ops)
        assert dyn.maintainer.updates_applied == before + 1, "one pass, not four"
        assert 0 < result.ops_effective <= 2
        assert sorted(dyn.answers()) == dyn.oracle()

    def test_all_noops_skip_the_refresh(self, dyn):
        existing = next(iter(dyn.structure.facts("E")))
        result = dyn.apply([(True, "E", existing)])
        assert result.ops_effective == 0
        assert dyn.maintainer.updates_applied == 0

    @given(seed=st.integers(0, 30), update_seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_batch_oracle_property(self, seed, update_seed):
        structure = random_colored_graph(12, max_degree=3, seed=seed).copy()
        dyn = Maintained(structure, parse(EXAMPLE), (x, y))
        try:
            rng = random.Random(update_seed)
            domain = list(structure.domain)
            ops = []
            for _ in range(8):
                a, b = rng.choice(domain), rng.choice(domain)
                ops.append((rng.random() < 0.5, "E", (a, b)))
            dyn.apply(ops)
            assert dyn.maintainer.updates_applied <= 1
            assert sorted(dyn.answers()) == dyn.oracle()
        finally:
            dyn.close()


@given(seed=st.integers(0, 30), update_seed=st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_dynamic_oracle_property(seed, update_seed):
    structure = random_colored_graph(12, max_degree=3, seed=seed).copy()
    dyn = Maintained(structure, parse(EXAMPLE), (x, y))
    try:
        rng = random.Random(update_seed)
        domain = list(structure.domain)
        for _ in range(8):
            a, b = rng.choice(domain), rng.choice(domain)
            if rng.random() < 0.5:
                dyn.insert("E", a, b)
            else:
                dyn.delete("E", a, b)
        assert sorted(dyn.answers()) == dyn.oracle()
    finally:
        dyn.close()
