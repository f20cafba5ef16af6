"""Integration tests over a non-binary signature (T/3).

Proposition 3.4's reduction must handle arbitrary arities: ternary facts
induce Gaifman cliques, and cluster tuples/colors are evaluated against
the original (non-graph) structure.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core.enumeration import enumerate_answers
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.structures.random_gen import random_structure
from repro.structures.signature import Signature

from planning import plan


QUERIES = [
    "T(x,y,z)",
    "T(x,y,z) & B(x)",
    "B(x) & ~B(y) & ~T(x,x,y)",
    "exists u. T(x,u,y)",
    "B(x) & B(y) & dist(x,y) > 2",
]


def assert_matches(db, text):
    query = parse(text)
    order = sorted(query.free)
    with Database(db) as session:
        prepared = session.query(query, order=order)
        got = sorted(enumerate_answers(prepared.pipeline, validate=True))
        want = sorted(naive_answers(query, db, order=order))
        assert got == want
        assert prepared.count() == len(want)


class TestTernary:
    @pytest.fixture
    def db(self):
        return random_structure(Signature.of(T=3, B=1), 14, max_degree=4, seed=6)

    @pytest.mark.parametrize("text", QUERIES)
    def test_corpus(self, db, text):
        assert_matches(db, text)

    def test_testing_on_ternary(self, db):
        query = parse("T(x,y,z)")
        with Database(db) as session:
            prepared = session.query(query, order=sorted(query.free))
            for fact in list(db.facts("T"))[:10]:
                assert prepared.test(fact)

    def test_gaifman_cliques_link_clusters(self, db):
        """Components of one T-fact always share a cluster."""
        query = parse("B(x) & ~B(y)")
        pipeline = plan(db, query, order=sorted(query.free))
        for fact in db.facts("T"):
            a, b = fact[0], fact[1]
            if a == b:
                continue
            plan_index, node_ids = pipeline.encode((a, b))
            partition = pipeline.plans[plan_index].partition
            assert partition == ((0, 1),)


@given(seed=st.integers(0, 40))
@settings(max_examples=12, deadline=None)
def test_ternary_property(seed):
    db = random_structure(Signature.of(T=3, B=1), 12, max_degree=4, seed=seed)
    assert_matches(db, "T(x,y,z) & B(x)")


@given(seed=st.integers(0, 40))
@settings(max_examples=12, deadline=None)
def test_mixed_arity_property(seed):
    db = random_structure(
        Signature.of(T=3, E=2, B=1), 12, max_degree=4, seed=seed
    )
    assert_matches(db, "E(x,y) & ~B(x) & exists u. T(x,u,y)")
