"""Cross-module integration: the three operations against the oracle on
every (corpus query, structure) combination, plus random-formula fuzzing.

This is the library's strongest correctness statement: counting, testing,
and enumeration all pass through localization, separation, the colored
graph, and the skip machinery — any bug anywhere surfaces as a divergence
from the naive semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core.enumeration import enumerate_answers
from repro.errors import UnsupportedQueryError
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers, naive_test
from repro.fo.syntax import Var

from strategies import (
    MAX_UNITS_FLAKY_FORMULA,
    formulas,
    rejecting_unsupported,
    structures,
)

x, y = Var("x"), Var("y")


def assert_all_operations_match(db, query, reject_unsupported=False):
    order = sorted(query.free)
    want = sorted(naive_answers(query, db, order=order))
    with Database(db) as session:
        if reject_unsupported:
            # Fuzzing only: formulas whose clause expansion trips the
            # pipeline's max_units budget are outside the supported
            # fragment (same convention as the engine differential
            # suites), not bugs.
            with rejecting_unsupported():
                prepared = session.query(query, order=order)
        else:
            prepared = session.query(query, order=order)

        got = sorted(enumerate_answers(prepared.pipeline, validate=True))
        assert got == want, "enumeration diverges from the oracle"
        assert len(set(got)) == len(got), "enumeration repeated a tuple"

        assert prepared.count() == len(want), "count diverges from the oracle"

        want_set = set(want)
        domain = list(db.domain)
        arity = prepared.arity
        probes = list(want_set)[:20]
        if arity == 1:
            probes += [(a,) for a in domain[:10]]
        elif arity == 2:
            probes += [(a, b) for a in domain[:5] for b in domain[:5]]
        for probe in probes:
            assert prepared.test(probe) == (probe in want_set), f"test({probe})"


class TestCorpusIntegration:
    def test_on_small_random(self, corpus_query, small_colored):
        assert_all_operations_match(small_colored, corpus_query)

    def test_on_clique(self, quantifier_free_query, clique_structure):
        assert_all_operations_match(clique_structure, quantifier_free_query)

    def test_on_ring(self, quantifier_free_query, ring_structure):
        assert_all_operations_match(ring_structure, quantifier_free_query)


class TestMaxUnitsBudget:
    """Regression for the fuzzer flake: the strategies *can* generate
    formulas whose clause expansion trips the documented ``max_units``
    budget.  Every entry point must reject them with
    :class:`UnsupportedQueryError` — which the Hypothesis suites
    ``assume()`` away — instead of crashing or hanging."""

    def test_previously_flaky_formula_is_rejected(self, small_colored):
        from repro.core.pipeline import Pipeline

        formula = parse(MAX_UNITS_FLAKY_FORMULA)
        with pytest.raises(UnsupportedQueryError, match="units"):
            Pipeline(small_colored, formula, order=sorted(formula.free))

    def test_session_front_end_rejects_it_too(self, small_colored):
        from repro import Database

        formula = parse(MAX_UNITS_FLAKY_FORMULA)
        with Database(small_colored) as db:
            with pytest.raises(UnsupportedQueryError, match="units"):
                db.query(formula, order=sorted(formula.free))

    def test_fuzzing_helper_converts_it_to_a_rejection(self, small_colored):
        # The exact path every differential suite takes: with
        # reject_unsupported the formula becomes a rejected draw ("draw
        # again"), never an error or a divergence report — so a property
        # test that only ever draws it is unsatisfiable.
        from hypothesis.errors import Unsatisfiable

        @given(text=st.just(MAX_UNITS_FLAKY_FORMULA))
        @settings(max_examples=1, deadline=None, database=None)
        def draw(text):
            assert_all_operations_match(
                small_colored, parse(text), reject_unsupported=True
            )

        with pytest.raises(Unsatisfiable):
            draw()


class TestFuzzing:
    @given(formula=formulas(free_count=2, max_depth=3, max_quantifiers=0),
           db=structures(max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_random_quantifier_free(self, formula, db):
        assert_all_operations_match(db, formula, reject_unsupported=True)

    @given(formula=formulas(free_count=2, max_depth=2, max_quantifiers=1),
           db=structures(max_n=9))
    @settings(max_examples=30, deadline=None)
    def test_random_single_quantifier(self, formula, db):
        assert_all_operations_match(db, formula, reject_unsupported=True)

    @given(formula=formulas(free_count=1, max_depth=2, max_quantifiers=2),
           db=structures(max_n=8))
    @settings(max_examples=20, deadline=None)
    def test_random_two_quantifiers(self, formula, db):
        assert_all_operations_match(db, formula, reject_unsupported=True)
