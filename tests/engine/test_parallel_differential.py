"""Differential tests: the parallel engine against the serial pipeline
and the naive product baseline on random (structure, formula) pairs.

The engine's contract is exact: for every query it must produce the
*same answer sequence* — set AND order — as serial
``enumerate_answers`` on a session-planned pipeline, which in turn must
agree as a set with
``baselines.product_enumerate``.  Any divergence, on any generated pair,
is a bug in the branch splitting, the deterministic merge, or the cache.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.baselines import product_enumerate
from repro.core.enumeration import enumerate_answers
from repro.engine import parallel_enumerate
from repro.session import Database

from planning import plan
from strategies import (
    formulas,
    rejecting_unsupported,
    structures,
    ternary_structures,
)

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def plan_or_reject(db, formula, order):
    """Plan, rejecting formulas outside the pipeline's fragment.

    The pipeline guards its clause expansion (``max_units``) with
    ``UnsupportedQueryError``; such formulas are out of scope for the
    engine-vs-serial comparison, not failures.
    """
    with rejecting_unsupported():
        return plan(db, formula, order=order)


def assert_engine_matches(db, formula, workers=3, modes=("serial", "thread")):
    """Engine output must equal serial output exactly, and the oracle as a set."""
    order = sorted(formula.free)
    pipeline = plan_or_reject(db, formula, order)
    serial = list(enumerate_answers(pipeline))

    for mode in modes:
        parallel = list(parallel_enumerate(pipeline, workers=workers, mode=mode))
        assert parallel == serial, (
            f"mode={mode}: parallel answers (or their order) diverge from serial"
        )

    oracle = set(product_enumerate(formula, db, order=order))
    assert set(serial) == oracle, "serial pipeline diverges from the product baseline"
    assert len(set(serial)) == len(serial), "enumeration repeated a tuple"


class TestBinarySignature:
    @given(
        db=structures(max_n=10),
        formula=formulas(free_count=2, max_depth=3, max_quantifiers=1),
    )
    @settings(max_examples=30, **SETTINGS)
    def test_quantified(self, db, formula):
        assert_engine_matches(db, formula)

    @given(
        db=structures(max_n=12),
        formula=formulas(free_count=2, max_depth=3, max_quantifiers=0),
    )
    @settings(max_examples=30, **SETTINGS)
    def test_quantifier_free(self, db, formula):
        assert_engine_matches(db, formula)

    @given(
        db=structures(max_n=8),
        formula=formulas(free_count=1, max_depth=3, max_quantifiers=3),
    )
    @settings(max_examples=15, **SETTINGS)
    def test_deep_quantifier_nesting(self, db, formula):
        """Up to three nested quantifiers (the new strategy depth)."""
        assert_engine_matches(db, formula)


class TestTernarySignature:
    @given(
        db=ternary_structures(max_n=10),
        formula=formulas(free_count=2, max_depth=3, max_quantifiers=0, ternary=True),
    )
    @settings(max_examples=25, **SETTINGS)
    def test_quantifier_free(self, db, formula):
        assert_engine_matches(db, formula)

    @given(
        db=ternary_structures(max_n=8),
        formula=formulas(free_count=2, max_depth=2, max_quantifiers=1, ternary=True),
    )
    @settings(max_examples=15, **SETTINGS)
    def test_quantified(self, db, formula):
        assert_engine_matches(db, formula)


class TestSessionDifferential:
    """The session path (cache + shared graphs) must match too."""

    @given(
        db=structures(max_n=10),
        formula=formulas(free_count=2, max_depth=3, max_quantifiers=1),
    )
    @settings(max_examples=20, **SETTINGS)
    def test_session_matches_serial_and_oracle(self, db, formula):
        order = sorted(formula.free)
        serial = list(enumerate_answers(plan_or_reject(db, formula, order)))

        with Database(db, workers=2) as session:
            query = session.query(formula, order=order, backend="thread")
            first = query.answers().all()
            # Re-planning hits the pipeline cache; answers must be identical.
            query = session.query(formula, order=order, backend="thread")
            second = query.answers().all()
            assert first == serial
            assert second == serial
            assert session.stats()["hits"] >= 1

        oracle = set(product_enumerate(formula, db, order=order))
        assert set(first) == oracle


class TestProcessMode:
    """Process pools are slow to spin up; a few fixed differential cases."""

    QUERIES = [
        "B(x) & R(y) & ~E(x,y)",
        "B(x) & R(y) & E(x,y)",
        "(B(x) | R(x)) & (B(y) | R(y)) & x != y & ~E(x,y)",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_process_pool_matches_serial(self, medium_colored, text):
        pipeline = plan(medium_colored, text)
        serial = list(enumerate_answers(pipeline))
        parallel = list(parallel_enumerate(pipeline, workers=2, mode="process"))
        assert parallel == serial
