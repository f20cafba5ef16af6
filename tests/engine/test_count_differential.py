"""Differential tests for counting: every count equals ``count_answers``.

Theorem 2.5 makes ``|q(A)|`` a sum of independent per-branch counts.
Counting always runs in-process over the caller's pipeline, whatever
backend enumerates: ``backend="process"`` forces enumeration only, and
no count starts or submits to the session pool.

The per-branch split is still checked against a pipeline rebuilt from
its picklable spec, the way a process enumeration worker rebuilds it:
every branch counted there must sum to the serial count, and the
serial count must equal the naive oracle.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.counting import count_answers, count_branch_at
from repro.core.pipeline import Pipeline
from repro.engine import BranchTask, executor
from repro.engine.executor import _default_spec_key, _worker_pipeline
from repro.session import Database
from repro.fo.parser import parse
from repro.fo.semantics import naive_count
from repro.structures.random_gen import random_colored_graph

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

EXAMPLE = "B(x) & R(y) & ~E(x,y)"


def plan_or_reject(db, formula, order=None):
    with rejecting_unsupported():
        return plan(db, formula, order=order)


def rebuilt_count(pipeline):
    """Per-branch counts over the pipeline a process worker rebuilds from
    the pickled spec, run in this process and summed."""
    spec = pickle.loads(pickle.dumps(pipeline.rebuild_spec()))
    rebuilt = _worker_pipeline(BranchTask(spec, _default_spec_key(pipeline), 0))
    return sum(
        count_branch_at(rebuilt, index) for index in range(len(rebuilt.branches))
    )


def assert_counts_match(db, formula):
    order = sorted(formula.free)
    pipeline = plan_or_reject(db, formula, order)
    serial = count_answers(pipeline)
    if pipeline.trivial is None:
        assert rebuilt_count(pipeline) == serial, "rebuilt branches diverge"
    # And serial itself against the naive oracle, closing the loop.
    assert serial == naive_count(formula, db)


def assert_counted_in_process(session, query, serial, backend, order=None):
    """A count through ``backend`` is exact, reads ``serial`` and leaves
    the session pool unstarted."""
    answers = session.query(query, order=order, backend=backend).answers()
    assert answers.count() == serial
    assert answers.count_backend_used == "serial"
    stats = session.pool.stats()
    assert stats["submits"] == 0 and stats["process_pool_live"] == 0


class TestBinarySignature:
    @given(
        db=structures(max_n=10),
        formula=formulas(free_count=2, max_depth=3, max_quantifiers=1),
    )
    @settings(max_examples=25, **SETTINGS)
    def test_quantified(self, db, formula):
        assert_counts_match(db, formula)

    @given(
        db=structures(max_n=12),
        formula=formulas(free_count=2, max_depth=3, max_quantifiers=0),
    )
    @settings(max_examples=25, **SETTINGS)
    def test_quantifier_free(self, db, formula):
        assert_counts_match(db, formula)

    @given(
        db=structures(max_n=8),
        formula=formulas(free_count=1, max_depth=3, max_quantifiers=3),
    )
    @settings(max_examples=10, **SETTINGS)
    def test_deep_quantifier_nesting(self, db, formula):
        assert_counts_match(db, formula)


class TestTernarySignature:
    @given(
        db=ternary_structures(max_n=10),
        formula=formulas(free_count=2, max_depth=3, max_quantifiers=0, ternary=True),
    )
    @settings(max_examples=20, **SETTINGS)
    def test_quantifier_free(self, db, formula):
        assert_counts_match(db, formula)

    @given(
        db=ternary_structures(max_n=8),
        formula=formulas(free_count=2, max_depth=2, max_quantifiers=1, ternary=True),
    )
    @settings(max_examples=10, **SETTINGS)
    def test_quantified(self, db, formula):
        assert_counts_match(db, formula)


class TestProcessMode:
    """``backend="process"`` forces enumeration only: its counts run
    in-process, exact, and never start the pool."""

    @given(
        db=structures(max_n=8),
        formula=formulas(free_count=2, max_depth=2, max_quantifiers=0),
    )
    @settings(max_examples=5, **SETTINGS)
    def test_random_pairs(self, db, formula):
        order = sorted(formula.free)
        serial = count_answers(plan_or_reject(db, formula, order))
        with Database(db, workers=2) as session:
            answers = session.query(formula, order=order, backend="process").answers()
            assert answers.count() == serial
            assert session.pool.stats()["submits"] == 0

    QUERIES = [
        EXAMPLE,
        "B(x) & R(y) & E(x,y)",
        "(B(x) | R(x)) & (B(y) | R(y)) & x != y & ~E(x,y)",
        "exists z. E(x,z) & R(z)",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_corpus(self, medium_colored, text, workers):
        serial = count_answers(plan(medium_colored, text))
        with Database(medium_colored, workers=workers) as session:
            assert_counted_in_process(session, text, serial, "process")


class TestTrivialAndEmpty:
    BACKENDS = ("auto", "serial", "process")

    def test_trivially_true(self, small_colored):
        pipeline = plan(small_colored, "x = x")
        serial = count_answers(pipeline)
        assert serial == small_colored.cardinality
        with Database(small_colored, workers=2) as session:
            for backend in self.BACKENDS:
                assert_counted_in_process(session, "x = x", serial, backend)

    def test_constant_pipeline_counts_in_every_mode(self, small_colored):
        # Localization folds this to ``true``: no branches to split, so
        # every backend counts |A|.
        pipeline = plan(small_colored, "B(x) | ~B(x)", order=["x"])
        assert pipeline.trivial is True
        with Database(small_colored, workers=2) as session:
            for backend in self.BACKENDS:
                assert_counted_in_process(
                    session, "B(x) | ~B(x)", small_colored.cardinality, backend,
                    order=["x"],
                )

    def test_empty_answer_set(self, small_colored):
        with Database(small_colored, workers=2) as session:
            for backend in self.BACKENDS:
                assert_counted_in_process(
                    session, "B(x) & R(x) & ~(x = x)", 0, backend
                )


class TestCountNeverReachesThePool:
    """With the cost model forced to ``process``, an ``auto`` count and a
    ``backend="process"`` count both stay in-process."""

    @pytest.fixture(autouse=True)
    def auto_goes_process(self, monkeypatch):
        monkeypatch.setattr(
            executor, "choose_execution_mode", lambda *args, **kwargs: "process"
        )

    @pytest.mark.parametrize("backend", ["auto", "process"])
    def test_count_is_served_in_process(self, medium_colored, backend):
        serial = count_answers(plan(medium_colored, EXAMPLE))
        with Database(medium_colored, workers=2) as session:
            assert_counted_in_process(session, EXAMPLE, serial, backend)
            query = session.query(EXAMPLE, backend=backend)
            assert query.count() == serial
            assert session.count(EXAMPLE, backend=backend) == serial
            explained = query.explain()
            assert explained.count_backend == "serial"
            assert "count: serial" in explained.describe()
            stats = session.pool.stats()
            assert stats["submits"] == 0 and stats["process_pool_live"] == 0


class TestSessionCountPath:
    """Query.count() and Answers.count() ride the same engine."""

    @given(
        db=structures(max_n=10),
        formula=formulas(free_count=2, max_depth=3, max_quantifiers=1),
    )
    @settings(max_examples=15, **SETTINGS)
    def test_session_count_matches_serial(self, db, formula):
        order = sorted(formula.free)
        serial = count_answers(plan_or_reject(db, formula, order))
        with Database(db, workers=2) as session:
            assert session.count(formula, order=order) == serial
            assert session.query(formula, order=order).answers().count() == serial

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_forced_modes_through_session(self, medium_colored, mode):
        serial = count_answers(plan(medium_colored, EXAMPLE))
        with Database(medium_colored, workers=2) as session:
            assert session.count(EXAMPLE, backend=mode) == serial


class TestCountingGate:
    """The counting gate, formerly ``benchmarks/bench_e3_counting.py
    --smoke``: on Example 2.3 at n=96 (max degree 4, seed 42), a count
    through a 4-worker session equals the serial ``count_answers`` and
    the naive oracle count, for each backend."""

    N = 96
    WORKERS = 4

    @pytest.fixture(scope="class")
    def gate(self):
        structure = random_colored_graph(self.N, max_degree=4, seed=42)
        formula = parse(EXAMPLE)
        return structure, formula, Pipeline(structure, formula)

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_count_equals_serial_and_naive(self, gate, mode):
        structure, formula, pipeline = gate
        serial = count_answers(pipeline)
        assert serial == naive_count(formula, structure)
        with Database(structure, workers=self.WORKERS) as session:
            assert_counted_in_process(session, formula, serial, mode)
