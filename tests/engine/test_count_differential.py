"""Differential tests: ``parallel_count`` against serial ``count_answers``.

Theorem 2.5 makes ``|q(A)|`` a sum of independent per-branch counts, so
the parallel engine must return the *exact* serial integer — in every
execution mode, for every worker count, on every (structure, formula)
pair.  Any divergence is a bug in the branch splitting, the worker-side
pipeline rebuild, or the summation.

The per-branch split is checked without a pool: every branch counted
by the worker entry point (``count_branch_task``, rebuilding the
pipeline from its picklable spec in this process) must sum to the
serial count.  Process pools run on a small fixed budget only.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.counting import count_answers
from repro.core.pipeline import Pipeline
from repro.engine import BranchTask, WorkerPool, parallel_count
from repro.engine.executor import _default_spec_key, count_branch_task
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


@pytest.fixture(scope="module")
def shared_pool():
    """One long-lived pool for the whole module — warm reuse is exactly
    the regime the engine runs in, and it keeps process tests affordable."""
    with WorkerPool(2) as pool:
        yield pool


def plan_or_reject(db, formula, order=None):
    with rejecting_unsupported():
        return plan(db, formula, order=order)


def task_count(pipeline):
    """The per-branch worker tasks, run in this process and summed."""
    spec, key = pipeline.rebuild_spec(), _default_spec_key(pipeline)
    return sum(
        count_branch_task(BranchTask(spec, key, index))
        for index in range(len(pipeline.branches))
    )


def assert_counts_match(db, formula, pool, modes=("serial",)):
    order = sorted(formula.free)
    pipeline = plan_or_reject(db, formula, order)
    serial = count_answers(pipeline)
    if pipeline.trivial is None:
        assert task_count(pipeline) == serial, "worker tasks diverge from serial"
    for mode in modes:
        for workers in (1, 2, 3, 4):
            got = parallel_count(pipeline, workers=workers, mode=mode, pool=pool)
            assert got == serial, (
                f"mode={mode}, workers={workers}: parallel count {got} "
                f"!= serial {serial}"
            )
    # And serial itself against the naive oracle, closing the loop.
    assert serial == naive_count(formula, db)


class TestBinarySignature:
    @given(
        db=structures(max_n=10),
        formula=formulas(free_count=2, max_depth=3, max_quantifiers=1),
    )
    @settings(max_examples=25, **SETTINGS)
    def test_quantified(self, db, formula, shared_pool):
        assert_counts_match(db, formula, shared_pool)

    @given(
        db=structures(max_n=12),
        formula=formulas(free_count=2, max_depth=3, max_quantifiers=0),
    )
    @settings(max_examples=25, **SETTINGS)
    def test_quantifier_free(self, db, formula, shared_pool):
        assert_counts_match(db, formula, shared_pool)

    @given(
        db=structures(max_n=8),
        formula=formulas(free_count=1, max_depth=3, max_quantifiers=3),
    )
    @settings(max_examples=10, **SETTINGS)
    def test_deep_quantifier_nesting(self, db, formula, shared_pool):
        assert_counts_match(db, formula, shared_pool)


class TestTernarySignature:
    @given(
        db=ternary_structures(max_n=10),
        formula=formulas(free_count=2, max_depth=3, max_quantifiers=0, ternary=True),
    )
    @settings(max_examples=20, **SETTINGS)
    def test_quantifier_free(self, db, formula, shared_pool):
        assert_counts_match(db, formula, shared_pool)

    @given(
        db=ternary_structures(max_n=8),
        formula=formulas(free_count=2, max_depth=2, max_quantifiers=1, ternary=True),
    )
    @settings(max_examples=10, **SETTINGS)
    def test_quantified(self, db, formula, shared_pool):
        assert_counts_match(db, formula, shared_pool)


class TestProcessMode:
    """Process tasks pickle specs and rebuild worker-side; a smaller
    Hypothesis budget plus a fixed corpus keeps the suite fast."""

    @given(
        db=structures(max_n=8),
        formula=formulas(free_count=2, max_depth=2, max_quantifiers=0),
    )
    @settings(max_examples=5, **SETTINGS)
    def test_random_pairs(self, db, formula, shared_pool):
        assert_counts_match(db, formula, shared_pool, modes=("process",))

    QUERIES = [
        "B(x) & R(y) & ~E(x,y)",
        "B(x) & R(y) & E(x,y)",
        "(B(x) | R(x)) & (B(y) | R(y)) & x != y & ~E(x,y)",
        "exists z. E(x,z) & R(z)",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_corpus(self, medium_colored, text, workers, shared_pool):
        pipeline = plan(medium_colored, text)
        serial = count_answers(pipeline)
        got = parallel_count(
            pipeline, workers=workers, mode="process", pool=shared_pool
        )
        assert got == serial


class TestTrivialAndEmpty:
    def test_trivially_true(self, small_colored, shared_pool):
        pipeline = plan(small_colored, "x = x")
        serial = count_answers(pipeline)
        assert serial == small_colored.cardinality
        for mode in ("serial", "process"):
            assert (
                parallel_count(pipeline, workers=2, mode=mode, pool=shared_pool)
                == serial
            )

    def test_constant_pipeline_counts_in_every_mode(self, small_colored, shared_pool):
        # Localization folds this to ``true``: no branches to split, so
        # a forced process count still runs serially and counts |A|.
        pipeline = plan(small_colored, "B(x) | ~B(x)", order=["x"])
        assert pipeline.trivial is True
        for mode in (None, "serial", "process"):
            assert (
                parallel_count(pipeline, workers=2, mode=mode, pool=shared_pool)
                == small_colored.cardinality
            )

    def test_empty_answer_set(self, small_colored, shared_pool):
        pipeline = plan(small_colored, "B(x) & R(x) & ~(x = x)")
        for mode in ("serial", "process"):
            assert (
                parallel_count(pipeline, workers=2, mode=mode, pool=shared_pool)
                == 0
            )


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
        text = "B(x) & R(y) & ~E(x,y)"
        serial = count_answers(plan(medium_colored, text))
        with Database(medium_colored, workers=2) as session:
            assert session.count(text, backend=mode) == serial


class TestCountingGate:
    """The counting gate, formerly ``benchmarks/bench_e3_counting.py
    --smoke``: on Example 2.3 at n=96 (max degree 4, seed 42), a count
    over 4 workers equals the serial ``count_answers`` and the naive
    oracle count, in every mode."""

    N = 96
    WORKERS = 4

    @pytest.fixture(scope="class")
    def gate(self):
        structure = random_colored_graph(self.N, max_degree=4, seed=42)
        formula = parse("B(x) & R(y) & ~E(x,y)")
        return structure, formula, Pipeline(structure, formula)

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_count_equals_serial_and_naive(self, gate, mode):
        structure, formula, pipeline = gate
        serial = count_answers(pipeline)
        assert serial == naive_count(formula, structure)
        with WorkerPool(self.WORKERS) as pool:
            got = parallel_count(
                pipeline, workers=self.WORKERS, mode=mode, pool=pool
            )
        assert got == serial
