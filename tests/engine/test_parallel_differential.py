"""Differential tests: the parallel engine against the serial pipeline
and the naive product baseline on random (structure, formula) pairs.

The engine's contract is exact: for every query it must produce the
*same answer sequence* — set AND order — as serial
``enumerate_answers`` on a session-planned pipeline, which in turn must
agree as a set with
``baselines.product_enumerate``.  Any divergence, on any generated pair,
is a bug in the branch splitting, the deterministic merge, or the cache.

The split itself is checked without a pool: for every worker count,
concatenating the rows of each work unit of ``plan_work_units`` (the
exact units process mode ships) must reproduce serial enumeration.
Process pools run on a fixed corpus only.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.baselines import product_enumerate
from repro.core.enumeration import enumerate_answers
from repro.engine import (
    WorkerPool,
    executor,
    parallel_enumerate,
    plan_work_units,
    run_branches,
    warm_pool,
)
from repro.engine.executor import _unit_rows
from repro.engine.transport import TransferStats
from repro.session import Database
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


def plan_or_reject(db, formula, order):
    """Plan, rejecting formulas outside the pipeline's fragment.

    The pipeline guards its clause expansion (``max_units``) with
    ``UnsupportedQueryError``; such formulas are out of scope for the
    engine-vs-serial comparison, not failures.
    """
    with rejecting_unsupported():
        return plan(db, formula, order=order)


def unit_rows(pipeline, workers):
    """Every work unit's rows, concatenated in unit order (no pool)."""
    return [
        row
        for unit in plan_work_units(pipeline, workers)
        for row in _unit_rows(pipeline, unit, None)
    ]


def assert_units_match(pipeline, serial):
    for workers in (1, 2, 3, 4):
        assert unit_rows(pipeline, workers) == serial, (
            f"workers={workers}: work units diverge from serial"
        )


def assert_engine_matches(db, formula):
    """Engine output must equal serial output exactly, and the oracle as a set."""
    order = sorted(formula.free)
    pipeline = plan_or_reject(db, formula, order)
    serial = list(enumerate_answers(pipeline))

    assert list(parallel_enumerate(pipeline, workers=3, mode="serial")) == serial
    if pipeline.trivial is None:
        assert_units_match(pipeline, serial)

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
            query = session.query(formula, order=order, backend="serial")
            first = query.answers().all()
            # Re-planning hits the pipeline cache; answers must be identical.
            query = session.query(formula, order=order, backend="serial")
            second = query.answers().all()
            assert first == serial
            assert second == serial
            assert session.stats()["hits"] >= 1
            if query.pipeline.trivial is None:
                assert_units_match(query.pipeline, serial)

        oracle = set(product_enumerate(formula, db, order=order))
        assert set(first) == oracle


class TestWorkUnits:
    """The pool-free split differential on a heavy branch that slices."""

    TRIPLE = "B(x) & R(y) & G(z) & ~E(x,y) & ~E(y,z) & ~E(x,z)"

    def test_sliced_units_concatenate_to_serial(self):
        structure = random_colored_graph(
            40, max_degree=4, colors=("B", "R", "G"), seed=42
        )
        pipeline = plan(structure, self.TRIPLE)
        serial = list(enumerate_answers(pipeline))
        assert any(
            stop is not None for _, _, stop in plan_work_units(pipeline, 4)
        ), "the workload must slice a heavy branch"
        assert_units_match(pipeline, serial)
        rows = [
            row
            for unit in plan_work_units(pipeline, 3)
            for row in _unit_rows(pipeline, unit, (2, 0))
        ]
        assert rows == [(z, x) for x, _, z in serial]


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


def output_digest(answers) -> str:
    """Byte-level identity of an ordered answer sequence."""
    hasher = hashlib.sha256()
    for answer in answers:
        hasher.update(repr(answer).encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()


class TestTripleQueryGate:
    """Serial and pooled enumeration of the 3-ary disconnected triple
    (5 non-empty branches) are byte-identical on a warmed 4-worker pool,
    for a forced ``process`` run and for an ``auto`` run that serves a
    small serial head and hands the rest to the pool.  The workload (n=48,
    seed 42, colours B/R/G) is the transport gate's, formerly
    ``benchmarks/bench_e12_transport.py --smoke``: forced-process chunks
    flatten to the serial output for every chunk size."""

    TRIPLE = "B(x) & R(y) & G(z) & ~E(x,y) & ~E(y,z) & ~E(x,z)"
    WORKERS = 4

    @pytest.fixture(scope="class")
    def workload(self):
        structure = random_colored_graph(
            48, max_degree=4, colors=("B", "R", "G"), seed=42
        )
        pipeline = plan(structure, self.TRIPLE)
        serial = list(parallel_enumerate(pipeline, mode="serial"))
        assert serial, "the gate needs answers"
        with WorkerPool(self.WORKERS) as pool:
            warm_pool(pool, pipeline, self.WORKERS)
            yield pipeline, serial, pool

    @pytest.mark.parametrize("mode", ["process", "auto"])
    def test_pooled_output_is_byte_identical(self, workload, mode, monkeypatch):
        pipeline, serial, pool = workload
        if mode == "auto":
            monkeypatch.setattr(
                executor, "choose_execution_mode", lambda *args, **kwargs: "process"
            )
        stats = TransferStats()
        pooled = list(
            parallel_enumerate(
                pipeline, workers=self.WORKERS, pool=pool,
                mode=None if mode == "auto" else mode,
                chunk_rows=16 if mode == "auto" else None,
                transfer_stats=stats,
            )
        )
        assert output_digest(pooled) == output_digest(serial)
        served = 0 if mode == "process" else stats.head_rows
        assert served is not None, "the auto run must hand over to the pool"
        assert stats.rows == len(serial) - served

    @pytest.mark.parametrize("chunk_rows", [1, 7, None])
    def test_every_chunk_size_is_byte_identical(self, workload, chunk_rows):
        pipeline, serial, pool = workload
        chunks = list(
            run_branches(
                pipeline, workers=self.WORKERS, mode="process", pool=pool,
                chunk_rows=chunk_rows,
            )
        )
        if chunk_rows is not None:
            assert max(len(chunk) for chunk in chunks) <= chunk_rows
        flat = [row for chunk in chunks for row in chunk]
        assert output_digest(flat) == output_digest(serial)
