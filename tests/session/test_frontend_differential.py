"""Front-end differential suite: every entry point, one answer.

For a corpus of (structure, query) pairs — including ternary relations
and nested quantifiers — ``Database.query(...)`` must produce
*byte-identical* enumeration order, exact-equal counts, and identical
test verdicts versus every other face of the same session (the awaitable
``Answers`` methods, a pinned ``snapshot()``) and versus the paper's
algorithms run directly on the planned pipeline, on both fixed corpus
queries and Hypothesis-generated random structures/formulas.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings

from repro import Database
from repro.core.counting import count_answers
from repro.core.enumeration import enumerate_answers
from repro.core.testing import test_answer
from repro.fo import parse
from repro.fo.semantics import naive_answers

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

CORPUS = [
    "B(x)",
    "B(x) & R(y) & ~E(x,y)",                     # Example 2.3
    "B(x) & R(y) & (E(x,y) | E(y,x))",
    "B(x) & B(y) & ~E(x,y) & ~E(y,x) & x != y",
    "dist(x,y) > 2 & B(x) & R(y)",
    "exists z. E(x,z) & E(z,y) & x != y",        # nested witness
    "B(x) & exists z. (R(z) & dist(x,z) > 2)",   # derived predicates
    "forall z. E(x,z) -> B(z)",
    "exists z. exists w. E(z,w) & B(z) & R(w) & ~E(x,z)",  # nested quantifiers
]

TERNARY_CORPUS = [
    "T(x,y,y) & B(x)",
    "B(x) & exists z. T(x,z,y)",
    "T(x,y,y) & ~B(y) & dist(x,y) <= 2",
]


def front_end_results(structure, formula, order):
    """(answers, count, verdicts) from each front-end, same inputs."""
    probes = []
    session_db = Database(structure)
    session_query = session_db.query(formula, order=order)
    session_answers = session_query.answers().all()
    # Probe a mix of real answers and non-answers.
    probes = session_answers[:3] + [
        tuple(reversed(answer)) for answer in session_answers[:2]
    ]
    if order:
        first = next(iter(structure.domain))
        probes.append((first,) * len(order))

    def capture(answers, count, test):
        return {
            "answers": answers,
            "count": count,
            "verdicts": [test(probe) for probe in probes],
        }

    results = {
        "session": capture(
            session_answers, session_query.count(), session_query.test
        )
    }

    pipeline = session_query.pipeline
    results["core"] = capture(
        list(enumerate_answers(pipeline)),
        count_answers(pipeline),
        lambda probe: test_answer(pipeline, probe),
    )

    with session_db.snapshot() as snapshot:
        pinned = snapshot.query(formula, order=order)
        results["snapshot"] = capture(
            pinned.answers().all(), pinned.count(), pinned.test
        )

    async def async_face():
        handle = session_db.query(formula, order=order).answers()
        answers = await handle.aall()
        count = await handle.acount()
        verdicts = [await handle.atest(probe) for probe in probes]
        return {"answers": answers, "count": count, "verdicts": verdicts}

    results["asyncio"] = asyncio.run(async_face())
    session_db.close()
    return results


def assert_front_ends_agree(structure, formula_text_or_formula):
    formula = (
        parse(formula_text_or_formula)
        if isinstance(formula_text_or_formula, str)
        else formula_text_or_formula
    )
    order = sorted(formula.free)
    with rejecting_unsupported():
        results = front_end_results(structure, formula, order)
    reference = results.pop("session")
    # The session must equal the oracle as a set ...
    oracle = set(naive_answers(formula, structure, order=order))
    assert set(reference["answers"]) == oracle
    assert reference["count"] == len(oracle)
    # ... and every other face byte-for-byte (order included).
    for name, result in results.items():
        assert result["answers"] == reference["answers"], (
            f"{name}: answers (or their order) diverge from the session"
        )
        assert result["count"] == reference["count"], f"{name}: count diverges"
        assert result["verdicts"] == reference["verdicts"], (
            f"{name}: test verdicts diverge"
        )


class TestCorpus:
    @pytest.mark.parametrize("text", CORPUS)
    def test_binary_corpus(self, small_colored, text):
        assert_front_ends_agree(small_colored, text)

    @pytest.mark.parametrize("text", CORPUS[:4])
    def test_three_colors(self, three_colored, text):
        assert_front_ends_agree(three_colored, text)

    @pytest.mark.parametrize("text", TERNARY_CORPUS)
    def test_ternary_corpus(self, ternary_structure, text):
        assert_front_ends_agree(ternary_structure, text)


class TestHypothesis:
    @given(db=structures(max_n=10), formula=formulas(free_count=2, max_depth=3, max_quantifiers=1))
    @settings(max_examples=20, **SETTINGS)
    def test_random_binary(self, db, formula):
        assert_front_ends_agree(db, formula)

    @given(db=structures(max_n=8), formula=formulas(free_count=1, max_depth=3, max_quantifiers=2))
    @settings(max_examples=10, **SETTINGS)
    def test_random_nested_quantifiers(self, db, formula):
        assert_front_ends_agree(db, formula)

    @given(
        db=ternary_structures(max_n=9),
        formula=formulas(free_count=2, max_depth=2, max_quantifiers=1, ternary=True),
    )
    @settings(max_examples=10, **SETTINGS)
    def test_random_ternary(self, db, formula):
        assert_front_ends_agree(db, formula)


class TestExplainReportsReality:
    def test_explain_backend_matches_execution(self, medium_colored):
        with Database(medium_colored, workers=2) as db:
            for backend in (None, "serial", "thread"):
                query = db.query(
                    "B(x) & R(y) & ~E(x,y)", backend=backend, workers=2
                )
                plan = query.explain()
                answers = query.answers()
                answers.all()
                assert answers.backend_used == plan.backend
