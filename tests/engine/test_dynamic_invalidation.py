"""Engine caches vs. dynamic updates (insertions / deletions).

The contract, through the session: a commit (insert or delete) must
(a) leave every outstanding, partially consumed handle on the version it
was planned against — it keeps serving pre-update answers, reporting
``stale`` — while a direct structure mutation is refused by the write
guard, and (b) cause the next query to re-resolve against the current
state and agree with the naive oracle.
"""

from __future__ import annotations

import pytest

from repro.core.enumeration import enumerate_answers
from repro.errors import GuardedStructureError
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.fo.syntax import CountCmp, Var
from repro.session import Database
from repro.structures.random_gen import random_colored_graph

EXAMPLE = "B(x) & R(y) & ~E(x,y)"
x, y = Var("x"), Var("y")
# A counting atom blocks local maintenance: commits invalidate this plan.
UNMAINTAINABLE = CountCmp("B", 1, (x,), ">=", 1)


@pytest.fixture
def structure():
    return random_colored_graph(24, max_degree=3, seed=7)


@pytest.fixture
def db(structure):
    with Database(structure) as session:
        yield session


def missing_unary_fact(structure, relation="B"):
    """An element the relation does not yet hold of (a real insertion)."""
    return next(
        element
        for element in structure.domain
        if not structure.has_fact(relation, element)
    )


class TestOutstandingHandles:
    def test_insert_leaves_partial_handle_pinned(self, db, structure):
        handle = db.query(EXAMPLE).answers()
        before = list(enumerate_answers(handle._pipeline))
        first = handle.page(0, size=5)  # partially consumed
        db.insert_fact("B", missing_unary_fact(structure))
        assert handle.stale
        assert handle.page(0, size=5) == first
        assert handle.all() == before
        assert handle.count() == len(before)

    def test_delete_leaves_handle_pinned(self, db, structure):
        handle = db.query(EXAMPLE).answers()
        before = list(enumerate_answers(handle._pipeline))
        db.remove_fact("E", *next(iter(structure.facts("E"))))
        assert handle.all() == before

    def test_stream_continues_across_a_commit(self, db, structure):
        handle = db.query(EXAMPLE).answers()
        before = list(enumerate_answers(handle._pipeline))
        stream = handle.stream()
        head = [next(stream)]
        db.insert_fact("B", missing_unary_fact(structure))
        assert head + list(stream) == before

    def test_noop_update_keeps_handle_fresh(self, db, structure):
        handle = db.query(EXAMPLE).answers()
        existing = next(iter(structure.facts("B")))
        db.insert_fact("B", *existing)  # already present: not a mutation
        assert not handle.stale
        handle.all()

    def test_direct_mutation_is_refused(self, db, structure):
        handle = db.query(EXAMPLE).answers()
        with pytest.raises(GuardedStructureError):
            structure.add_fact("B", missing_unary_fact(structure))
        assert not handle.stale
        handle.all()


class TestRebuildAfterUpdate:
    def test_requery_reflects_update(self, db):
        before = db.query(EXAMPLE).answers().all()
        db.insert_fact("B", missing_unary_fact(db.structure))
        after = db.query(EXAMPLE).answers().all()
        want = sorted(naive_answers(parse(EXAMPLE), db.structure, order=(x, y)))
        assert sorted(after) == want
        assert before != after or sorted(before) == want

    def test_cache_invalidated(self, db):
        first = db.query(UNMAINTAINABLE).pipeline
        assert db.stats()["graph_templates"] == 1
        assert db.stats()["maintained_plans"] == 0
        db.insert_fact("B", missing_unary_fact(db.structure))
        second = db.query(UNMAINTAINABLE).pipeline
        assert second is not first, "stale pipeline served after an update"
        # Old entries were dropped, not just shadowed.
        assert db.stats()["entries"] == 1
