"""Durable sessions and the closed MVCC caveats.

Four contracts under test:

* ``Database.open`` / ``db.checkpoint`` — a reopened database is
  version-, generation-, fingerprint-, and answer-identical to the one
  that closed, whether the state lives in the snapshot, the WAL tail,
  or both; a warm reopen serves its first cached-plan query without
  re-running preprocessing.
* Warm forks — a commit overlapping a live pin forks the head *and*
  keeps its maintained plans warm (``maintained_plans >= 1`` on the
  commit result), while the pinned reader stays byte-identical.
* Handle retention — exhausted ``Answers`` handles release their
  version pin (so the next commit mutates in place), and the
  per-database budget for superseded pinned versions fails loudly.
* The write guard — direct mutation of a session-owned structure is
  refused with a message naming the session API.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    DurabilityError,
    GuardedStructureError,
    MaintenanceWarning,
    RetentionLimitError,
)
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.session import Database
from repro.structures.random_gen import random_colored_graph

EXAMPLE = "B(x) & R(y) & ~E(x,y)"


def oracle(structure, text=EXAMPLE):
    formula = parse(text)
    return sorted(naive_answers(formula, structure, order=sorted(formula.free)))


def fresh_structure(seed=19):
    return random_colored_graph(24, max_degree=3, seed=seed).copy()


def missing_unary(structure, relation="B"):
    return next(
        e for e in structure.domain if not structure.has_fact(relation, e)
    )


class TestOpenAndReopen:
    def test_create_then_reopen_identical(self, tmp_path):
        path = tmp_path / "db"
        structure = fresh_structure()
        with Database.open(path, structure=structure) as db:
            want = oracle(db.structure)
            fingerprint = db.structure_fingerprint
            version = db.version
        with Database.open(path) as db:
            assert db.durable
            assert db.structure_fingerprint == fingerprint
            assert db.version == version
            assert sorted(db.query(EXAMPLE).answers().all()) == want

    def test_open_missing_store_needs_structure(self, tmp_path):
        with pytest.raises(DurabilityError, match="no database"):
            Database.open(tmp_path / "nope")

    def test_open_existing_store_refuses_structure(self, tmp_path):
        path = tmp_path / "db"
        Database.open(path, structure=fresh_structure()).close()
        with pytest.raises(DurabilityError, match="already"):
            Database.open(path, structure=fresh_structure())

    def test_commits_survive_reopen_via_wal(self, tmp_path):
        path = tmp_path / "db"
        with Database.open(path, structure=fresh_structure()) as db:
            db.insert_fact("B", missing_unary(db.structure))
            element = missing_unary(db.structure, "R")
            db.insert_fact("R", element)
            db.remove_fact("R", element)
            want = oracle(db.structure)
            fingerprint = db.structure_fingerprint
            version = db.version
        # No checkpoint happened: this state exists only in the WAL.
        with Database.open(path) as db:
            assert db.version == version
            assert db.structure_fingerprint == fingerprint
            assert sorted(db.query(EXAMPLE).answers().all()) == want

    def test_checkpoint_then_more_commits_then_reopen(self, tmp_path):
        path = tmp_path / "db"
        with Database.open(path, structure=fresh_structure()) as db:
            db.insert_fact("B", missing_unary(db.structure))
            db.checkpoint()
            db.insert_fact("B", missing_unary(db.structure))
            want = oracle(db.structure)
            version = db.version
        with Database.open(path) as db:
            assert db.version == version
            assert sorted(db.query(EXAMPLE).answers().all()) == want

    def test_generation_survives_fork_and_reopen(self, tmp_path):
        path = tmp_path / "db"
        with Database.open(path, structure=fresh_structure()) as db:
            snap = db.snapshot()
            result = db.apply(
                [("insert", "B", (missing_unary(db.structure),))]
            )
            assert result.forked
            snap.close()
            generation = db.structure.generation
            assert generation >= 1
            want = oracle(db.structure)
        with Database.open(path) as db:
            assert db.structure.generation == generation
            assert sorted(db.query(EXAMPLE).answers().all()) == want
            # The restored lineage keeps committing cleanly.
            db.insert_fact("B", missing_unary(db.structure))
            assert db.structure.generation == generation

    def test_apply_is_durable_once_acknowledged(self, tmp_path):
        path = tmp_path / "db"
        db = Database.open(path, structure=fresh_structure())
        try:
            db.apply([("insert", "B", (missing_unary(db.structure),))])
            want = oracle(db.structure)
        finally:
            # Simulate a crash: no close(), no checkpoint — the WAL
            # handle just goes away with the process.
            db._store.close()
            db.pool.close()
        with Database.open(path) as reopened:
            assert sorted(reopened.query(EXAMPLE).answers().all()) == want


class TestWarmReopen:
    def test_first_query_after_warm_reopen_is_a_cache_hit(self, tmp_path):
        path = tmp_path / "db"
        with Database.open(path, structure=fresh_structure()) as db:
            want = sorted(db.query(EXAMPLE).answers().all())
            result = db.checkpoint()
            assert result.warm_entries >= 1
        with Database.open(path) as db:
            query = db.query(EXAMPLE)
            stats = db.stats()
            assert stats["hits"] >= 1 and stats["misses"] == 0
            assert sorted(query.answers().all()) == want

    def test_warm_entries_replay_the_wal_tail_maintained(self, tmp_path):
        path = tmp_path / "db"
        with Database.open(path, structure=fresh_structure()) as db:
            db.query(EXAMPLE)
            db.checkpoint()
            db.insert_fact("B", missing_unary(db.structure))
            want = oracle(db.structure)
        # Reopen: the warm pipeline is seeded at the snapshot version,
        # then the WAL tail replays *through* it (maintenance, not
        # rebuild) — the first query is still a hit and still correct.
        with Database.open(path) as db:
            query = db.query(EXAMPLE)
            stats = db.stats()
            assert stats["misses"] == 0
            assert stats["maintained_plans"] >= 1
            assert sorted(query.answers().all()) == want

    def test_cold_reopen_on_demand(self, tmp_path):
        path = tmp_path / "db"
        with Database.open(path, structure=fresh_structure()) as db:
            want = sorted(db.query(EXAMPLE).answers().all())
            db.checkpoint()
        with Database.open(path, load_warm=False) as db:
            query = db.query(EXAMPLE)
            assert db.stats()["misses"] == 1
            assert sorted(query.answers().all()) == want


class TestBrokenStore:
    def test_failed_append_fails_the_commit_and_latches(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "db"
        with Database.open(path, structure=fresh_structure()) as db:
            fingerprint = db.structure_fingerprint

            def explode(record):
                raise OSError("disk full")

            monkeypatch.setattr(db._store, "append", explode)
            with pytest.raises(DurabilityError, match="disk full"):
                db.insert_fact("B", missing_unary(db.structure))
            # Further commits are refused outright: the WAL no longer
            # reflects the head, so acknowledging anything would lie.
            with pytest.raises(DurabilityError, match="checkpoint"):
                db.insert_fact("B", missing_unary(db.structure))
            monkeypatch.undo()
            # A checkpoint re-establishes an on-disk base ...
            db.checkpoint()
            element = missing_unary(db.structure)
            db.insert_fact("B", element)  # ... and commits flow again
            assert db.structure.has_fact("B", element)
            assert db.structure_fingerprint != fingerprint


class TestWarmForks:
    def test_pinned_overlapping_commit_keeps_plans_warm(self):
        structure = fresh_structure()
        with Database(structure) as db:
            query = db.query(EXAMPLE)
            before = oracle(db.structure)
            assert db.stats()["maintained_plans"] == 1
            snap = db.snapshot()
            result = db.apply(
                [("insert", "B", (missing_unary(db.structure),))]
            )
            assert result.forked
            # The caveat under test: the forked head used to come up
            # cold (maintained_plans == 0, next query re-preprocesses).
            assert result.maintained_plans >= 1
            misses_before = db.stats()["misses"]
            fresh = db.query(EXAMPLE)
            assert db.stats()["misses"] == misses_before  # cache hit
            assert sorted(fresh.answers().all()) == oracle(db.structure)
            # The pinned side is untouched by the fork.
            assert sorted(snap.query(EXAMPLE).answers().all()) == before
            snap.close()

    def test_warm_fork_chain_stays_correct(self):
        with Database(fresh_structure()) as db:
            db.query(EXAMPLE)
            pins = []
            for _ in range(3):
                pins.append(db.snapshot())
                element = missing_unary(db.structure)
                result = db.apply([("insert", "B", (element,))])
                assert result.forked and result.maintained_plans >= 1
                assert sorted(db.query(EXAMPLE).answers().all()) == oracle(
                    db.structure
                )
            for pin in pins:
                pin.close()


class TestWarmForkDegradation:
    """Injected failures in the warm-fork path must warn, not vanish —
    the commit still succeeds and the new head simply comes up cold."""

    def test_clone_failure_warns_and_commits_cold(self, monkeypatch):
        import repro.session.database as database_module

        with Database(fresh_structure()) as db:
            db.query(EXAMPLE)
            assert db.stats()["maintained_plans"] == 1
            snap = db.snapshot()

            def explode(pipeline):
                raise RuntimeError("injected clone failure")

            monkeypatch.setattr(
                database_module, "PipelineMaintainer", explode
            )
            with pytest.warns(MaintenanceWarning, match="cloning"):
                result = db.apply(
                    [("insert", "B", (missing_unary(db.structure),))]
                )
            monkeypatch.undo()
            assert result.forked
            assert result.maintained_plans == 0
            # Cold but correct: the next query rebuilds and agrees.
            assert sorted(db.query(EXAMPLE).answers().all()) == oracle(
                db.structure
            )
            snap.close()

    def test_refresh_failure_warns_and_commits_cold(self, monkeypatch):
        from repro.core.dynamic import PipelineMaintainer

        with Database(fresh_structure()) as db:
            db.query(EXAMPLE)
            assert db.stats()["maintained_plans"] == 1
            snap = db.snapshot()

            def explode(self, touched, region):
                raise RuntimeError("injected refresh failure")

            monkeypatch.setattr(PipelineMaintainer, "refresh", explode)
            with pytest.warns(MaintenanceWarning, match="refreshing"):
                result = db.apply(
                    [("insert", "B", (missing_unary(db.structure),))]
                )
            monkeypatch.undo()
            assert result.forked
            assert result.maintained_plans == 0
            assert sorted(db.query(EXAMPLE).answers().all()) == oracle(
                db.structure
            )
            snap.close()


class TestRetention:
    def test_exhausted_answers_release_their_pin(self):
        with Database(fresh_structure()) as db:
            answers = db.query(EXAMPLE).answers()
            collected = answers.all()  # exhausts the source: pin released
            result = db.apply(
                [("insert", "B", (missing_unary(db.structure),))]
            )
            assert not result.forked, "sealed handle still pinned a version"
            # The sealed handle still serves its snapshot's answers.
            assert answers.all() == collected
            assert answers.test(collected[0])
            domain = list(db.structure.domain)
            non_answer = next(
                (x, y)
                for x in domain
                for y in domain
                if (x, y) not in set(collected)
            )
            assert not answers.test(non_answer)

    def test_partially_consumed_answers_still_pin(self):
        with Database(fresh_structure()) as db:
            answers = db.query(EXAMPLE).answers()
            first = next(iter(answers))
            result = db.apply(
                [("insert", "B", (missing_unary(db.structure),))]
            )
            assert result.forked
            assert first is not None
            answers.cancel()

    def test_retention_budget_overflow_is_loud(self):
        with Database(fresh_structure(), retention_budget=1) as db:
            db.query(EXAMPLE)
            snap = db.snapshot()
            db.apply([("insert", "B", (missing_unary(db.structure),))])
            # One superseded version is now pinned (snap): the budget is
            # exhausted, so the next pinned-overlapping commit refuses.
            later = db.snapshot()
            with pytest.raises(RetentionLimitError, match="superseded"):
                db.apply([("insert", "B", (missing_unary(db.structure),))])
            # The refused commit changed nothing.
            assert sorted(later.query(EXAMPLE).answers().all()) == sorted(
                db.query(EXAMPLE).answers().all()
            )
            snap.close()  # releasing the superseded pin unblocks writes
            db.apply([("insert", "B", (missing_unary(db.structure),))])
            later.close()

    def test_budget_validates(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError, match="retention_budget"):
            Database(fresh_structure(), retention_budget=0)


class TestWriteGuard:
    def test_direct_mutation_is_refused(self):
        structure = fresh_structure()
        with Database(structure) as db:
            with pytest.raises(GuardedStructureError) as excinfo:
                structure.add_fact("B", missing_unary(structure))
            message = str(excinfo.value)
            assert "db.transaction()" in message
            assert "db.insert_fact()" in message
            with pytest.raises(GuardedStructureError):
                structure.remove_fact("B", next(iter(structure.facts("B")))[0])
            # The session's own write path is unaffected.
            db.insert_fact("B", missing_unary(structure))

    def test_close_releases_the_guard(self):
        structure = fresh_structure()
        db = Database(structure)
        db.close()
        structure.add_fact("B", missing_unary(structure))  # fine again
