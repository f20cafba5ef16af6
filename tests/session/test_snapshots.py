"""Snapshot isolation: pinned reads survive commits byte-identically.

The acceptance contract of the snapshot redesign:

* an ``Answers`` handle opened *before* a committing transaction streams
  to completion byte-identical to serial enumeration of the pre-commit
  structure — no ``StaleResultError`` on the session API — while a
  post-commit ``db.query()`` sees the new facts (the barrier test below
  proves the overlap is real, not accidental serialization);
* ``db.snapshot()`` pins a version: its queries, counts, and verdicts
  are frozen at that version no matter how many commits follow;
* a direct structure mutation behind the session's back is refused by
  the write guard.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.enumeration import enumerate_answers
from repro.errors import EngineError, StaleResultError
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.session import Database
from repro.structures.random_gen import random_colored_graph

EXAMPLE = "B(x) & R(y) & ~E(x,y)"


def oracle(structure, text=EXAMPLE):
    formula = parse(text)
    return sorted(naive_answers(formula, structure, order=sorted(formula.free)))


@pytest.fixture
def structure():
    return random_colored_graph(24, max_degree=3, seed=19).copy()


def missing_unary(structure, relation="B"):
    return next(
        e for e in structure.domain if not structure.has_fact(relation, e)
    )


class TestSnapshotReads:
    def test_snapshot_is_invisible_to_commits(self, structure):
        with Database(structure) as db:
            with db.snapshot() as snap:
                q = snap.query(EXAMPLE)
                before_answers = q.answers().all()
                before_count = q.count()
                db.insert_fact("B", missing_unary(structure))
                assert q.answers().all() == before_answers
                assert q.count() == before_count
                # A fresh query through the same snapshot: same version.
                assert snap.query(EXAMPLE).answers().all() == before_answers
            # The head sees the commit.
            assert sorted(db.query(EXAMPLE).answers().all()) == oracle(
                db.structure
            )

    def test_snapshot_across_many_commits(self, structure):
        with Database(structure) as db:
            snap = db.snapshot()
            pinned = snap.query(EXAMPLE).answers().all()
            free = [
                e for e in structure.domain if not structure.has_fact("B", e)
            ][:3]
            for element in free:
                db.insert_fact("B", element)
            assert snap.query(EXAMPLE).answers().all() == pinned
            assert snap.count(EXAMPLE) == len(pinned)
            snap.close()

    def test_snapshot_test_verdicts_pinned(self, structure):
        with Database(structure) as db:
            snap = db.snapshot()
            new_blue = missing_unary(structure)
            red = next(iter(structure.facts("R")))[0]
            probe = (new_blue, red)
            head_q = db.query(EXAMPLE)
            snap_q = snap.query(EXAMPLE)
            before = snap_q.test(probe)
            db.insert_fact("B", new_blue)
            assert snap_q.test(probe) == before
            assert snap.query(EXAMPLE).test(probe) == before
            # The head's live query re-resolves and may flip the verdict.
            want = sorted(
                naive_answers(
                    parse(EXAMPLE), db.structure, order=parse(EXAMPLE).free and sorted(parse(EXAMPLE).free)
                )
            )
            assert head_q.test(probe) == (probe in set(want))
            snap.close()

    def test_query_outlives_snapshot_close(self, structure):
        # Regression: a Query created through a snapshot holds its own
        # pin — closing the snapshot must not let a later commit refresh
        # the query's pipeline in place and serve head data.
        with Database(structure) as db:
            with db.snapshot() as snap:
                q = snap.query(EXAMPLE)
                pinned_answers = q.answers().all()
                pinned_count = q.count()
            # snapshot closed; the query keeps its version anyway
            db.insert_fact("B", missing_unary(structure))
            assert q.count() == pinned_count
            assert q.answers().all() == pinned_answers
            assert q.explain().pinned
            head_count = db.query(EXAMPLE).count()
            assert head_count == len(oracle(db.structure))

    def test_closed_snapshot_rejects_queries(self, structure):
        with Database(structure) as db:
            snap = db.snapshot()
            snap.close()
            with pytest.raises(EngineError):
                snap.query(EXAMPLE)
            snap.close()  # idempotent

    def test_snapshot_queries_share_the_cache(self, structure):
        with Database(structure) as db:
            db.query(EXAMPLE).count()
            misses_before = db.stats()["misses"]
            with db.snapshot() as snap:
                snap.query(EXAMPLE).count()  # same fingerprint: cache hit
            assert db.stats()["misses"] == misses_before

    def test_pinned_entries_survive_commits_then_purge(self, structure):
        with Database(structure) as db:
            snap = db.snapshot()
            snap.query(EXAMPLE).count()
            old_fp = snap.fingerprint
            db.insert_fact("B", missing_unary(structure))
            assert db.structure_fingerprint != old_fp
            # Still retained: the snapshot can cache-hit its version.
            hits_before = db.stats()["hits"]
            snap.query(EXAMPLE).count()
            assert db.stats()["hits"] > hits_before
            retained_while_pinned = db.stats()["retained_fingerprints"]
            assert retained_while_pinned >= 1
            snap.close()
            # Last pin gone: the superseded version's entries are purged.
            assert db.stats()["pinned_versions"] == 0
            assert db.stats()["retained_fingerprints"] == 0
            assert old_fp != db.structure_fingerprint

    def test_explain_reports_pinning(self, structure):
        with Database(structure) as db:
            with db.snapshot() as snap:
                plan = snap.query(EXAMPLE).explain()
                assert plan.pinned
                assert plan.at_version == snap.version
                assert "snapshot-pinned" in plan.describe()
                live = db.query(EXAMPLE).explain()
                assert not live.pinned

    def test_direct_mutation_still_raises_on_snapshot(self, structure):
        # A second session on a structure another session guards installs
        # no guard of its own; once the guarding session closes, direct
        # mutations go through and the snapshot detects them.
        owner = Database(structure)
        with Database(structure) as db:
            snap = db.snapshot()
            owner.close()
            structure.add_fact("B", missing_unary(structure))  # behind our back
            with pytest.raises(StaleResultError):
                snap.query(EXAMPLE)
            snap.close()

    def test_direct_mutation_is_refused_by_default(self, structure):
        from repro.errors import GuardedStructureError

        with Database(structure) as db:
            snap = db.snapshot()
            with pytest.raises(GuardedStructureError, match="db.transaction"):
                structure.add_fact("B", missing_unary(structure))
            # The refused write left nothing stale.
            assert snap.query(EXAMPLE).count() == db.query(EXAMPLE).count()
            snap.close()


class TestCommitForkSemantics:
    def test_unpinned_commit_mutates_in_place(self, structure):
        with Database(structure) as db:
            result = db.apply([("insert", "B", (missing_unary(structure),))])
            assert not result.forked
            assert db.structure is structure

    def test_pinned_commit_forks_and_freezes(self, structure):
        from repro.errors import FrozenStructureError

        with Database(structure) as db:
            snap = db.snapshot()
            result = db.apply([("insert", "B", (missing_unary(structure),))])
            assert result.forked
            assert db.structure is not structure
            assert structure.frozen
            with pytest.raises(FrozenStructureError):
                structure.add_fact("B", 0)
            # The fork carries the whole content; the head keeps working.
            assert sorted(db.query(EXAMPLE).answers().all()) == oracle(
                db.structure
            )
            snap.close()

    def test_commits_after_pin_release_go_back_in_place(self, structure):
        with Database(structure) as db:
            snap = db.snapshot()
            db.insert_fact("B", missing_unary(structure))  # forked
            snap.close()
            head = db.structure
            db.insert_fact("R", missing_unary(db.structure, "R"))
            assert db.structure is head, "no pins -> in-place commit"

    def test_fork_chain_multiple_snapshots(self, structure):
        with Database(structure) as db:
            snap_a = db.snapshot()
            count_a = snap_a.count(EXAMPLE)
            db.insert_fact("B", missing_unary(db.structure))
            snap_b = db.snapshot()
            count_b = snap_b.count(EXAMPLE)
            db.insert_fact("B", missing_unary(db.structure))
            head_count = db.query(EXAMPLE).count()
            assert snap_a.count(EXAMPLE) == count_a
            assert snap_b.count(EXAMPLE) == count_b
            assert head_count >= count_b >= count_a
            assert head_count == len(oracle(db.structure))
            snap_a.close()
            snap_b.close()


class TestFingerprintABA:
    """Regression: a fork followed by an inverse commit returns the head
    to the *content* fingerprint of the frozen old structure.  The
    generation-tagged cache keys must keep the frozen generation's
    pipelines unreachable — no wrong answers, no maintainer attached to
    a superseded structure, no livelock in answers()."""

    def _aba(self, structure, db):
        snap = db.snapshot()
        element = missing_unary(structure)
        q = db.query(EXAMPLE)
        q.count()  # cache + maintain at generation 0
        db.insert_fact("B", element)  # forks (snapshot pins)
        db.remove_fact("B", element)  # head content == frozen content
        return snap, element

    def test_head_never_hits_frozen_generation(self, structure):
        with Database(structure) as db:
            snap, element = self._aba(structure, db)
            live = db.query(EXAMPLE)
            assert sorted(live.answers().all()) == oracle(db.structure)
            snap.close()
            # Maintenance after the ABA must track the *head*, not the
            # frozen structure the stale cache entry was built on.
            db.insert_fact("B", element)
            assert sorted(db.query(EXAMPLE).answers().all()) == oracle(
                db.structure
            )
            assert live.count() == len(oracle(db.structure))

    def test_answers_does_not_livelock_after_aba(self, structure):
        with Database(structure) as db:
            snap, _ = self._aba(structure, db)
            done = threading.Event()
            result = []

            def pull():
                result.append(db.query(EXAMPLE).answers().all())
                done.set()

            worker = threading.Thread(target=pull, daemon=True)
            worker.start()
            assert done.wait(timeout=20), "answers() livelocked after ABA"
            assert sorted(result[0]) == oracle(db.structure)
            snap.close()


class TestAnswersPinning:
    def test_handle_streams_across_commit_barrier(self, structure):
        """THE acceptance test: a handle opened before a commit that
        lands mid-stream (a real barrier proves the interleaving)
        completes byte-identical to pre-commit serial enumeration,
        while a post-commit query sees the new facts."""
        with Database(structure) as db:
            # Pre-commit serial reference, computed on an isolated copy.
            reference_pipeline_db = structure.copy()
            with Database(reference_pipeline_db) as ref_db:
                expected = ref_db.query(EXAMPLE).answers().all()

            handle = db.query(EXAMPLE).answers()
            first = handle.page(0, size=3)  # production has started

            handle_at_barrier = threading.Barrier(2, timeout=10)
            committed = threading.Event()

            def commit_side():
                handle_at_barrier.wait()
                db.apply(
                    [
                        ("insert", "B", (missing_unary(db.structure),)),
                        ("insert", "R", (missing_unary(db.structure, "R"),)),
                    ]
                )
                committed.set()

            writer = threading.Thread(target=commit_side)
            writer.start()
            handle_at_barrier.wait()
            assert committed.wait(timeout=10), "commit never landed"
            writer.join(timeout=10)

            # The handle: mid-stream when the commit landed, streams to
            # completion, byte-identical, no StaleResultError.
            streamed = first + list(handle.stream())[len(first):]
            assert streamed == expected
            assert handle.all() == expected
            assert handle.stale  # informative only
            assert handle.count() == len(expected)

            # The head: sees the new facts.
            assert sorted(db.query(EXAMPLE).answers().all()) == oracle(
                db.structure
            )

    def test_handle_pin_released_on_cancel(self, structure):
        with Database(structure) as db:
            handle = db.query(EXAMPLE).answers()
            assert handle.pinned
            assert db.stats()["pinned_versions"] == 1
            handle.cancel()
            assert not handle.pinned
            assert db.stats()["pinned_versions"] == 0
            head = db.structure
            db.insert_fact("B", missing_unary(structure))
            assert db.structure is head, "released pin -> in-place commit"

    def test_handle_pin_released_on_gc(self, structure):
        import gc

        with Database(structure) as db:
            handle = db.query(EXAMPLE).answers()
            handle.page(0, size=2)
            assert db.stats()["pinned_versions"] == 1
            del handle
            gc.collect()
            assert db.stats()["pinned_versions"] == 0

    def test_count_on_pinned_handle_is_precommit(self, structure):
        with Database(structure) as db:
            handle = db.query(EXAMPLE).answers()
            before = db.query(EXAMPLE).count()
            db.insert_fact("B", missing_unary(structure))
            assert handle.count() == before

    def test_async_pulls_survive_commit(self, structure):
        import asyncio

        async def scenario():
            with Database(structure) as db:
                handle = db.query(EXAMPLE).answers()
                expected_first = await handle.apage(0, size=5)
                db.insert_fact("B", missing_unary(structure))
                rest = [answer async for answer in handle]
                return expected_first, rest

        first, rest = asyncio.run(scenario())
        assert rest[: len(first)] == first  # astream restarts from 0


class TestConcurrentStress:
    def test_readers_and_writers_never_corrupt_or_hang(self, structure):
        import random

        from repro.fo.parser import parse as parse_query

        errors: list = []
        stop = threading.Event()
        with Database(structure, workers=2) as db:

            def reader(tid):
                rng = random.Random(tid)
                try:
                    while not stop.is_set():
                        if rng.random() < 0.5:
                            with db.snapshot() as snap:
                                q = snap.query(EXAMPLE)
                                answers = q.answers().all()
                                assert q.count() == len(answers)
                                assert (
                                    snap.query(EXAMPLE).answers().all()
                                    == answers
                                )
                        else:
                            handle = db.query(EXAMPLE).answers()
                            first = handle.page(0, 3)
                            assert handle.all()[:3] == first
                            handle.cancel()
                except Exception as error:  # pragma: no cover - fail below
                    errors.append(repr(error))

            def writer(tid):
                rng = random.Random(100 + tid)
                domain = list(structure.domain)
                try:
                    for _ in range(25):
                        ops = []
                        for _ in range(rng.randint(1, 4)):
                            relation = rng.choice(["E", "B", "R"])
                            if relation == "E":
                                fact = (
                                    rng.choice(domain),
                                    rng.choice(domain),
                                )
                            else:
                                fact = (rng.choice(domain),)
                            ops.append((rng.random() < 0.6, relation, fact))
                        db.apply(ops)
                except Exception as error:  # pragma: no cover - fail below
                    errors.append(repr(error))

            readers = [
                threading.Thread(target=reader, args=(i,)) for i in range(3)
            ]
            writers = [
                threading.Thread(target=writer, args=(i,)) for i in range(2)
            ]
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            assert not any(
                t.is_alive() for t in readers + writers
            ), "a reader or writer hung"
            assert not errors, errors

            formula = parse_query(EXAMPLE)
            want = sorted(
                naive_answers(
                    formula, db.structure, order=sorted(formula.free)
                )
            )
            assert sorted(db.query(EXAMPLE).answers().all()) == want
            assert db.stats()["pinned_versions"] == 0, "pins leaked"
