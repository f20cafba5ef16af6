"""Tests for the unified session API (`repro.session`)."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.counting import count_answers
from repro.engine import executor
from repro.errors import (
    CancelledResultError,
    EngineError,
    QueryError,
    StaleResultError,
)
from repro.fo import parse
from repro.fo.semantics import naive_answers, naive_count
from repro.fo.syntax import Var
from repro.session import Answers, Database, Query, QueryPlan, resolve_backend
from repro.structures.random_gen import random_colored_graph

EXAMPLE = "B(x) & R(y) & ~E(x,y)"
x, y = Var("x"), Var("y")


@pytest.fixture
def structure():
    return random_colored_graph(24, max_degree=3, seed=7)


@pytest.fixture
def db(structure):
    with Database(structure) as session:
        yield session


def oracle(structure, text=EXAMPLE):
    formula = parse(text)
    return sorted(naive_answers(formula, structure, order=sorted(formula.free)))


def missing_unary(structure, relation="B"):
    return next(
        element
        for element in structure.domain
        if not structure.has_fact(relation, element)
    )


class TestQueryBasics:
    def test_three_operations(self, db, structure):
        q = db.query(EXAMPLE)
        want = oracle(structure)
        assert sorted(q.answers().all()) == want
        assert q.count() == len(want)
        present = want[0] if want else (0, 1)
        assert q.test(present) == (present in set(want))

    def test_accepts_formula_and_text(self, db):
        from_text = db.query(EXAMPLE)
        from_formula = db.query(parse(EXAMPLE))
        assert from_text.answers().all() == from_formula.answers().all()
        # Equal queries share one cached pipeline.
        assert from_text.pipeline is from_formula.pipeline

    def test_rejects_non_queries(self, db):
        with pytest.raises(QueryError):
            db.query(42)

    def test_query_iteration_shorthand(self, db):
        q = db.query(EXAMPLE)
        assert list(q) == q.answers().all()

    def test_count_is_exact(self, db, structure):
        for text in [EXAMPLE, "B(x)", "B(x) & R(y) & E(x,y)"]:
            q = db.query(text)
            formula = parse(text)
            assert q.count() == naive_count(formula, structure)
            assert q.count() == count_answers(q.pipeline)

    def test_convenience_count_and_test(self, db, structure):
        want = oracle(structure)
        assert db.count(EXAMPLE) == len(want)
        if want:
            assert db.test(EXAMPLE, want[0])


class TestQueryOptions:
    def test_default_variable_order_is_sorted(self, db):
        assert [v.name for v in db.query("R(y) & B(x)").variables] == ["x", "y"]

    def test_explicit_order(self, db, structure):
        q = db.query("R(y) & B(x)", order=["y", "x"])
        assert [v.name for v in q.variables] == ["y", "x"]
        for answer in q.answers().all():
            assert structure.has_fact("R", answer[0])
            assert structure.has_fact("B", answer[1])

    def test_stats(self, db, structure):
        stats = db.query(EXAMPLE).stats()
        assert stats["arity"] == 2
        assert stats["structure_size"] == structure.cardinality


class TestBackends:
    @pytest.mark.parametrize("backend", ["serial", "process", "auto"])
    def test_forced_backends_agree(self, db, structure, backend):
        answers = db.query(EXAMPLE, backend=backend).answers()
        assert sorted(answers.all()) == oracle(structure)

    def test_backend_order_is_byte_identical(self, db):
        serial = db.query(EXAMPLE, backend="serial").answers().all()
        processed = db.query(EXAMPLE, backend="process", workers=3).answers().all()
        assert serial == processed

    def test_unknown_backend_rejected(self, db):
        with pytest.raises(EngineError):
            db.query(EXAMPLE, backend="quantum")
        # Threads never beat serial under the GIL; the mode is gone.
        with pytest.raises(EngineError):
            db.query(EXAMPLE, backend="thread")

    def test_custom_backend_object(self, db, structure):
        class Recorder:
            name = "recorder"

            def __init__(self):
                self.ran = 0

            def run(self, plan):
                self.ran += 1
                from repro.session.backends import SERIAL

                plan.used_mode = self.name
                return SERIAL.run(plan)

            def count(self, plan):
                from repro.session.backends import SERIAL

                return SERIAL.count(plan)

        recorder = Recorder()
        q = db.query(EXAMPLE, backend=recorder)
        assert sorted(q.answers().all()) == oracle(structure)
        assert recorder.ran == 1
        assert resolve_backend(recorder) is recorder


class TestExplain:
    def test_plan_shape(self, db):
        plan = db.query(EXAMPLE).explain()
        assert isinstance(plan, QueryPlan)
        assert plan.branch_count >= 1
        assert plan.backend in ("serial", "process")
        assert plan.backend_requested == "auto"
        assert len(plan.branch_costs) == plan.branch_count
        assert plan.total_cost == sum(plan.branch_costs)
        assert plan.cached and plan.maintained
        assert "backend:" in plan.describe()

    def test_explain_reports_backend_actually_used(self, db):
        for backend in ("serial", "process"):
            q = db.query(EXAMPLE, backend=backend, workers=2)
            answers = q.answers()
            answers.all()
            assert q.explain().backend == backend == answers.backend_used

    def test_auto_explain_matches_execution(self, db):
        q = db.query(EXAMPLE)
        plan = q.explain()
        answers = q.answers()
        answers.all()
        assert answers.backend_used == plan.backend
        assert q.count() >= 0
        # a count never leaves the process
        assert plan.count_backend == "serial"

    def test_forced_process_plan_has_shards(self, db):
        plan = db.query(EXAMPLE, backend="process", workers=2).explain()
        assert plan.backend == "process"
        assert plan.shards, "parallel plans report their shard layout"

    def test_explain_limit_applies_the_budget_rule(self, db, monkeypatch):
        # Make auto pick process for any work, so only the serial head
        # (the first chunk: a limit within it never leaves the caller)
        # can keep a run serial.
        monkeypatch.setattr(
            executor, "choose_execution_mode", lambda *args, **kwargs: "process"
        )
        q = db.query(EXAMPLE, workers=2, chunk_rows=8)
        assert q.explain().backend == "process"
        assert q.explain().head_rows == 8
        assert "backend: serial for the first 8 rows, then process" in (
            q.explain().describe()
        )
        assert q.explain(limit=9).backend == "process"
        assert q.explain(limit=8).backend == "serial"
        assert q.explain(limit=8).head_rows is None
        answers = q.answers(limit=8)
        assert len(answers.all()) == 8
        assert answers.backend_used == "serial"
        forced = db.query(EXAMPLE, backend="process", workers=2, chunk_rows=8)
        assert forced.explain(limit=8).backend == "process"
        assert forced.explain().head_rows is None
        # A full run is serial while it serves its head, process after.
        full = q.answers()
        assert len(full.page(0, 8)) == 8
        assert full.backend_used == "serial" and full.transport_used == "none"
        rows = full.all()
        assert rows == db.query(EXAMPLE, backend="serial").answers().all()
        assert full.backend_used == "process"
        assert full.transport_used == "columnar"
        stats = full.transport_stats
        assert stats.head_rows >= 8
        assert stats.rows == len(rows) - stats.head_rows
        runtime = q.explain().runtime
        assert runtime["head_rows"] == stats.head_rows
        assert runtime["backend_used"] == "process"
        assert f"after {stats.head_rows} rows served in-process" in (
            q.explain().describe()
        )

    def test_runtime_absent_until_chunks_move(self, db):
        q = db.query(EXAMPLE, backend="serial")
        q.answers().all()
        plan = q.explain()
        # Serial execution is zero-copy: nothing crossed a transport,
        # so there is no observed layout to report.
        assert plan.runtime is None
        assert "runtime:" not in plan.describe()

    def test_runtime_describe_renders_per_source_streaming(self, db):
        from dataclasses import replace

        runtime = {
            "chunks": 2,
            "bytes_received": 64,
            "rows": 10,
            "sources": {
                # First chunk before the unit finished: true streaming.
                "b0[0:]": {
                    "chunks": 1, "bytes": 32, "rows": 5,
                    "first_at": 1.0, "last_at": 1.5, "done_at": 2.0,
                },
                # Everything arrived after the unit was done.
                "b1[0:]": {
                    "chunks": 1, "bytes": 32, "rows": 5,
                    "first_at": 3.0, "last_at": 3.0, "done_at": 2.5,
                },
            },
        }
        plan = replace(db.query(EXAMPLE).explain(), runtime=runtime)
        text = plan.describe()
        assert "runtime: 2 chunk(s), 64 bytes, 10 rows received" in text
        assert "b0[0:]: chunks=1, bytes=32, rows=5, streamed=yes" in text
        assert "b1[0:]: chunks=1, bytes=32, rows=5, streamed=no" in text

    def test_process_run_reports_observed_runtime(self, db):
        q = db.query(EXAMPLE, backend="process", workers=2)
        answers = q.answers()
        rows = answers.all()
        plan = q.explain()
        assert plan.runtime is not None
        assert plan.runtime["rows"] == len(rows)
        assert plan.runtime["backend_used"] == "process"
        assert "runtime:" in plan.describe()

    def test_a_dropped_handle_pins_nothing(self, db, monkeypatch):
        """A query keeps what explain() reads of its last handle, not the
        handle: once the caller drops a page's handle, its version pin is
        gone and the next commit runs in place, forking no plan."""
        from repro.core.pipeline import Pipeline

        q = db.query(EXAMPLE, backend="serial")
        q.count()
        assert len(q.answers().page(0, 1)) == 1
        forks = []
        original = Pipeline.fork

        def counting(pipeline, structure):
            forks.append(pipeline)
            return original(pipeline, structure)

        monkeypatch.setattr(Pipeline, "fork", counting)
        element = next(
            e for e in db.structure.domain if not db.structure.has_fact("B", e)
        )
        result = db.apply([("insert", "B", (element,))])
        assert result.changed and not result.forked
        assert forks == []
        # The runtime line still reports a dropped process handle's run.
        process = db.query(EXAMPLE, backend="process", workers=2)
        rows = len(process.answers().all())
        plan = process.explain()
        assert plan.runtime["rows"] == rows
        assert plan.runtime["backend_used"] == "process"
        assert "runtime:" in plan.describe()


class TestAnswersHandle:
    def test_paging_matches_serial_order(self, db):
        q = db.query(EXAMPLE)
        full = q.answers().all()
        paged = q.answers()
        pages = []
        index = 0
        while True:
            page = paged.page(index, size=3)
            if not page:
                break
            pages.extend(page)
            index += 1
        assert pages == full

    def test_stream_and_iter(self, db):
        q = db.query(EXAMPLE)
        assert list(q.answers().stream()) == list(iter(q.answers()))

    def test_cancel_blocks_every_access(self, db):
        answers = db.query(EXAMPLE).answers()
        answers.page(0, size=2)
        answers.cancel()
        assert answers.cancelled
        for access in (
            lambda: answers.all(),
            lambda: answers.page(0),
            lambda: answers.count(),
            lambda: answers.test((0, 1)),
        ):
            with pytest.raises(CancelledResultError):
                access()

    def test_bad_page_rejected(self, db):
        answers = db.query(EXAMPLE).answers()
        with pytest.raises(EngineError):
            answers.page(-1)
        with pytest.raises(EngineError):
            answers.page(0, size=0)

    def test_async_and_sync_same_object(self, db):
        answers = db.query(EXAMPLE).answers()
        sync_all = answers.all()

        async def main():
            fresh = db.query(EXAMPLE).answers()
            async_all = await fresh.aall()
            count = await fresh.acount()
            streamed = [a async for a in fresh]
            return async_all, count, streamed

        async_all, count, streamed = asyncio.run(main())
        assert async_all == sync_all == streamed
        assert count == len(sync_all)

    def test_async_cancel(self, db):
        async def main():
            answers = db.query(EXAMPLE).answers()
            await answers.apage(0, size=2)
            await answers.acancel()
            assert answers.cancelled
            with pytest.raises(CancelledResultError):
                await answers.aall()

        asyncio.run(main())


class TestDynamicUpdates:
    def test_insert_maintains_cached_plans(self, structure):
        with Database(structure) as db:
            q = db.query(EXAMPLE)
            q.count()
            pipeline_before = q.pipeline
            assert db.insert_fact("B", missing_unary(structure))
            # maintained in place: same pipeline object, fresh answers
            assert q.pipeline is pipeline_before
            assert sorted(q.answers().all()) == oracle(structure)
            assert q.count() == len(oracle(structure))
            stats = db.stats()
            assert stats["maintained_plans"] == 1

    def test_remove_fact_maintained(self, structure):
        with Database(structure) as db:
            q = db.query(EXAMPLE)
            q.answers().all()
            edge = next(iter(structure.facts("E")))
            assert db.remove_fact("E", *edge)
            assert sorted(q.answers().all()) == oracle(structure)

    def test_noop_updates_change_nothing(self, structure):
        with Database(structure) as db:
            q = db.query(EXAMPLE)
            before = q.answers().all()
            existing = next(iter(structure.facts("B")))
            assert not db.insert_fact("B", *existing)
            assert not db.remove_fact("B", missing_unary(structure))
            assert q.answers().all() == before

    def test_update_stream_agrees_with_oracle(self):
        import random

        structure = random_colored_graph(18, max_degree=3, seed=3)
        rng = random.Random(11)
        domain = list(structure.domain)
        with Database(structure) as db:
            q = db.query(EXAMPLE)
            for _ in range(12):
                a, b = rng.choice(domain), rng.choice(domain)
                if structure.has_fact("E", a, b):
                    db.remove_fact("E", a, b)
                else:
                    db.insert_fact("E", a, b)
                assert sorted(q.answers().all()) == oracle(structure)
                assert q.count() == len(oracle(structure))

    def test_targeted_invalidation_keeps_maintained_entries(self, structure):
        with Database(structure) as db:
            maintained = db.query(EXAMPLE)  # quantifier-free: maintainable
            # An unrelativized quantifier with far witnesses derives
            # predicates -> not maintainable.
            unmaintained = db.query("B(x) & exists z. (R(z) & dist(x,z) > 2)")
            stats = db.stats()
            assert stats["entries"] == 2
            assert stats["maintained_plans"] == 1
            maintained_pipeline = maintained.pipeline
            unmaintained_pipeline = unmaintained.pipeline
            db.insert_fact("B", missing_unary(structure))
            # The maintained plan survived as a cache hit (same object);
            # the other was dropped and rebuilds on next use.
            assert maintained.pipeline is maintained_pipeline
            assert unmaintained.pipeline is not unmaintained_pipeline
            assert db.stats()["entries"] == 2
            # Both serve correct post-update answers.
            assert sorted(maintained.answers().all()) == oracle(structure)
            want = oracle(structure, "B(x) & exists z. (R(z) & dist(x,z) > 2)")
            assert sorted(unmaintained.answers().all()) == want

    def test_outstanding_handles_stay_pinned(self, structure):
        # The snapshot-isolation contract: a handle opened before a
        # commit keeps streaming its pinned version byte-identically
        # (stale is informative, never an error on the session API).
        with Database(structure) as db:
            expected = db.query(EXAMPLE).answers().all()
            answers = db.query(EXAMPLE).answers()
            first = answers.page(0, size=2)
            db.insert_fact("B", missing_unary(structure))
            assert answers.stale
            assert answers.pinned
            assert first + answers.all()[2:] == expected
            assert answers.all() == expected

    def test_external_mutation_falls_back_to_invalidation(self, structure):
        # Only the session that installed the write guard lifts it on
        # close, so a second session on the same structure is left
        # unguarded: a direct mutation then reaches it behind its back and
        # the fingerprint-keyed cache must rebuild rather than serve stale.
        owner = Database(structure)
        with Database(structure) as db:
            q = db.query(EXAMPLE)
            before = q.pipeline
            handle = q.answers()
            handle.page(0, size=2)  # open, not exhausted
            owner.close()
            structure.add_fact("B", missing_unary(structure))  # behind our back
            with pytest.raises(StaleResultError):
                handle.page(2, size=2)
            assert q.pipeline is not before, "stale pipeline served"
            assert sorted(q.answers().all()) == oracle(structure)
            assert db.stats()["maintained_plans"] == 1  # re-attached on rebuild


class TestLifecycle:
    def test_close_rejects_new_queries(self, structure):
        db = Database(structure)
        q = db.query(EXAMPLE)
        db.close()
        assert db.closed
        with pytest.raises(EngineError):
            db.query(EXAMPLE)
        with pytest.raises(EngineError):
            q.answers()
        with pytest.raises(EngineError):
            db.insert_fact("B", missing_unary(structure))
        db.close()  # idempotent

    def test_context_manager(self, structure):
        with Database(structure) as db:
            assert not db.closed
        assert db.closed

    def test_bad_workers_rejected(self, structure):
        with pytest.raises(EngineError):
            Database(structure, workers=0)

    def test_stats_keys(self, db):
        db.query(EXAMPLE)
        stats = db.stats()
        for key in (
            "entries",
            "hits",
            "misses",
            "graph_templates",
            "maintained_plans",
            "pool_submits",
            "pool_workers",
        ):
            assert key in stats

    def test_cache_shared_across_queries(self, db):
        first = db.query(EXAMPLE)
        second = db.query("(B(x)) & (R(y)) & ~E(x,y)")  # same normalized form
        assert first.pipeline is second.pipeline
        assert db.stats()["hits"] >= 1


class TestQueryLiveView:
    def test_query_survives_updates_queries_answers(self, structure):
        with Database(structure) as db:
            q = db.query(EXAMPLE)
            counts = [q.count()]
            db.insert_fact("B", missing_unary(structure))
            counts.append(q.count())
            db.insert_fact("R", missing_unary(structure, "R"))
            counts.append(q.count())
            assert counts[-1] == len(oracle(structure))

    def test_answers_returns_fresh_handles(self, db):
        q = db.query(EXAMPLE)
        first = q.answers()
        second = q.answers()
        assert first is not second
        assert isinstance(first, Answers)
        first.cancel()
        assert second.all() == list(second)  # unaffected by sibling cancel

    def test_repr(self, db):
        q = db.query(EXAMPLE)
        assert "Query(" in repr(q)
        assert isinstance(q, Query)
