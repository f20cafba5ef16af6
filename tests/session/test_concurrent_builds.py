"""Regression: pipeline builds are no longer serialized behind one lock.

The session layer holds *per-cache-key* build locks: two cold queries
with distinct keys must be able to run their (expensive) pipeline builds
concurrently, while two racing submits of the *same* query still build
exactly once.  The overlap tests use a two-party barrier inside a
patched ``Pipeline`` constructor — if the builds were serialized, the
second build could never reach the barrier while the first waits, and
the barrier would time out.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import repro.session.database as database_module
from repro.core.pipeline import Pipeline
from repro.session import Database

QUERY_A = "B(x) & R(y) & ~E(x,y)"
QUERY_B = "B(x) & R(y) & E(x,y)"

BARRIER_TIMEOUT = 20.0


class _BarrierPipeline:
    """Pipeline factory that parks every build on a shared barrier."""

    def __init__(self, parties: int):
        self.barrier = threading.Barrier(parties, timeout=BARRIER_TIMEOUT)
        self.builds = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.builds += 1
        self.barrier.wait()  # every party must be building simultaneously
        return Pipeline(*args, **kwargs)


class TestDistinctQueriesOverlap:
    def test_two_cold_builds_run_concurrently(self, small_colored, monkeypatch):
        probe = _BarrierPipeline(parties=2)
        monkeypatch.setattr(database_module, "Pipeline", probe)
        with Database(small_colored) as db:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(db.query, QUERY_A),
                    pool.submit(db.query, QUERY_B),
                ]
                queries = [future.result() for future in futures]
            assert probe.builds == 2
            counts = [q.count() for q in queries]
        assert all(isinstance(count, int) for count in counts)

    def test_async_submits_overlap(self, small_colored, monkeypatch):
        probe = _BarrierPipeline(parties=2)
        monkeypatch.setattr(database_module, "Pipeline", probe)

        async def scenario():
            loop = asyncio.get_running_loop()
            with Database(small_colored) as db:
                first, second = await asyncio.gather(
                    loop.run_in_executor(None, db.query, QUERY_A),
                    loop.run_in_executor(None, db.query, QUERY_B),
                )
                return (
                    await first.answers().acount(),
                    await second.answers().acount(),
                )

        counts = asyncio.run(scenario())
        assert probe.builds == 2
        assert all(isinstance(count, int) for count in counts)


class TestSameQueryBuildsOnce:
    def test_racing_submits_share_one_build(self, small_colored, monkeypatch):
        builds = 0
        build_lock = threading.Lock()

        def counting_pipeline(*args, **kwargs):
            nonlocal builds
            with build_lock:
                builds += 1
            return Pipeline(*args, **kwargs)

        monkeypatch.setattr(database_module, "Pipeline", counting_pipeline)
        with Database(small_colored) as db:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(db.query, QUERY_A) for _ in range(4)]
                queries = [future.result() for future in futures]
        assert builds == 1, "racing submits of one query must build once"
        pipelines = {id(q.pipeline) for q in queries}
        assert len(pipelines) == 1, "all submits must share the cached pipeline"

    def test_equal_shape_queries_share_graph_template(self, small_colored):
        with Database(small_colored) as db:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(db.query, QUERY_A),
                    pool.submit(db.query, QUERY_B),
                ]
                for future in futures:
                    future.result()
            # Same (arity, link radius): one template serves both.
            assert db.stats()["graph_templates"] == 1


class TestConcurrentUpdates:
    def test_racing_duplicate_inserts_apply_once(self, small_colored):
        """Two threads inserting the same fact: exactly one effective
        update — the loser must see the winner's fact and not wipe the
        cache with a no-op 'update'."""
        probe = None
        for node in range(small_colored.cardinality):
            if not small_colored.has_fact("B", node):
                probe = node
                break
        assert probe is not None
        with Database(small_colored) as db:
            db.query(QUERY_A).count()  # populate the cache
            results = []
            barrier = threading.Barrier(2, timeout=BARRIER_TIMEOUT)

            def racer():
                barrier.wait()
                results.append(db.insert_fact("B", probe))

            threads = [threading.Thread(target=racer) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert sorted(results) == [False, True]
            assert db.structure.has_fact("B", probe)


class TestThreadSafetySmoke:
    def test_many_threads_many_queries(self, small_colored):
        queries = [QUERY_A, QUERY_B, "B(x)", "R(x)", "E(x,y)"]
        with Database(small_colored) as db:
            expected = {q: db.query(q).count() for q in queries}

            def worker(query: str) -> bool:
                return db.query(query).count() == expected[query]

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(worker, queries * 8))
        assert all(results)
