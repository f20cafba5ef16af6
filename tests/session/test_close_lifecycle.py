"""Database close/exit audit: closing with live snapshots and answer
handles must cancel cleanly — no pool leak, no hang, idempotent close.

Mirrors the PR 2 pool lifecycle tests (the ``no_leaks`` fixture):
whatever the session state — pinned snapshots, partially consumed
handles, in-flight async pulls — ``close()`` must reap every thread and
process the session started.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time

import pytest

from repro.errors import EngineError
from repro.session import Database
from repro.structures.random_gen import random_colored_graph

EXAMPLE = "B(x) & R(y) & ~E(x,y)"


@pytest.fixture
def no_leaks():
    """Snapshot live threads/children; fail if the test leaks either."""
    threads_before = set(threading.enumerate())
    children_before = set(multiprocessing.active_children())
    yield
    deadline = time.monotonic() + 10
    leaked_threads: list = []
    leaked_children: list = []
    while time.monotonic() < deadline:
        leaked_threads = [
            t
            for t in threading.enumerate()
            if t not in threads_before and t.is_alive()
        ]
        leaked_children = [
            p
            for p in multiprocessing.active_children()
            if p not in children_before
        ]
        if not leaked_threads and not leaked_children:
            break
        time.sleep(0.05)
    assert not leaked_children, f"leaked processes: {leaked_children}"
    assert not leaked_threads, f"leaked threads: {leaked_threads}"


@pytest.fixture
def structure():
    return random_colored_graph(24, max_degree=3, seed=23).copy()


class TestCloseIdempotency:
    def test_close_twice_and_exit(self, structure, no_leaks):
        db = Database(structure)
        db.query(EXAMPLE).count()
        db.close()
        db.close()
        with pytest.raises(EngineError):
            db.query(EXAMPLE)
        # __exit__ after explicit close is also a no-op.
        db.__exit__(None, None, None)

    def test_close_with_live_snapshot(self, structure, no_leaks):
        db = Database(structure)
        snap = db.snapshot()
        snap.query(EXAMPLE).count()
        db.close()
        # Snapshot reads are refused after the session is gone...
        with pytest.raises(EngineError):
            snap.query(EXAMPLE)
        # ...and closing the snapshot afterwards neither hangs nor raises.
        snap.close()
        snap.close()

    def test_close_with_partially_consumed_handle(self, structure, no_leaks):
        db = Database(structure)
        handle = db.query(EXAMPLE, backend="thread", workers=2).answers()
        handle.page(0, size=2)
        db.close()
        # The handle keeps its already-pulled answers; pin release and
        # cancel on a closed session must not hang or leak.
        assert len(handle.page(0, size=2)) == 2
        handle.cancel()

    def test_close_with_pinned_fork_history(self, structure, no_leaks):
        db = Database(structure)
        snap = db.snapshot()
        free = [e for e in structure.domain if not structure.has_fact("B", e)]
        db.insert_fact("B", free[0])  # forks (snapshot pins)
        handle = db.query(EXAMPLE).answers()
        handle.page(0, size=1)
        db.insert_fact("B", free[1])  # forks again (handle pins)
        db.close()
        db.close()
        # Releasing pins after close is clean (cache purge on a closed
        # session must not error).
        handle.cancel()
        snap.close()

    def test_context_manager_with_live_handles(self, structure, no_leaks):
        with Database(structure, workers=2) as db:
            snap = db.snapshot()
            handles = [db.query(EXAMPLE).answers() for _ in range(3)]
            for handle in handles:
                handle.page(0, size=1)
        # exiting the with-block closed the pool with pins outstanding
        for handle in handles:
            handle.cancel()
        snap.close()

    def test_async_handle_then_close(self, structure, no_leaks):
        async def scenario():
            db = Database(structure, workers=2)
            handle = db.query(EXAMPLE).answers()
            await handle.apage(0, size=2)
            db.close()
            await handle.acancel()

        asyncio.run(scenario())

    def test_pool_shut_down_after_close(self, structure, no_leaks):
        db = Database(structure, workers=2)
        db.query(EXAMPLE, backend="thread").answers().all()
        assert db.stats()["pool_thread_pool_live"] == 1
        db.close()
        assert db.pool.closed
