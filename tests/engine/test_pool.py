"""Lifecycle tests for the long-lived worker pool.

What a service needs from its pool: lazy start (serial work costs no OS
resources), warm reuse across submissions, an idempotent ``close`` (also
via ``with``), transparent restart after a killed process worker, and —
enforced by the ``no_leaks`` fixture — no thread or process left behind.
``"process"`` is the pool's only mode.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.core.enumeration import enumerate_answers
from repro.engine import WorkerPool, parallel_enumerate
from repro.errors import EngineError
from repro.session import Database

from planning import plan

EXAMPLE = "B(x) & R(y) & ~E(x,y)"


def _square(value):
    return value * value


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
            p for p in multiprocessing.active_children() if p not in children_before
        ]
        if not leaked_threads and not leaked_children:
            break
        time.sleep(0.05)
    assert not leaked_children, f"leaked processes: {leaked_children}"
    assert not leaked_threads, f"leaked threads: {leaked_threads}"


class TestLazyStart:
    def test_no_executor_until_first_submit(self, no_leaks):
        with WorkerPool(2) as pool:
            assert pool.stats()["process_pool_live"] == 0
            assert pool.submit("process", _square, 3).result(timeout=60) == 9
            assert pool.stats()["process_pool_live"] == 1

    def test_serial_session_never_starts_a_pool(self, small_colored, no_leaks):
        with Database(small_colored) as db:
            handle = db.query(EXAMPLE, backend="serial").answers()
            handle.all()
            handle.count()
            assert db.stats()["pool_process_pool_live"] == 0

    def test_workers_validation(self):
        with pytest.raises(EngineError):
            WorkerPool(0)

    def test_unknown_mode_rejected(self, no_leaks):
        with WorkerPool(2) as pool:
            for mode in ("fiber", "thread"):
                with pytest.raises(EngineError):
                    pool.submit(mode, _square, 3)
                with pytest.raises(EngineError):
                    pool.executor_for(mode)
            assert pool.stats()["process_pool_live"] == 0


class TestWarmReuse:
    def test_same_executor_across_submits(self, no_leaks):
        with WorkerPool(2) as pool:
            first = pool.executor_for("process")
            assert pool.submit("process", _square, 4).result(timeout=60) == 16
            assert pool.executor_for("process") is first
            assert pool.stats()["submits"] == 1

    def test_process_workers_reused_across_submits(self, no_leaks):
        with WorkerPool(1) as pool:
            first = pool.submit("process", os.getpid).result(timeout=60)
            second = pool.submit("process", os.getpid).result(timeout=60)
            assert first == second, "warm pool must reuse its worker process"

    def test_session_reuses_pool_across_queries(self, medium_colored, no_leaks):
        serial = list(enumerate_answers(plan(medium_colored, EXAMPLE)))
        with Database(medium_colored, workers=2) as db:
            assert db.query(EXAMPLE, backend="process").answers().all() == serial
            other = db.query("B(x) & R(y) & E(x,y)", backend="process")
            assert other.answers().all() is not None
            stats = db.stats()
            assert stats["pool_process_pool_live"] == 1
            assert stats["pool_submits"] > 0


class TestClose:
    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.submit("process", _square, 2).result(timeout=60)
        pool.close()
        pool.close()
        assert pool.closed

    def test_context_manager_closes(self, no_leaks):
        with WorkerPool(2) as pool:
            pool.submit("process", _square, 2).result(timeout=60)
        assert pool.closed
        with pytest.raises(EngineError):
            pool.submit("process", _square, 2)

    def test_close_joins_all_workers(self, no_leaks):
        pool = WorkerPool(2)
        assert pool.submit("process", _square, 5).result(timeout=60) == 25
        pool.close()
        # no_leaks asserts every child process (and helper thread) is gone

    def test_closed_session_rejects_queries(self, small_colored):
        db = Database(small_colored)
        db.close()
        db.close()  # idempotent
        with pytest.raises(EngineError):
            db.query(EXAMPLE)
        with pytest.raises(EngineError):
            db.count(EXAMPLE)


class TestCrashRestart:
    def _kill_one_worker(self, pool):
        executor = pool.executor_for("process")
        # Ensure workers exist, then kill one hard (simulating a segfault
        # or the OOM killer).
        pool.submit("process", _square, 1).result(timeout=60)
        victim_pid = next(iter(executor._processes))
        os.kill(victim_pid, signal.SIGKILL)

    def test_restart_after_killed_worker(self, no_leaks):
        with WorkerPool(1) as pool:
            self._kill_one_worker(pool)
            deadline = time.monotonic() + 60
            recovered = False
            while time.monotonic() < deadline:
                try:
                    if pool.submit("process", _square, 6).result(timeout=60) == 36:
                        recovered = True
                        break
                except BrokenProcessPool:
                    # The in-flight future was doomed; the *next* submit
                    # replaces the broken executor.
                    continue
            assert recovered, "pool never recovered from the killed worker"
            assert pool.restarts >= 1

    def test_parallel_enumerate_retry_after_crash(self, medium_colored, no_leaks):
        """A query-level retry after a worker crash must succeed and
        return the exact serial rows, on the restarted pool."""
        pipeline = plan(medium_colored, EXAMPLE)
        serial = list(enumerate_answers(pipeline))
        with WorkerPool(1) as pool:
            self._kill_one_worker(pool)
            deadline = time.monotonic() + 60
            while True:
                try:
                    got = list(
                        parallel_enumerate(
                            pipeline, workers=1, mode="process", pool=pool
                        )
                    )
                    break
                except BrokenProcessPool:
                    assert time.monotonic() < deadline, "no recovery within 60s"
            assert got == serial
            assert pool.restarts >= 1
