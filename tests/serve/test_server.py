"""HTTP endpoint integration tests against an in-process server."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.errors import ServeError
from repro.serve import DatabaseRegistry, ServeClient, serve_in_thread
from repro.session import Database
from repro.structures.random_gen import random_colored_graph

QUERY = "B(x) & R(y) & ~E(x,y)"


@pytest.fixture
def no_leaks(db):
    """Snapshot live threads/children; fail if the test leaks either.

    Depends on ``db`` and closes it before checking: the registry entry
    is added with ``close_on_shutdown=False``, so the session's lazily
    started worker pool outlives the server and is the test's to close
    (closing is idempotent, so ``db``'s own teardown stays harmless).
    """
    threads_before = set(threading.enumerate())
    children_before = set(multiprocessing.active_children())
    yield
    db.close()
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
def db():
    database = Database(random_colored_graph(80, seed=11).copy())
    yield database
    database.close()


@pytest.fixture
def server(db):
    registry = DatabaseRegistry()
    registry.add("main", db, close_on_shutdown=False)
    handle = serve_in_thread(registry, cursor_timeout=None)
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with ServeClient("127.0.0.1", server.port) as c:
        yield c


class TestHttpEndpoints:
    def test_health_and_dbs(self, client):
        assert client.health()["ok"] is True
        assert client.databases() == ["main"]

    def test_query_matches_in_process(self, db, client):
        expected = db.query(QUERY).answers().all()
        assert client.rows("main", QUERY) == expected
        assert client.count("main", QUERY) == len(expected)

    def test_query_limit(self, db, client):
        expected = db.query(QUERY).answers().all()
        assert client.rows("main", QUERY, limit=5) == expected[:5]

    def test_select_statement(self, db, client):
        statement = f"SELECT y WHERE {QUERY} ORDER BY y LIMIT 7"
        expected = db.query(statement).all()
        payload = client.query("main", statement)
        assert payload["columns"] == ["y"]
        rows = [tuple(row) for row in payload["rows"]]
        assert rows == expected

    def test_http_cursor_pages_and_drains_pin(self, db, client):
        expected = db.query(QUERY).answers().all()
        cursor = client.open_cursor("main", QUERY, page_size=7)
        assert cursor.columns == ("x", "y")
        rows = cursor.rows()
        assert rows == expected
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if db.stats()["pinned_versions"] == 0:
                break
            time.sleep(0.01)
        assert db.stats()["pinned_versions"] == 0

    def test_http_cursor_explicit_close_releases_pin(self, db, client):
        cursor = client.open_cursor("main", QUERY, page_size=3)
        cursor.next_page()
        assert db.stats()["pinned_versions"] >= 1
        cursor.close()
        assert db.stats()["pinned_versions"] == 0
        assert client.stats("main")["open_cursors"] == 0

    def test_apply_then_query_sees_new_facts(self, db, client):
        version = db.version
        result = client.apply(
            "main",
            '{"op":"insert","relation":"B","elements":[0]}\n'
            '{"op":"insert","relation":"R","elements":[1]}\n',
        )
        assert result["version_after"] > version
        assert db.version == result["version_after"]
        assert client.count("main", "B(x)") == db.query("B(x)").count()

    def test_stats_payload(self, client):
        stats = client.stats("main")
        assert stats["name"] == "main"
        assert stats["open_cursors"] == 0
        assert "pinned_versions" in stats and "version" in stats

    def test_unknown_database_404(self, client):
        with pytest.raises(ServeError) as info:
            client.rows("ghost", QUERY)
        assert info.value.status == 404

    def test_unknown_cursor_404(self, client):
        with pytest.raises(ServeError) as info:
            client._request("POST", "/db/main/cursor/c999/next", b"")
        assert info.value.status == 404

    def test_bad_query_400(self, client):
        with pytest.raises(ServeError) as info:
            client.rows("main", "B(x")
        assert info.value.status == 400

    def test_bad_body_400(self, client):
        with pytest.raises(ServeError) as info:
            client._request("POST", "/db/main/query", b"not json")
        assert info.value.status == 400

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError) as info:
            client._request("GET", "/nope")
        assert info.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServeError) as info:
            client._request("POST", "/healthz", b"")
        assert info.value.status == 405

    def test_checkpoint_on_memory_database_400(self, client):
        with pytest.raises(ServeError) as info:
            client.checkpoint("main")
        assert info.value.status == 400


class TestApplyHardening:
    def test_bad_jsonl_line_number_in_400(self, client):
        with pytest.raises(ServeError) as info:
            client.apply(
                "main",
                '{"op":"insert","relation":"B","elements":[0]}\n'
                "{broken\n",
            )
        assert info.value.status == 400
        assert "line 2" in str(info.value)

    def test_non_utf8_body_400(self, client):
        with pytest.raises(ServeError) as info:
            client._request("POST", "/db/main/apply", b"\xff\xfe{}")
        assert info.value.status == 400
        assert "UTF-8" in str(info.value)

    def test_oversized_record_400(self, server, db):
        # A dedicated server with a tiny record limit.
        with ServeClient("127.0.0.1", server.port) as probe:
            assert probe.health()["ok"]
        registry = DatabaseRegistry()
        registry.add("tiny", db, close_on_shutdown=False)
        handle = serve_in_thread(registry, max_record_bytes=64)
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                big = (
                    '{"op":"insert","relation":"E","elements":[0,1],'
                    '"pad":"' + "x" * 200 + '"}'
                )
                with pytest.raises(ServeError) as info:
                    client.apply("tiny", big)
                assert info.value.status == 400
                assert "line 1" in str(info.value)
                assert "limit 64" in str(info.value)
        finally:
            handle.stop()


class TestDurableServing:
    def test_checkpoint_endpoint_and_wal_stats(self, tmp_path, no_leaks):
        db = Database.open(
            tmp_path / "store",
            structure=random_colored_graph(40, seed=3).copy(),
        )
        registry = DatabaseRegistry()
        registry.add("d", db)  # registry owns it now
        handle = serve_in_thread(registry, checkpoint_on_shutdown=True)
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                client.apply(
                    "d", '{"op":"insert","relation":"E","elements":[0,1]}'
                )
                stats = client.stats("d")
                assert stats["wal_records"] == 1
                assert stats["wal_bytes"] > 0
                result = client.checkpoint("d")
                assert result["wal_records_retired"] == 1
                assert result["wal_bytes_retired"] == stats["wal_bytes"]
                assert client.stats("d")["wal_records"] == 0
        finally:
            handle.stop()
        assert db.closed

    def test_shutdown_checkpoints_durable_store(self, tmp_path, no_leaks):
        db = Database.open(
            tmp_path / "store",
            structure=random_colored_graph(40, seed=4).copy(),
        )
        registry = DatabaseRegistry()
        registry.add("d", db)
        handle = serve_in_thread(registry)
        with ServeClient("127.0.0.1", handle.port) as client:
            client.apply(
                "d", '{"op":"insert","relation":"E","elements":[0,2]}'
            )
        handle.stop()
        assert db.closed
        reopened = Database.open(tmp_path / "store")
        try:
            # The shutdown checkpoint rotated the WAL.
            assert reopened.stats()["wal_records"] == 0
            assert reopened.structure.has_fact("E", 0, 2)
        finally:
            reopened.close()


class TestShutdown:
    def test_stop_refuses_new_requests(self, db, no_leaks):
        registry = DatabaseRegistry()
        registry.add("main", db, close_on_shutdown=False)
        handle = serve_in_thread(registry)
        with ServeClient("127.0.0.1", handle.port) as client:
            assert client.health()["ok"]
        handle.stop()
        with pytest.raises(ServeError):
            with ServeClient("127.0.0.1", handle.port, timeout=2) as client:
                client.health()

    def test_threaded_server_leaves_no_threads(self, db, no_leaks):
        registry = DatabaseRegistry()
        registry.add("main", db, close_on_shutdown=False)
        handle = serve_in_thread(registry)
        with ServeClient("127.0.0.1", handle.port) as client:
            client.rows("main", QUERY)
        handle.stop()
