"""WebSocket streaming cursors: snapshot pinning under concurrent
writes, columnar passthrough, and pin drainage (the PR's acceptance
scenario)."""

from __future__ import annotations

import json
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
    database = Database(random_colored_graph(80, seed=29).copy())
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


def wait_for_pins(db, want: int = 0, timeout: float = 5.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pinned = db.stats()["pinned_versions"]
        if pinned == want:
            return pinned
        time.sleep(0.01)
    return db.stats()["pinned_versions"]


class TestAcceptanceScenario:
    def test_cursor_pinned_across_commit(self, no_leaks):
        """The headline guarantee: a cursor opened before a commit
        streams pages byte-identical to pre-commit enumeration while a
        post-commit HTTP query sees the new facts; every pin drains.

        The result set is sized well past the kernel's socket buffering
        so the bounded queue genuinely stalls the producer: the commit
        is guaranteed to land while most of the cursor's pages are
        still unproduced — served afterwards from the pinned version.
        """
        db = Database(random_colored_graph(600, seed=29).copy())
        registry = DatabaseRegistry()
        registry.add("main", db, close_on_shutdown=False)
        handle = serve_in_thread(registry, cursor_timeout=None, queue_pages=2)
        try:
            client = ServeClient("127.0.0.1", handle.port)
            expected = db.query(QUERY).answers().all()
            assert len(expected) > 50_000  # enough to stall the pump
            pre_commit_version = db.version
            with client.stream("main") as ws:
                ack = ws.open(QUERY, page_size=100)
                assert ack["version"] == pre_commit_version
                pages = ws.pages()
                first = next(pages)
                assert first == expected[:100]

                # A writer commits while the cursor is mid-stream; the
                # backpressured cursor is still open and pinned, so the
                # commit forks the head copy-on-write.
                assert handle.server.cursors.count() == 1
                assert db.stats()["pinned_versions"] >= 1
                result = client.apply(
                    "main",
                    '{"op":"insert","relation":"B","elements":[1]}\n'
                    '{"op":"insert","relation":"R","elements":[0]}\n',
                )
                assert result["version_after"] > pre_commit_version
                assert result["forked"] is True

                # The post-commit HTTP query sees the new facts...
                post_count = client.count("main", QUERY)
                assert post_count == db.query(QUERY).count()
                assert post_count != len(expected)

                # ...while the pinned cursor streams the old version,
                # byte-identical to pre-commit enumeration.
                streamed = list(first)
                for page in pages:
                    streamed.extend(page)
                assert streamed == expected

            client.close()
            assert wait_for_pins(db, 0) == 0, "pins leaked after drain"
        finally:
            handle.stop()
            db.close()

    def test_concurrent_cursors_with_writer(self, no_leaks, db, server):
        """N cursors paginate while a writer task commits changesets:
        each cursor stays byte-identical to the enumeration at its own
        open version, and all pins drain at close."""
        n_cursors = 4
        commits = 3
        baseline = ServeClient("127.0.0.1", server.port)
        streams, snapshots = [], []
        try:
            for index in range(n_cursors):
                ws = baseline.stream("main")
                ws.open(QUERY, page_size=3)
                streams.append(ws)
                snapshots.append(db.query(QUERY).answers().all())
                # Interleave commits between opens so cursors pin
                # *different* versions.
                if index < commits:
                    baseline.apply(
                        "main",
                        json.dumps(
                            {
                                "op": "insert",
                                "relation": "B",
                                "elements": [index],
                            }
                        )
                        + "\n"
                        + json.dumps(
                            {
                                "op": "insert",
                                "relation": "R",
                                "elements": [index + 1],
                            }
                        ),
                    )

            errors: list = []

            def drain(ws, expected, results, slot):
                try:
                    results[slot] = ws.rows()
                except Exception as error:  # noqa: BLE001 - test harness
                    errors.append(error)

            results: dict = {}
            threads = [
                threading.Thread(
                    target=drain, args=(ws, snap, results, i)
                )
                for i, (ws, snap) in enumerate(zip(streams, snapshots))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors, errors
            for i, snap in enumerate(snapshots):
                assert results[i] == snap, f"cursor {i} diverged"
        finally:
            for ws in streams:
                ws.close()
            baseline.close()
        assert wait_for_pins(db, 0) == 0, "pins leaked after close"

    def test_explicit_close_releases_pin(self, no_leaks, db, client):
        with client.stream("main") as ws:
            ws.open(QUERY, page_size=2)
            pages = ws.pages()
            next(pages)
            client.apply(
                "main", '{"op":"insert","relation":"B","elements":[7]}'
            )
            ws.close_cursor()  # mid-stream close must be clean
        assert wait_for_pins(db, 0) == 0

    def test_connection_drop_releases_pin(self, no_leaks, db, client):
        ws = client.stream("main")
        ws.open(QUERY, page_size=2)
        next(ws.pages())
        client.apply(
            "main", '{"op":"insert","relation":"R","elements":[9]}'
        )
        ws.close()  # drop the socket without a close action
        assert wait_for_pins(db, 0) == 0


class TestColumnarWire:
    def test_columnar_passthrough_and_decode(self, no_leaks):
        """Columnar cursors forward encoded chunks end-to-end: the
        server decodes zero enumeration rows (TransferStats) and the
        client-side decode is equal to in-process answers.

        Sized so the stream backpressures: when the first chunk reaches
        the client, hundreds more are still queued server-side, so the
        live cursor can be inspected without racing its own drain.
        """
        db = Database(random_colored_graph(1500, seed=31).copy())
        registry = DatabaseRegistry()
        registry.add("main", db, close_on_shutdown=False)
        handle = serve_in_thread(registry, cursor_timeout=None, queue_pages=2)
        try:
            client = ServeClient("127.0.0.1", handle.port)
            expected = db.query(QUERY).answers().all()
            assert len(expected) > 200_000
            with client.stream("main") as ws:
                ack = ws.open(QUERY, wire="columnar", chunk_rows=4096)
                assert ack["wire"] == "columnar"
                assert ack["arity"] == 2
                assert ack["chunk_rows"] == 4096
                pages = ws.pages()
                first = next(pages)
                # While the cursor is live, inspect the server-side
                # handle: chunks crossed, zero rows decoded in the
                # server process — the chunks went worker -> socket.
                cursor = handle.server.cursors.get(ack["cursor"])
                stats = cursor.encoded.transport_stats
                assert stats.chunks >= 1
                assert stats.rows == 0, "server decoded enumeration rows"
                # chunk_rows is an upper bound: a work unit's last chunk
                # may be short, so page boundaries depend on the mode.
                received = [first] + list(pages)
            assert all(0 < len(page) <= 4096 for page in received)
            rows = [row for page in received for row in page]
            assert rows == expected
            assert stats.rows == 0, "server decoded enumeration rows"
            client.close()
            assert wait_for_pins(db, 0) == 0
        finally:
            handle.stop()
            db.close()

    def test_columnar_downgrades_for_select(self, db, client):
        statement = "SELECT x WHERE B(x) ORDER BY x"
        expected = db.query(statement).all()
        with client.stream("main") as ws:
            ack = ws.open(statement, wire="columnar")
            assert ack["wire"] == "rows"  # downgraded, reported honestly
            assert ws.rows() == expected
        assert wait_for_pins(db, 0) == 0

    def test_columnar_downgrades_for_limit(self, db, client):
        expected = db.query(QUERY).answers().all()[:4]
        with client.stream("main") as ws:
            ack = ws.open(QUERY, wire="columnar", limit=4)
            assert ack["wire"] == "rows"
            assert ws.rows() == expected
        assert wait_for_pins(db, 0) == 0


class TestStreamProtocol:
    def test_select_over_websocket(self, db, client):
        statement = f"SELECT y, x WHERE {QUERY}"
        expected = db.query(statement).all()
        with client.stream("main") as ws:
            ack = ws.open(statement, page_size=4)
            assert ack["columns"] == ["y", "x"]
            assert ws.rows() == expected

    def test_bad_query_is_error_event(self, client):
        with client.stream("main") as ws:
            with pytest.raises(ServeError) as info:
                ws.open("B(x")
            assert info.value.status == 400

    def test_unknown_action_is_error_event(self, client):
        with client.stream("main") as ws:
            ws._send_json({"action": "mystery"})
            event = ws._next_event()
            assert event["event"] == "error"

    def test_unknown_database_refuses_upgrade(self, client, server):
        with pytest.raises(ServeError) as info:
            client.stream("ghost")
        assert info.value.status == 404

    def test_ping_action(self, client):
        with client.stream("main") as ws:
            ws._send_json({"action": "ping"})
            assert ws._next_event() == {"event": "pong"}

    def test_limit_over_websocket(self, db, client):
        expected = db.query(QUERY).answers().all()[:3]
        with client.stream("main") as ws:
            ws.open(QUERY, limit=3, page_size=2)
            assert ws.rows() == expected


class TestServerShutdownWithCursors:
    def test_shutdown_drains_open_cursors(self, db, no_leaks):
        registry = DatabaseRegistry()
        registry.add("main", db, close_on_shutdown=False)
        handle = serve_in_thread(registry, cursor_timeout=None)
        client = ServeClient("127.0.0.1", handle.port)
        # An HTTP cursor is pull-driven, so it is deterministically
        # still open (and pinned) when shutdown begins.
        cursor = client.open_cursor("main", QUERY, page_size=2)
        cursor.next_page()
        client.apply(
            "main", '{"op":"insert","relation":"B","elements":[3]}'
        )
        assert db.stats()["pinned_versions"] >= 1
        handle.stop()  # graceful shutdown with a live pinned cursor
        client.close()
        assert wait_for_pins(db, 0) == 0, "shutdown leaked pins"


class TestCursorReaper:
    def test_idle_cursor_is_reaped(self, db, no_leaks):
        registry = DatabaseRegistry()
        registry.add("main", db, close_on_shutdown=False)
        handle = serve_in_thread(registry, cursor_timeout=0.3)
        try:
            client = ServeClient("127.0.0.1", handle.port)
            cursor = client.open_cursor("main", QUERY, page_size=2)
            cursor.next_page()
            client.apply(
                "main", '{"op":"insert","relation":"R","elements":[5]}'
            )
            assert db.stats()["pinned_versions"] >= 1
            # Idle past the timeout: the reaper must close the cursor
            # and release its pin without any client action.
            assert wait_for_pins(db, 0, timeout=10) == 0, "reaper missed"
            assert handle.server.cursors.count() == 0
            with pytest.raises(ServeError) as info:
                cursor.next_page()  # the reaped cursor is gone
            assert info.value.status in (404, 500)
            client.close()
        finally:
            handle.stop()
