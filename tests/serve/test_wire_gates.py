"""The serve tier's wire-fidelity gates: a transport, not a semantics.

Every result that crosses the wire — JSON rows over HTTP, row events
over WebSocket, columnar chunks decoded client-side — equals in-process
enumeration, an apply through the wire is visible to the next query,
and every cursor pin drains once the cursors close.  One in-process
server per test, on the structure family of
``benchmarks/bench_e14_serve.py`` at small n.
"""

from __future__ import annotations

import pytest

from repro.serve import DatabaseRegistry, ServeClient, serve_in_thread
from repro.session import Database
from repro.structures.random_gen import random_colored_graph

from test_stream_ws import wait_for_pins

EXAMPLE = "B(x) & R(y) & ~E(x,y)"


@pytest.fixture(params=(32, 64))
def db(request):
    database = Database(random_colored_graph(request.param, max_degree=4, seed=17).copy())
    yield database
    database.close()


@pytest.fixture
def client(db):
    registry = DatabaseRegistry()
    registry.add("main", db, close_on_shutdown=False)
    handle = serve_in_thread(registry, cursor_timeout=None)
    with ServeClient("127.0.0.1", handle.port) as c:
        yield c
    handle.stop()


def test_http_rows_and_count_equal_in_process(db, client):
    expected = db.query(EXAMPLE).answers().all()
    assert expected, "the gate needs answers to compare"
    assert client.rows("main", EXAMPLE) == expected
    assert client.count("main", EXAMPLE) == len(expected)


def test_websocket_rows_equal_in_process(db, client):
    expected = db.query(EXAMPLE).answers().all()
    with client.stream("main") as ws:
        ws.open(EXAMPLE, page_size=64)
        assert ws.rows() == expected


def test_columnar_stream_decodes_to_the_same_rows(db, client):
    expected = db.query(EXAMPLE).answers().all()
    with client.stream("main") as ws:
        ack = ws.open(EXAMPLE, wire="columnar", chunk_rows=512)
        assert ack.get("wire") == "columnar", ack
        assert ws.rows(ack=ack) == expected


def test_a_wire_apply_bumps_the_version_and_shows_in_the_next_count(db, client):
    version = db.version
    result = client.apply(
        "main",
        '{"op":"delete","relation":"B","elements":[0]}\n'
        '{"op":"delete","relation":"R","elements":[1]}\n',
    )
    assert result["ops_effective"] > 0
    assert result["version_after"] > version
    assert client.count("main", EXAMPLE) == db.query(EXAMPLE).count()


def test_every_pin_drains_after_the_cursors_close(db, client):
    expected = db.query(EXAMPLE).answers().all()
    cursor = client.open_cursor("main", EXAMPLE, page_size=3)
    cursor.next_page()
    with client.stream("main") as ws:
        ws.open(EXAMPLE, page_size=4)
        assert db.stats()["pinned_versions"] >= 1
        assert ws.rows() == expected
    with client.stream("main") as ws:
        ws.open(EXAMPLE, wire="columnar", chunk_rows=512)
    cursor.close()
    client.close()
    assert wait_for_pins(db, 0, timeout=10) == 0
