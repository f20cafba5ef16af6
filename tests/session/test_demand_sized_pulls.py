"""Operation counts of in-process pulls: a request enumerates only the
rows it returns.

Rows are counted where enumeration yields them — the serial path's
``enumerate_branch`` generators and the sharded gather's per-branch
streams — so the bounds are exact step counts, not wall-clock times.
Each bound is checked at ``n`` and ``4n`` and must come out the same:
a page at a fixed offset costs the same on a four times larger
database.  Under ``auto`` a plan that resolves to ``process`` serves
its first chunk serially, so a first page costs the same rows as under
``serial`` and submits no work unit.
"""

from __future__ import annotations

from itertools import islice

import pytest

from repro.engine import WorkerPool, executor
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.session import Database
from repro.session.answers import DEFAULT_PAGE_SIZE
from repro.shard import ShardedDatabase
from repro.shard.backend import ShardGatherBackend
from repro.structures.random_gen import random_colored_graph

QUERY = "B(x) & R(y) & ~E(x,y)"
SIZES = (100, 400)
PAGES = ((0, 1), (0, 100), (3, 25), (2, 7))
LIMITS = (0, 1, 7, 150)


@pytest.fixture
def enumerated(monkeypatch):
    """The number of rows enumeration has yielded (reset per measure;
    the outer-position marks an automatic run's head reads are not
    rows)."""
    counter = {"rows": 0}

    def counting(rows):
        for row in rows:
            if row is not None:
                counter["rows"] += 1
            yield row

    branch = executor.enumerate_branch
    monkeypatch.setattr(
        executor,
        "enumerate_branch",
        lambda *args, **options: counting(branch(*args, **options)),
    )
    gather = ShardGatherBackend._branch_stream
    monkeypatch.setattr(
        ShardGatherBackend,
        "_branch_stream",
        lambda self, index: counting(gather(self, index)),
    )
    return counter


def open_database(front, n):
    structure = random_colored_graph(n, max_degree=3, seed=5)
    if front == "serial":
        return Database(structure)
    return ShardedDatabase(structure, shards=2)


def query(db, front):
    if front == "serial":
        return db.query(QUERY, backend="serial")
    return db.query(QUERY)


def measure(counter, operation):
    counter["rows"] = 0
    result = operation()
    return result, counter["rows"]


def costs(front, n, counter):
    """Rows enumerated by each bounded operation at size ``n``."""
    observed = {}
    with open_database(front, n) as db:
        q = query(db, front)
        full = q.answers().all()
        assert len(full) > max((i + 1) * s for i, s in PAGES) + DEFAULT_PAGE_SIZE
        for index, size in PAGES:
            handle = q.answers()
            page, rows = measure(counter, lambda: handle.page(index, size))
            assert page == full[index * size : (index + 1) * size]
            observed[("page", index, size)] = rows
            expected = "shard-stream" if front == "sharded" else "serial"
            assert handle.backend_used == expected
            handle.cancel()
        for limit in LIMITS:
            handle = q.answers(limit=limit)
            served, rows = measure(counter, handle.all)
            assert served == full[:limit]
            observed[("limit", limit)] = rows
        counter["rows"] = 0
        stream = q.answers().stream()
        ahead = []
        for consumed, answer in enumerate(islice(stream, 3 * DEFAULT_PAGE_SIZE), 1):
            assert answer == full[consumed - 1]
            ahead.append(counter["rows"] - consumed)
        stream.close()
        observed["stream_ahead"] = max(ahead)
        oracle = naive_answers(parse(QUERY), db.structure)
        assert sorted(full) == sorted(oracle)
    return observed


@pytest.mark.parametrize("front", ["serial", "sharded"])
def test_pulls_enumerate_only_what_they_return(front, enumerated):
    small, large = (costs(front, n, enumerated) for n in SIZES)
    assert small == large, "a bounded pull must cost the same at n and 4n"
    assert small[("page", 0, 1)] == 1
    for index, size in PAGES:
        assert 0 < small[("page", index, size)] <= (index + 1) * size
    for limit in LIMITS:
        assert small[("limit", limit)] <= limit
    assert 0 <= small["stream_ahead"] <= DEFAULT_PAGE_SIZE


@pytest.mark.parametrize("front", ["serial", "sharded"])
def test_first_streamed_answer_enumerates_one_row(front, enumerated):
    with open_database(front, SIZES[0]) as db:
        stream = query(db, front).answers().stream()
        _, rows = measure(enumerated, lambda: next(stream))
        stream.close()
    assert rows == 1


CURSOR_PAGE = 256


def first_page_costs(n, counter, submitted):
    """Rows enumerated and work units submitted by a first 256-row page
    under ``auto``: through the handle, and through the qlang stream a
    served cursor reads."""
    observed = {}
    with Database(random_colored_graph(n, max_degree=3, seed=5), workers=2) as db:
        q = db.query(QUERY)
        assert q.explain().backend == "process"
        full = q.answers(limit=CURSOR_PAGE + 1).all()
        handle = q.answers()
        page, rows = measure(counter, lambda: handle.page(0, CURSOR_PAGE))
        assert page == full[:CURSOR_PAGE]
        assert handle.backend_used == "serial"
        handle.cancel()
        observed["page"] = (rows, len(submitted))
        compiled = db.query(f"SELECT x, y WHERE {QUERY}")
        stream = compiled.stream()
        page, rows = measure(counter, lambda: list(islice(stream, CURSOR_PAGE)))
        stream.close()
        assert page == full[:CURSOR_PAGE]
        assert compiled.backend_used == "serial"
        observed["cursor"] = (rows, len(submitted))
    return observed


def test_auto_first_page_enumerates_only_its_rows(enumerated, monkeypatch):
    monkeypatch.setattr(
        executor, "choose_execution_mode", lambda *args, **kwargs: "process"
    )
    submitted = []
    submit = WorkerPool.submit

    def counting(self, *args):
        submitted.append(args)
        return submit(self, *args)

    monkeypatch.setattr(WorkerPool, "submit", counting)
    small, large = (first_page_costs(n, enumerated, submitted) for n in SIZES)
    assert small == large, "a first page must cost the same at n and 4n"
    assert small == {"page": (CURSOR_PAGE, 0), "cursor": (CURSOR_PAGE, 0)}
