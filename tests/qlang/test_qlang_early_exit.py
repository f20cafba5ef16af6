"""The LIMIT-k fusion contract: a pushed limit *stops* enumeration.

Observable evidence, not timing: in process mode the columnar
transport's :class:`~repro.engine.transport.TransferStats` counts every
row the parent actually decoded, so ``LIMIT k`` must touch at most
``k`` plus one chunk's worth of rows — never the full answer set.
Compiler-level checks pin *when* the pushdown applies (a reordering
stage in between forfeits it).
"""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.qlang import compile_select, parse_select
from repro.session import Database
from repro.structures.random_gen import random_colored_graph

# ~60x60 candidate pairs per color split: thousands of answers, so a
# truncation-instead-of-early-stop bug is unmissable in the stats.
GRAPH = random_colored_graph(120, max_degree=4, seed=3)
STATEMENT = "SELECT x, y WHERE B(x) & R(y) & ~E(x,y) LIMIT {k}"


class TestPushdown:
    def test_limit_alone_is_pushed(self):
        with Database(GRAPH) as db:
            compiled = db.query(STATEMENT.format(k=10))
            stages = {s.name: s.detail for s in compiled.explain().stages}
            assert "pushed into enumeration" in stages["limit"]

    def test_pushed_limit_explains_the_mode_it_runs(self, monkeypatch):
        # With auto forced toward process, only the serial head (a limit
        # within the first chunk never leaves the caller) decides; the
        # explained plan must match the run.
        from repro.engine import executor

        monkeypatch.setattr(
            executor, "choose_execution_mode", lambda *args, **kwargs: "process"
        )
        with Database(GRAPH, workers=2) as db:
            compiled = db.query(STATEMENT.format(k=10))
            assert compiled.explain().inner.backend == "serial"
            assert compiled.explain().inner.head_rows is None
            assert len(compiled.all()) == 10
            assert compiled.backend_used == "serial"
            assert compiled.transport_stats.chunks == 0
            assert compiled.query.explain().backend == "process"
            assert compiled.query.explain().head_rows is not None

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT x, y WHERE B(x) & R(y) ORDER BY y LIMIT 10",
            "SELECT x, COUNT(*) WHERE B(x) & R(y) GROUP BY x LIMIT 10",
        ],
    )
    def test_reordering_stage_forfeits_pushdown(self, text):
        with Database(GRAPH) as db:
            compiled = db.query(text)
            stages = {s.name: s.detail for s in compiled.explain().stages}
            assert "applied after" in stages["limit"]


class TestProcessModeTouchesOnlyAPrefix:
    @pytest.mark.parametrize("k", [1, 10, 64])
    def test_decoded_rows_bounded_by_k_plus_one_chunk(self, k):
        chunk_rows = 32
        with Database(GRAPH, workers=2) as db:
            select = parse_select(STATEMENT.format(k=k))
            compiled = compile_select(
                select, db, backend="process", chunk_rows=chunk_rows
            )
            rows = compiled.all()
            assert len(rows) == k
            stats = compiled.transport_stats
            assert compiled.backend_used == "process"
            assert stats is not None and stats.rows >= k
            assert stats.rows <= k + chunk_rows, (
                f"LIMIT {k} decoded {stats.rows} rows "
                f"(chunk_rows={chunk_rows}): enumeration did not stop"
            )

    def test_full_run_decodes_everything(self):
        # Control: without LIMIT the same statement decodes the whole
        # answer set, proving the bound above is not vacuous.
        with Database(GRAPH, workers=2) as db:
            select = parse_select(
                "SELECT x, y WHERE B(x) & R(y) & ~E(x,y)"
            )
            compiled = compile_select(
                select, db, backend="process", chunk_rows=32
            )
            rows = compiled.all()
            assert len(rows) > 1000
            assert compiled.transport_stats.rows == len(rows)


class TestCompilerValidation:
    @pytest.mark.parametrize(
        "text, match",
        [
            ("SELECT z WHERE B(x)", "not a free variable"),
            ("SELECT x WHERE B(x) GROUP BY y", "GROUP BY variable"),
            ("SELECT x, y WHERE E(x,y) GROUP BY x", "must appear in"),
            ("SELECT x, COUNT(*) WHERE B(x)", "requires GROUP BY"),
            ("SELECT COUNT(*) WHERE B(x) ORDER BY x", "ORDER BY"),
            ("SELECT x WHERE B(x) ORDER BY w", "not a free variable"),
            (
                "SELECT x, COUNT(*) WHERE E(x,y) GROUP BY x ORDER BY y",
                "not an output column",
            ),
        ],
    )
    def test_rejects(self, text, match):
        with Database(GRAPH) as db:
            with pytest.raises(QueryError, match=match):
                db.query(text)
