"""The columnar answer transport: codec units + differential suite.

The transport's contract is exact: for every (backend, chunk size)
configuration the merged answer sequence — set AND order — must be
byte-identical to serial enumeration, including ternary relations,
nested quantifiers, and non-integer domain elements routed through the
intern table.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine import executor
from repro.engine.transport import (
    ColumnarCodec,
    InternTable,
    TransferStats,
    estimate_encoded_bytes,
    width_for,
)
from repro.errors import EngineError
from repro.session import Database
from repro.structures import Signature, Structure
from repro.structures.random_gen import random_colored_graph

# Chunk sizes the differential sweep exercises: degenerate (1), prime &
# misaligned with every answer count (7), and the cost-model default.
CHUNK_SIZES = (1, 7, None)


class TestInternTable:
    def test_roundtrip_ints(self):
        table = InternTable(range(10, 0, -1))
        for ident, element in enumerate(table.elements):
            assert table.id_of(element) == ident
            assert table.element(ident) == element

    def test_handles_arbitrary_hashables(self):
        table = InternTable(["alice", ("pair", 1), 7, frozenset({2})])
        for element in table.elements:
            assert table.element(table.id_of(element)) == element

    def test_id_width_scales_with_domain(self):
        assert InternTable(range(5)).id_width() == 1
        assert InternTable(range(256)).id_width() == 1
        assert InternTable(range(257)).id_width() == 2
        assert InternTable(range(70_000)).id_width() == 4

    def test_pickle_ships_elements_only(self):
        table = InternTable(["x", "y", "z"])
        clone = pickle.loads(pickle.dumps(table))
        assert clone.elements == table.elements
        assert clone.id_of("z") == 2

    def test_width_for_rejects_negative(self):
        with pytest.raises(EngineError):
            width_for(-1)


class TestColumnarCodec:
    def _codec(self, n=300):
        return ColumnarCodec(InternTable(range(n)))

    def test_roundtrip(self):
        codec = self._codec()
        rows = [(1, 2, 3), (1, 5, 299), (0, 0, 0), (298, 1, 2)]
        assert codec.decode(codec.encode(rows)) == rows

    def test_roundtrip_empty(self):
        codec = self._codec()
        assert codec.decode(codec.encode([])) == []

    def test_roundtrip_single_row_and_column(self):
        codec = self._codec()
        assert codec.decode(codec.encode([(7,)])) == [(7,)]

    def test_constant_column_costs_no_per_row_bytes(self):
        codec = self._codec()
        constant = codec.encode([(5, i) for i in range(200)])
        varying = codec.encode([(i, i) for i in range(200)])
        assert len(constant) < len(varying)

    def test_roundtrip_string_elements(self):
        names = [f"user-{i}" for i in range(40)]
        codec = ColumnarCodec(InternTable(names))
        rows = [(names[3], names[39]), (names[0], names[0])]
        assert codec.decode(codec.encode(rows)) == rows

    def test_large_chunk_compresses_below_pickle(self):
        codec = self._codec()
        rows = [(i % 7, (i * 3) % 300, i % 300) for i in range(5000)]
        encoded = codec.encode(rows)
        assert codec.decode(encoded) == rows
        assert len(encoded) * 2 < len(pickle.dumps(rows))

    def test_rejects_unknown_flag(self):
        codec = self._codec()
        with pytest.raises(EngineError):
            codec.decode(b"\x07junk")

    def test_estimate_encoded_bytes_monotone(self):
        small = estimate_encoded_bytes(10, 2, 1, 100)
        large = estimate_encoded_bytes(10_000, 2, 1, 100)
        assert 0 < small < large
        assert estimate_encoded_bytes(0, 2, 1, 100) == 0


class TestTransferStats:
    def test_accumulates(self):
        stats = TransferStats()
        stats.record(100, 10)
        stats.record(50, 5)
        report = stats.as_dict()
        assert report["chunks"] == 2
        assert report["bytes_received"] == 150
        assert report["rows"] == 15
        assert report["first_chunk_at"] <= report["last_chunk_at"]
        assert report["sources"] == {}

    def test_per_source_attribution(self):
        stats = TransferStats()
        stats.record(100, 10, source="b0[0:]")
        stats.record(60, 6, source="b0[0:]")
        stats.record(50, 5, source="b1[0:]")
        stats.note_done("b0[0:]", at=123.0)
        stats.note_done("b1[0:]")
        sources = stats.as_dict()["sources"]
        assert sources["b0[0:]"]["chunks"] == 2
        assert sources["b0[0:]"]["bytes"] == 160
        assert sources["b0[0:]"]["rows"] == 16
        assert sources["b0[0:]"]["done_at"] == 123.0
        assert sources["b0[0:]"]["first_at"] <= sources["b0[0:]"]["last_at"]
        assert sources["b1[0:]"]["done_at"] is not None


def string_domain_structure() -> Structure:
    """A colored graph whose elements are strings (intern-table path)."""
    names = [f"node-{i:02d}" for i in range(18)]
    db = Structure(Signature.of(E=2, B=1, R=1), names)
    for i, name in enumerate(names):
        if i % 2 == 0:
            db.add_fact("B", name)
        if i % 3 == 0:
            db.add_fact("R", name)
        other = names[(i * 5 + 1) % len(names)]
        if other != name:
            db.add_fact("E", name, other)
            db.add_fact("E", other, name)
    return db


def sweep(db: Database, query: str) -> None:
    """Every backend x chunk size must equal serial exactly."""
    serial = db.query(query, backend="serial").answers()
    expected = serial.all()
    expected_count = serial.count()
    for backend in ("serial", "process"):
        for chunk_rows in CHUNK_SIZES:
            answers = db.query(
                query, backend=backend, chunk_rows=chunk_rows
            ).answers()
            label = f"{backend}/chunk={chunk_rows}"
            assert answers.page(0, 3) == expected[:3], label
            assert answers.all() == expected, label
            assert answers.count() == expected_count, label
            if backend == "process":
                assert answers.transport_used == "columnar", label
                if expected:
                    assert answers.transport_stats.rows == len(expected), label
                    assert answers.transport_stats.bytes_received > 0, label
            else:
                assert answers.transport_used == "none", label


class TestTransportDifferential:
    def test_binary_query_all_configs(self, small_colored):
        with Database(small_colored, workers=2) as db:
            sweep(db, "B(x) & R(y) & ~E(x,y)")

    def test_ternary_relation_all_configs(self, ternary_structure):
        with Database(ternary_structure, workers=2) as db:
            sweep(db, "T(x,y,z) & B(x)")

    def test_nested_quantifiers_all_configs(self, small_colored):
        with Database(small_colored, workers=2) as db:
            sweep(db, "exists z. exists w. E(z,w) & B(z) & R(w) & ~E(x,z)")

    def test_string_domain_through_intern_table(self):
        with Database(string_domain_structure(), workers=2) as db:
            sweep(db, "B(x) & R(y) & ~E(x,y)")

    def test_empty_answer_set_all_configs(self, small_colored):
        with Database(small_colored, workers=2) as db:
            sweep(db, "B(x) & R(x) & ~(x = x)")

    def test_stream_prefix_matches_serial(self, small_colored):
        with Database(small_colored, workers=2) as db:
            expected = db.query("B(x) & R(y)", backend="serial").answers().all()
            answers = db.query(
                "B(x) & R(y)", backend="process", chunk_rows=7
            ).answers()
            prefix = []
            for answer in answers.stream():
                prefix.append(answer)
                if len(prefix) == 5:
                    break
            assert prefix == expected[:5]

    def test_pool_accounts_received_bytes(self, small_colored):
        with Database(small_colored, workers=2) as db:
            assert db.pool.bytes_received == 0
            db.query("B(x) & R(y)", backend="process").answers().all()
            assert db.pool.bytes_received > 0
            assert db.stats()["pool_bytes_received"] == db.pool.bytes_received

    def test_serial_wire_chunks_are_not_pool_bytes(self):
        # A serial encoded drain encodes every chunk in this process:
        # nothing comes off the pool, so nothing is counted as received.
        structure = random_colored_graph(60, max_degree=3, seed=2)
        with Database(structure, workers=2) as db:
            encoded = db.query("B(x) & R(y)", backend="serial").answers_encoded()
            chunks = list(encoded.chunks())
            assert chunks and encoded.transport_stats.bytes_received > 0
            assert db.pool.bytes_received == 0
            assert db.stats()["pool_bytes_received"] == 0


class TestExplainReportsTransport:
    def test_process_plan_reports_columnar(self, small_colored):
        with Database(small_colored, workers=2) as db:
            plan = db.query("B(x) & R(y)", backend="process").explain()
            assert plan.transport == "columnar"
            assert plan.chunk_rows >= 1
            assert plan.transfer_bytes > 0
            assert len(plan.transfer_costs) == plan.branch_count
            text = plan.describe()
            assert "transport: columnar" in text
            assert f"chunk_rows: {plan.chunk_rows}" in text

    def test_transfer_costs_are_the_ones_the_decision_weighed(self, monkeypatch):
        weighed = []
        choose = executor.choose_execution_mode

        def recording(works, workers, **kwargs):
            weighed.append(kwargs["transfer_work"])
            return choose(works, workers, **kwargs)

        monkeypatch.setattr(executor, "choose_execution_mode", recording)
        structure = random_colored_graph(2000, max_degree=4, seed=1)
        with Database(structure, workers=2) as db:
            plan = db.query("B(x) & R(y) & ~E(x,y)").explain()
        assert plan.backend == "process"
        assert weighed and sum(plan.transfer_costs) == weighed[-1]

    def test_in_process_plan_reports_zero_copy(self, small_colored):
        with Database(small_colored, workers=2) as db:
            plan = db.query("B(x) & R(y)", backend="serial").explain()
            assert plan.transport == "none"
            assert plan.transfer_bytes == 0
            assert "zero-copy" in plan.describe()

    def test_chunk_rows_override_flows_to_plan(self, small_colored):
        with Database(small_colored, workers=2) as db:
            plan = db.query(
                "B(x) & R(y)", backend="process", chunk_rows=123
            ).explain()
            assert plan.chunk_rows == 123

    def test_cli_explain_prints_transport(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "query",
                    "-w",
                    "colored:n=24,d=3",
                    "-q",
                    "B(x) & R(y) & ~E(x,y)",
                    "--backend",
                    "process",
                    "--explain",
                    "--count",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "transport: columnar" in out
        assert "chunk_rows:" in out


class TestWorkerSpecCarriesIntern:
    def test_rebuild_spec_ships_built_intern_table(self, small_colored):
        from repro.core.pipeline import Pipeline
        from repro.fo.parser import parse

        pipeline = Pipeline(small_colored, parse("B(x) & R(y)"))
        # Lazy: paths that never move answers ship None...
        assert pipeline.rebuild_spec()[4] is None
        table = pipeline.intern_table
        # ...but once the transport built it, every spec carries it.
        spec = pipeline.rebuild_spec()
        assert spec[4] is table
        rebuilt = Pipeline(
            spec[0], spec[1], order=spec[2], budget=spec[3], intern=spec[4]
        )
        assert rebuilt.intern_table is table

    def test_worker_side_table_matches_parent_without_spec(self, small_colored):
        from repro.core.pipeline import Pipeline
        from repro.fo.parser import parse

        parent = Pipeline(small_colored, parse("B(x) & R(y)"))
        worker = Pipeline(small_colored, parse("B(x) & R(y)"), intern=None)
        assert worker.intern_table.elements == parent.intern_table.elements
