"""Tests for the snapshot + write-ahead-log durability layer.

The load-bearing property is the crash-safety contract: kill the process
at *any byte* of the WAL — which is now a sequence of rotated segments,
not one file — and reopening restores exactly the acknowledged prefix of
commits — fingerprint- and answer-identical to an in-memory oracle that
applied the same prefix.  The Hypothesis differential at the bottom
proves it by truncating the concatenated log at arbitrary offsets
(including mid-record, i.e. torn writes, and mid-segment-boundary) and
comparing the recovered database against a replayed copy of the seed.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DurabilityError, DurabilityWarning
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.session import Database
from repro.storage.wal import (
    MANIFEST_NAME,
    WAL_NAME,
    DurableStore,
    WalRecord,
    segment_name,
)
from repro.structures.random_gen import random_colored_graph
from repro.structures.signature import Signature
from repro.structures.structure import Structure
from repro.util.faults import InjectedCrash, inject

EXAMPLE = "B(x) & R(y) & ~E(x,y)"


def small_structure():
    structure = Structure(Signature.of(E=2, B=1, R=1), range(6))
    structure.add_fact("B", 0)
    structure.add_fact("R", 2)
    structure.add_fact("E", 0, 2)
    structure.add_fact("E", 2, 0)
    return structure


def wal_bytes_of(store: DurableStore) -> bytes:
    """The store's WAL as one byte string (segments in replay order)."""
    data = b""
    for path in store.wal_paths():
        with open(path, "rb") as handle:
            data += handle.read()
    return data


class TestWalRecord:
    def test_round_trip(self):
        record = WalRecord(
            version_before=3,
            version_after=5,
            generation=1,
            ops=((True, "E", (0, 1)), (False, "B", (2,))),
        )
        line = record.to_line()
        assert line.endswith("\n")
        assert WalRecord.from_line(line) == record

    def test_tuple_elements_round_trip(self):
        record = WalRecord(0, 1, 0, ((True, "E", ((0, 1), (2, 3))),))
        restored = WalRecord.from_line(record.to_line())
        assert restored.ops == record.ops
        assert isinstance(restored.ops[0][2][0], tuple)

    def test_crc_rejects_tampering(self):
        line = WalRecord(0, 1, 0, ((True, "B", (4,)),)).to_line()
        payload = json.loads(line)
        payload["ops"] = [[1, "B", [5]]]  # flip the element, keep the CRC
        assert WalRecord.from_line(json.dumps(payload)) is None

    def test_garbage_lines_are_torn(self):
        assert WalRecord.from_line("not json\n") is None
        assert WalRecord.from_line("[1, 2, 3]\n") is None
        assert WalRecord.from_line('{"b": 0}\n') is None
        # A valid prefix of a record (torn mid-write) must not parse.
        line = WalRecord(0, 1, 0, ((True, "B", (4,)),)).to_line()
        assert WalRecord.from_line(line[: len(line) // 2]) is None


class TestDurableStore:
    def test_initialize_and_restore(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        assert not store.exists()
        structure = small_structure()
        result = store.initialize(structure)
        assert store.exists()
        assert result.fingerprint == structure.content_fingerprint()
        restored = store.restore()
        assert restored.structure.content_fingerprint() == result.fingerprint
        assert restored.records == ()
        assert restored.truncated_bytes == 0

    def test_initialize_twice_refuses(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        store.initialize(small_structure())
        with pytest.raises(DurabilityError, match="already holds"):
            store.initialize(small_structure())

    def test_append_then_restore_replays(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        store.initialize(small_structure())
        record = WalRecord(0, 1, 0, ((True, "B", (1,)),))
        store.append(record)
        store.close()
        restored = DurableStore(tmp_path / "db").restore()
        assert restored.records == (record,)

    def test_torn_tail_is_truncated(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        store.initialize(small_structure())
        store.append(WalRecord(0, 1, 0, ((True, "B", (1,)),)))
        store.close()
        wal = tmp_path / "db" / segment_name(1)
        intact = wal.stat().st_size
        with open(wal, "ab") as handle:
            handle.write(b'{"b": 99, "v": 100, "torn')
        restored = DurableStore(tmp_path / "db").restore()
        assert len(restored.records) == 1
        assert restored.truncated_bytes > 0
        # The torn suffix is physically gone: appends restart on a
        # record boundary.
        assert wal.stat().st_size == intact

    def test_checkpoint_retires_segments_and_rotates_snapshot(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        structure = small_structure()
        store.initialize(structure)
        structure.add_fact("B", 1)
        store.append(
            WalRecord(structure.version - 1, structure.version, 0,
                      ((True, "B", (1,)),))
        )
        result = store.checkpoint(structure, ())
        assert result.wal_records_retired == 1
        assert result.wal_segments_retired == 1
        assert store.wal_paths() == []
        names = sorted(os.listdir(tmp_path / "db"))
        # Exactly one snapshot file remains: the superseded one (and
        # every WAL segment) was removed.
        assert names == [MANIFEST_NAME, f"snapshot-{structure.version}.struct"]

    def test_corrupt_snapshot_is_refused(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        result = store.initialize(small_structure())
        snapshot = tmp_path / "db" / f"snapshot-{result.version}.struct"
        text = snapshot.read_text()
        snapshot.write_text(text + "B 3\n")  # an extra fact: fingerprint drifts
        with pytest.raises(DurabilityError, match="fingerprint"):
            DurableStore(tmp_path / "db").restore()

    def test_unsupported_format_is_refused(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        store.initialize(small_structure())
        manifest_path = tmp_path / "db" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DurabilityError, match="format"):
            DurableStore(tmp_path / "db").restore()

    def test_unpicklable_warm_entry_warns_and_degrades(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        structure = small_structure()
        with pytest.warns(DurabilityWarning, match="warm spill"):
            result = store.checkpoint(
                structure,
                warm_entries=[("key", None, lambda: None)],
            )
        # Durability is intact; only the accelerator was dropped.
        assert result.warm_entries == 0
        assert not (tmp_path / "db" / f"warm-{result.version}.pickle").exists()
        restored = DurableStore(tmp_path / "db").restore()
        assert restored.warm_structure is None
        assert restored.warm_entries == ()
        assert (
            restored.structure.content_fingerprint() == result.fingerprint
        )

    def test_corrupt_warm_spill_never_blocks_recovery(self, tmp_path):
        path = tmp_path / "db"
        with Database.open(path, structure=small_structure()) as db:
            db.query(EXAMPLE)
            result = db.checkpoint()
            assert result.warm_entries >= 1
        warm = path / f"warm-{result.version}.pickle"
        warm.write_bytes(b"\x80\x04 definitely not a bundle")
        with pytest.warns(DurabilityWarning, match="warm spill"):
            restored = DurableStore(path).restore()
        assert restored.warm_structure is None
        assert restored.warm_entries == ()
        assert restored.structure.content_fingerprint() == result.fingerprint

    @pytest.mark.parametrize("old_format", [1, 2, 3, 4, 5])
    def test_other_format_spill_is_ignored_like_a_stale_one(
        self, tmp_path, old_format
    ):
        import pickle
        import warnings

        path = tmp_path / "db"
        with Database.open(path, structure=small_structure()) as db:
            db.query(EXAMPLE)
            result = db.checkpoint()
            assert result.warm_entries >= 1
        warm = path / f"warm-{result.version}.pickle"
        bundle = pickle.loads(warm.read_bytes())
        bundle["format"] = old_format
        if 2 <= old_format <= 4:
            # Formats 2-4 keyed each blob by (normalized, order, eps);
            # format 5 had today's keys but pickled adjacency sets.
            bundle["entries"] = [
                [normalized, order_names, 0.5, blob]
                for normalized, order_names, blob in bundle["entries"]
            ]
        warm.write_bytes(pickle.dumps(bundle))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Database.open(path) as db:
                query = db.query(EXAMPLE)
                assert db.stats()["misses"] == 1, "plans rebuild cold"
                formula = parse(EXAMPLE)
                want = sorted(
                    naive_answers(formula, db.structure, order=sorted(formula.free))
                )
                assert sorted(query.answers().all()) == want


class TestWalSegments:
    """Satellite: segment rotation bounds every WAL file."""

    def records(self, count):
        return [
            WalRecord(v, v + 1, 0, ((True, "B", (v % 6,)),))
            for v in range(count)
        ]

    def test_appends_roll_segments(self, tmp_path):
        store = DurableStore(tmp_path / "db", segment_bytes=128)
        store.initialize(small_structure())
        for record in self.records(10):
            store.append(record)
        indices = store.segment_indices()
        assert len(indices) > 1
        assert indices == sorted(indices)
        # No file outgrew the bound by more than one record.
        for index in indices[:-1]:
            assert os.path.getsize(
                tmp_path / "db" / segment_name(index)
            ) <= 128 + 128

    def test_segmented_restore_replays_in_order(self, tmp_path):
        store = DurableStore(tmp_path / "db", segment_bytes=128)
        store.initialize(small_structure())
        records = self.records(10)
        for record in records:
            store.append(record)
        store.close()
        restored = DurableStore(tmp_path / "db").restore()
        assert list(restored.records) == records

    def test_stats_count_segments(self, tmp_path):
        store = DurableStore(tmp_path / "db", segment_bytes=128)
        store.initialize(small_structure())
        assert store.stats()["wal_segments"] == 0
        for record in self.records(10):
            store.append(record)
        stats = store.stats()
        assert stats["wal_records"] == 10
        assert stats["wal_segments"] == len(store.segment_indices()) > 1
        assert stats["wal_bytes"] == len(wal_bytes_of(store))
        store.checkpoint(small_structure(), ())
        assert store.stats()["wal_segments"] == 0

    def test_torn_mid_segment_drops_later_segments(self, tmp_path):
        store = DurableStore(tmp_path / "db", segment_bytes=128)
        store.initialize(small_structure())
        records = self.records(10)
        for record in records:
            store.append(record)
        store.close()
        indices = store.segment_indices()
        assert len(indices) >= 3
        # Tear the *middle* segment: everything after the tear was, by
        # the fsync-before-acknowledge contract, never acknowledged.
        victim = tmp_path / "db" / segment_name(indices[1])
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) - 7])
        survivors = []
        offset = 0
        cut = wal_bytes_of(DurableStore(tmp_path / "db"))
        while offset < len(cut):
            newline = cut.find(b"\n", offset)
            if newline < 0:
                break
            record = WalRecord.from_line(cut[offset:newline + 1].decode())
            if record is None:
                break
            survivors.append(record)
            offset = newline + 1
        restored = DurableStore(tmp_path / "db").restore()
        assert list(restored.records) == survivors
        assert len(restored.records) < len(records)
        # Later segments are physically gone; appends resume cleanly.
        after = DurableStore(tmp_path / "db")
        assert after.segment_indices() == indices[:2]

    def test_legacy_single_file_wal_still_reads(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        store.initialize(small_structure())
        legacy = [WalRecord(0, 1, 0, ((True, "B", (1,)),)),
                  WalRecord(1, 2, 0, ((True, "R", (3,)),))]
        with open(tmp_path / "db" / WAL_NAME, "w") as handle:
            for record in legacy:
                handle.write(record.to_line())
        fresh = DurableStore(tmp_path / "db")
        # New appends go to a numbered segment; the legacy file reads first.
        extra = WalRecord(2, 3, 0, ((True, "B", (4,)),))
        fresh.append(extra)
        fresh.close()
        restored = DurableStore(tmp_path / "db").restore()
        assert list(restored.records) == legacy + [extra]

    def test_duplicated_record_is_skipped_on_reopen(self, tmp_path):
        # A replication-style anomaly: the same record shipped (or
        # fsync'd) twice.  Replay skips it by version interval.
        path = tmp_path / "db"
        with Database.open(path, structure=small_structure(), sync=False) as db:
            db.insert_fact("B", 1)
            db.insert_fact("R", 3)
            fingerprint = db.structure_fingerprint
            version = db.version
        store = DurableStore(path)
        lines = wal_bytes_of(store).decode().splitlines(keepends=True)
        assert len(lines) == 2
        with open(store.wal_paths()[-1], "w") as handle:
            handle.write(lines[0])
            handle.write(lines[0])  # the same acknowledged record, twice
            handle.write(lines[1])
            handle.write(lines[1])
        with Database.open(path) as db:
            assert db.version == version
            assert db.structure_fingerprint == fingerprint
        # A genuine *gap*, though, is a hard error — skipping it would
        # silently diverge from the leader.
        store = DurableStore(path)
        lines = wal_bytes_of(store).decode().splitlines(keepends=True)
        with open(store.wal_paths()[-1], "w") as handle:
            handle.write(lines[-1])  # v1->v2 with no v0->v1 before it
        with pytest.raises(DurabilityError):
            Database.open(path).close()


class TestIncrementalCheckpoint:
    """Satellite: clean plans reuse their spill blob across checkpoints."""

    def test_clean_plans_reuse_blobs(self, tmp_path):
        with Database.open(tmp_path / "db", structure=small_structure()) as db:
            db.query(EXAMPLE).count()
            db.query("B(x)").count()
            first = db.checkpoint()
            assert first.warm_entries == 2
            assert first.warm_reused == 0
            assert db.stats()["dirty_plans"] == 0
            # Nothing changed: the next checkpoint re-pickles nothing.
            second = db.checkpoint()
            assert second.warm_entries == 2
            assert second.warm_reused == 2

    def test_reused_blobs_restore_correct_answers(self, tmp_path):
        path = tmp_path / "db"
        with Database.open(path, structure=small_structure()) as db:
            expected = db.query(EXAMPLE).answers().all()
            db.checkpoint()
            db.checkpoint()  # second spill is 100% reused blobs
        with Database.open(path) as db:
            hits_before = db.stats()["hits"]
            assert db.query(EXAMPLE).answers().all() == expected
            assert db.stats()["hits"] > hits_before  # warm, not rebuilt

    def test_commit_dirties_refreshed_plans(self, tmp_path):
        with Database.open(tmp_path / "db", structure=small_structure()) as db:
            db.query(EXAMPLE).count()
            db.checkpoint()
            db.insert_fact("B", 1)  # graph surgery around element 1
            assert db.stats()["dirty_plans"] >= 1
            result = db.checkpoint()
            assert result.warm_reused < result.warm_entries or (
                result.warm_entries == 0
            )
            # And the re-spilled plan still answers correctly cold.
        with Database.open(tmp_path / "db") as db:
            formula = parse(EXAMPLE)
            want = sorted(
                naive_answers(formula, db.structure,
                              order=sorted(formula.free))
            )
            assert sorted(db.query(EXAMPLE).answers().all()) == want

    def test_commit_no_plan_sees_keeps_every_blob(self, tmp_path):
        # G occurs in none of the three plans: the flip rewrites no node,
        # colour or edge, so the next checkpoint reuses every blob.
        queries = (EXAMPLE, "B(x) & R(y) & E(x,y)", "B(x) & exists z. (R(z) & E(x,z))")
        structure = random_colored_graph(40, max_degree=3, colors=("B", "R", "G"), seed=2)
        path = tmp_path / "db"
        with Database.open(path, structure=structure.copy()) as db:
            for text in queries:
                db.query(text).count()
            assert db.checkpoint().warm_entries == 3
            element = next(e for e in db.structure.domain if db.structure.neighbors(e))
            db.apply([(not db.structure.has_fact("G", element), "G", (element,))])
            assert db.stats()["dirty_plans"] == 0
            result = db.checkpoint()
            assert result.warm_entries == result.warm_reused == 3
        with Database.open(path) as db:
            hits_before = db.stats()["hits"]
            for text in queries:
                formula = parse(text)
                want = sorted(
                    naive_answers(formula, db.structure, order=sorted(formula.free))
                )
                assert sorted(db.query(text).answers().all()) == want
            assert db.stats()["hits"] - hits_before == 3  # warm, not rebuilt


class TestCrashPoints:
    """The named fault-injection points in append and checkpoint."""

    def test_torn_append_recovers_previous_state(self, tmp_path):
        path = tmp_path / "db"
        db = Database.open(path, structure=small_structure(), sync=False)
        db.insert_fact("B", 1)
        fingerprint = db.structure_fingerprint
        version = db.version
        with inject({"wal.append.torn": 1}):
            with pytest.raises(DurabilityError):
                db.insert_fact("R", 3)
        db.close()
        # The torn half-record is on disk; recovery truncates it and the
        # store reopens at the last *acknowledged* commit.
        with Database.open(path) as recovered:
            assert recovered.version == version
            assert recovered.structure_fingerprint == fingerprint

    def test_crash_before_append_loses_nothing_durable(self, tmp_path):
        path = tmp_path / "db"
        db = Database.open(path, structure=small_structure(), sync=False)
        version = db.version
        with inject({"wal.append.before": 1}):
            with pytest.raises(DurabilityError):
                db.insert_fact("B", 1)
        db.close()
        with Database.open(path) as recovered:
            assert recovered.version == version

    def test_crash_between_manifest_and_reset_is_harmless(self, tmp_path):
        path = tmp_path / "db"
        db = Database.open(path, structure=small_structure(), sync=False)
        db.insert_fact("B", 1)
        db.insert_fact("R", 3)
        fingerprint = db.structure_fingerprint
        version = db.version
        with inject({"checkpoint.after-manifest": 1}):
            with pytest.raises(InjectedCrash):
                db.checkpoint()
        db.close()
        # The manifest moved but the WAL was not reset: recovery must
        # skip the pre-snapshot records by version interval.
        with Database.open(path) as recovered:
            assert recovered.version == version
            assert recovered.structure_fingerprint == fingerprint

    def test_crash_after_snapshot_write_keeps_old_manifest(self, tmp_path):
        path = tmp_path / "db"
        db = Database.open(path, structure=small_structure(), sync=False)
        db.insert_fact("B", 1)
        fingerprint = db.structure_fingerprint
        with inject({"checkpoint.after-snapshot": 1}):
            with pytest.raises(InjectedCrash):
                db.checkpoint()
        db.close()
        with Database.open(path) as recovered:
            assert recovered.structure_fingerprint == fingerprint


class TestReadOnlyTail:
    """records_since / load_snapshot never mutate a (live) store."""

    def test_records_since_filters_and_limits(self, tmp_path):
        store = DurableStore(tmp_path / "db", segment_bytes=128)
        store.initialize(small_structure())
        records = [
            WalRecord(v, v + 1, 0, ((True, "B", (v % 6,)),))
            for v in range(8)
        ]
        for record in records:
            store.append(record)
        tail, more = store.records_since(3)
        assert [r.version_after for r in tail] == [4, 5, 6, 7, 8]
        assert more is False
        tail, more = store.records_since(0, limit=2)
        assert [r.version_after for r in tail] == [1, 2]
        assert more is True

    def test_records_since_does_not_truncate_torn_tails(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        store.initialize(small_structure())
        store.append(WalRecord(0, 1, 0, ((True, "B", (1,)),)))
        store.close()
        wal = tmp_path / "db" / segment_name(1)
        with open(wal, "ab") as handle:
            handle.write(b'{"torn')  # an in-flight append
        size = wal.stat().st_size
        reader = DurableStore(tmp_path / "db")
        tail, _ = reader.records_since(0)
        assert len(tail) == 1
        assert wal.stat().st_size == size  # untouched

    def test_load_snapshot_is_read_only(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        structure = small_structure()
        store.initialize(structure)
        store.append(WalRecord(0, 1, 0, ((True, "B", (1,)),)))
        store.close()
        before = sorted(os.listdir(tmp_path / "db"))
        reader = DurableStore(tmp_path / "db")
        loaded, manifest = reader.load_snapshot()
        assert loaded.content_fingerprint() == structure.content_fingerprint()
        assert manifest["version"] == structure.version
        assert reader.manifest_version() == structure.version
        assert sorted(os.listdir(tmp_path / "db")) == before


class TestWalStats:
    def test_fresh_store_reports_zero(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        store.initialize(small_structure())
        stats = store.stats()
        assert stats["wal_records"] == 0
        assert stats["wal_bytes"] == 0
        assert stats["wal_segments"] == 0
        assert stats["path"] == store.path

    def test_appends_accumulate(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        store.initialize(small_structure())
        store.append(WalRecord(0, 1, 0, ((True, "B", (1,)),)))
        store.append(WalRecord(1, 2, 0, ((True, "R", (2,)),)))
        stats = store.stats()
        assert stats["wal_records"] == 2
        assert stats["wal_bytes"] == os.path.getsize(
            tmp_path / "db" / segment_name(1)
        )
        assert stats["wal_bytes"] > 0
        assert stats["wal_segments"] == 1

    def test_reopened_store_counts_existing_records(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        store.initialize(small_structure())
        store.append(WalRecord(0, 1, 0, ((True, "B", (1,)),)))
        store.close()
        # A cold store must count what is on disk, not start from zero.
        assert DurableStore(tmp_path / "db").stats()["wal_records"] == 1

    def test_checkpoint_retires_and_resets(self, tmp_path):
        store = DurableStore(tmp_path / "db")
        structure = small_structure()
        store.initialize(structure)
        structure.add_fact("B", 1)
        store.append(
            WalRecord(structure.version - 1, structure.version, 0,
                      ((True, "B", (1,)),))
        )
        before = store.stats()
        result = store.checkpoint(structure, ())
        assert result.wal_records_retired == before["wal_records"] == 1
        assert result.wal_bytes_retired == before["wal_bytes"]
        after = store.stats()
        assert after["wal_records"] == 0
        assert after["wal_bytes"] == 0

    def test_database_surfaces_wal_stats(self, tmp_path):
        with Database.open(
            tmp_path / "db", structure=small_structure()
        ) as db:
            assert db.stats()["wal_records"] == 0
            db.insert_fact("B", 1)
            db.insert_fact("R", 3)
            stats = db.stats()
            assert stats["wal_records"] == 2
            assert stats["wal_bytes"] > 0
            assert stats["wal_segments"] == 1
            db.checkpoint()
            assert db.stats()["wal_records"] == 0
            assert db.stats()["wal_segments"] == 0

    def test_memory_database_has_no_wal_stats(self):
        with Database(small_structure()) as db:
            assert "wal_records" not in db.stats()


# -- crash-recovery differential ----------------------------------------


def apply_ops(structure, ops):
    """The oracle's replay: WAL ops are effective by construction."""
    for insert, relation, elements in ops:
        if insert:
            structure.add_fact(relation, *elements)
        else:
            structure.remove_fact(relation, *elements)


def intact_prefix(wal_bytes):
    """The records an arbitrary byte-truncation leaves intact."""
    records = []
    offset = 0
    while offset < len(wal_bytes):
        newline = wal_bytes.find(b"\n", offset)
        if newline < 0:
            break
        record = WalRecord.from_line(wal_bytes[offset : newline + 1].decode())
        if record is None:
            break
        records.append(record)
        offset = newline + 1
    return records


def copy_store_with_cut(live, recovered, cut):
    """Clone a store directory, truncating the concatenated WAL at
    byte ``cut`` — the file holding the cut is truncated, every later
    segment is dropped (a crash can only tear the file being written,
    and later segments postdate it)."""
    os.makedirs(recovered)
    shutil.copy(live / MANIFEST_NAME, recovered / MANIFEST_NAME)
    manifest = json.loads((live / MANIFEST_NAME).read_text())
    shutil.copy(live / manifest["snapshot"], recovered / manifest["snapshot"])
    remaining = cut
    for path in DurableStore(live).wal_paths():
        data = open(path, "rb").read()
        if remaining <= 0:
            break
        keep = data[:remaining]
        (recovered / os.path.basename(path)).write_bytes(keep)
        remaining -= len(data)


@st.composite
def commit_streams(draw):
    """A seed structure plus a few random changesets to commit."""
    seed = draw(st.integers(min_value=0, max_value=50))
    structure = random_colored_graph(12, max_degree=3, seed=seed).copy()
    domain = list(structure.domain)
    commits = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        ops = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            relation = draw(st.sampled_from(["E", "B", "R"]))
            insert = draw(st.booleans())
            if relation == "E":
                elements = (draw(st.sampled_from(domain)),
                            draw(st.sampled_from(domain)))
            else:
                elements = (draw(st.sampled_from(domain)),)
            ops.append(("insert" if insert else "delete", relation, elements))
        commits.append(ops)
    return structure, commits


class TestCrashRecoveryDifferential:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_reopen_at_any_kill_point_matches_oracle(self, data, tmp_path_factory):
        structure, commits = data.draw(commit_streams())
        # Tiny segments force the kill point to land mid-segment-chain
        # in most examples, covering rotation in the recovery path.
        segment_bytes = data.draw(st.sampled_from([96, 256, 4 * 1024 * 1024]))
        base = tmp_path_factory.mktemp("crash")
        live, recovered = base / "live", base / "recovered"

        # Run the commit stream against a durable database ...
        with Database.open(
            live, structure=structure.copy(), sync=False,
            segment_bytes=segment_bytes,
        ) as db:
            for ops in commits:
                db.apply(ops)
        wal_bytes = wal_bytes_of(DurableStore(live))

        # ... and kill it at an arbitrary WAL byte (torn writes and
        # segment boundaries included).
        cut = data.draw(st.integers(min_value=0, max_value=len(wal_bytes)))
        copy_store_with_cut(live, recovered, cut)

        surviving = intact_prefix(wal_bytes[:cut])

        # The oracle applies exactly the surviving acknowledged prefix.
        oracle_structure = DurableStore(recovered).restore().structure.copy()
        for record in surviving:
            apply_ops(oracle_structure, record.ops)

        with Database.open(recovered) as db:
            assert (
                db.structure_fingerprint
                == oracle_structure.content_fingerprint()
            )
            if surviving:
                assert db.version == surviving[-1].version_after
            formula = parse(EXAMPLE)
            want = sorted(
                naive_answers(formula, oracle_structure,
                              order=sorted(formula.free))
            )
            assert sorted(db.query(EXAMPLE).answers().all()) == want
