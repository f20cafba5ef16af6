"""Tests for the plain-text structure format."""

import time

import pytest

from repro.errors import ReproError
from repro.structures.random_gen import random_colored_graph, random_structure
from repro.structures.serialize import dumps, load_file, loads, save_file
from repro.structures.signature import Signature
from repro.structures.structure import Structure


@pytest.fixture
def db():
    structure = Structure(Signature.of(E=2, B=1), range(4))
    structure.add_fact("E", 0, 1)
    structure.add_fact("E", 2, 3)
    structure.add_fact("B", 0)
    return structure


class TestRoundTrip:
    def test_basic(self, db):
        restored = loads(dumps(db))
        assert restored.signature == db.signature
        assert list(restored.domain) == list(db.domain)
        for name in db.relation_names():
            assert restored.facts(name) == db.facts(name)

    def test_random_colored_graph(self):
        db = random_colored_graph(25, max_degree=3, seed=9)
        restored = loads(dumps(db))
        assert restored.facts("E") == db.facts("E")
        assert restored.facts("B") == db.facts("B")
        assert restored.degree == db.degree

    def test_ternary(self):
        db = random_structure(Signature.of(T=3), 10, seed=4)
        restored = loads(dumps(db))
        assert restored.facts("T") == db.facts("T")

    def test_string_elements(self):
        db = Structure(Signature.of(E=2), ["alice", "bob"])
        db.add_fact("E", "alice", "bob")
        restored = loads(dumps(db))
        assert restored.has_fact("E", "alice", "bob")

    def test_file_roundtrip(self, db, tmp_path):
        path = tmp_path / "db.txt"
        save_file(db, path)
        restored = load_file(path)
        assert restored.facts("E") == db.facts("E")

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a comment\n"
            "signature E/2\n"
            "\n"
            "domain 0 1\n"
            "# another\n"
            "E 0 1\n"
        )
        restored = loads(text)
        assert restored.has_fact("E", 0, 1)

    def test_facts_before_domain_line_are_deferred(self):
        text = "signature E/2\nE 0 1\ndomain 0 1\n"
        assert loads(text).has_fact("E", 0, 1)


class TestCost:
    def test_dumps_of_fresh_structure_is_linear(self):
        """Regression: ``Structure.order`` used to rebuild its
        ``DomainOrder`` on every access while the adjacency caches were
        dirty, so ``dumps`` of a fresh, copied or forked structure was
        quadratic (22 s against 0.1 s for ``loads`` at n=8000)."""
        fresh = random_colored_graph(8000)
        dumps_s, loads_s = [], []
        for _ in range(3):
            started = time.perf_counter()
            text = dumps(fresh)
            dumps_s.append(time.perf_counter() - started)
            started = time.perf_counter()
            fresh = loads(text)  # fresh again: adjacency never built
            loads_s.append(time.perf_counter() - started)
        assert min(dumps_s) <= 3 * min(loads_s)


class TestErrors:
    def test_missing_header(self):
        with pytest.raises(ReproError):
            loads("E 0 1\n")

    def test_domain_before_signature(self):
        with pytest.raises(ReproError):
            loads("domain 0 1\nsignature E/2\n")

    def test_bad_signature_entry(self):
        with pytest.raises(ReproError):
            loads("signature E/two\ndomain 0\n")

    def test_unknown_relation(self):
        with pytest.raises(ReproError):
            loads("signature E/2\ndomain 0 1\nF 0 1\n")

    def test_unserializable_element(self):
        db = Structure(Signature.of(B=1), ["has space"])
        with pytest.raises(ReproError):
            dumps(db)


class TestLineageDirectives:
    def test_round_trip(self):
        db = random_colored_graph(15, max_degree=3, seed=3)
        db.add_fact("B", next(e for e in db.domain if not db.has_fact("B", e)))
        version, generation = db.version, db.generation
        text = dumps(db)
        assert f"#! version {version}" in text
        assert f"#! generation {generation}" in text
        restored = loads(text)
        assert restored.version == version
        assert restored.generation == generation

    def test_lineage_is_authoritative_over_the_recount(self):
        # copy() resets the version counter without clearing facts, so
        # the persisted version can be *below* the fact count a loader
        # re-adds; the directive must win either way.
        db = random_colored_graph(15, max_degree=3, seed=3).copy()
        assert db.version == 0
        restored = loads(dumps(db))
        assert restored.version == 0
        assert restored.facts("E") == db.facts("E")

    def test_forked_generation_round_trips(self):
        db = random_colored_graph(10, max_degree=2, seed=5)
        fork = db.fork()
        assert fork.generation == db.generation + 1
        restored = loads(dumps(fork))
        assert restored.generation == fork.generation

    def test_pre_directive_files_still_load(self, db):
        # Files written before the lineage directives existed have no
        # "#!" lines: they load with the natural re-counted lineage.
        text = "\n".join(
            line for line in dumps(db).splitlines()
            if not line.startswith("#!")
        ) + "\n"
        restored = loads(text)
        assert restored.facts("E") == db.facts("E")
        assert restored.generation == 0

    def test_unknown_directives_are_skipped(self, db):
        text = dumps(db).replace(
            "#! version", "#! flavor vanilla\n#! version"
        )
        restored = loads(text)
        assert restored.version == db.version
        assert restored.facts("E") == db.facts("E")
