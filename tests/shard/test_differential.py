"""Sharded scatter-gather vs unsharded serial: byte-identical, always.

The subsystem's acceptance contract: for every (structure, query) pair —
fixed corpus, ternary signatures, nested quantifiers, and Hypothesis
random multi-component structures — a :class:`ShardedDatabase` must
produce *byte-identical* enumeration order, exact-equal counts, and
identical test verdicts versus an unsharded serial :class:`Database`,
for every shard count.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.fo.syntax import CountCmp, TotalCount, Var
from repro.session import Database
from repro.shard import ShardedDatabase, shard_blockers

from strategies import (
    disconnected_structures,
    formulas,
    rejecting_unsupported,
)
from test_partition import islands

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CORPUS = [
    "B(x)",
    "B(x) & R(y) & ~E(x,y)",                     # Example 2.3
    "B(x) & R(y) & (E(x,y) | E(y,x))",
    "dist(x,y) > 2 & B(x) & R(y)",
    "exists z. E(x,z) & E(z,y) & x != y",
    "forall z. E(x,z) -> B(z)",
    "exists z. (E(x,z) & B(z)) & R(x)",          # nested quantifier
    "exists z. exists w. E(z,w) & B(z) & R(w) & ~E(x,z)",
]

TERNARY_CORPUS = [
    "T(x,y,y) & B(x)",
    "B(x) & exists z. T(x,z,y)",
]


def assert_sharded_matches_serial(structure, query, shards):
    """The full three-way contract on one configuration."""
    with Database(structure.copy()) as plain:
        oracle = plain.query(query, backend="serial")
        expected = oracle.answers().all()
        expected_count = oracle.count()
        arity = oracle.arity
    domain = list(structure.domain)
    probes = expected[:3] + [(domain[0],) * arity]
    with Database(structure.copy()) as plain:
        verdicts = [
            plain.query(query, backend="serial").test(probe)
            for probe in probes
        ]
    with ShardedDatabase(structure.copy(), shards=shards) as sdb:
        sharded = sdb.query(query)
        assert sharded.answers().all() == expected
        assert sharded.count() == expected_count
        assert [sharded.test(probe) for probe in probes] == verdicts


@pytest.mark.parametrize("shards", [1, 3, 5])
def test_corpus_on_disconnected_islands(shards):
    db = islands([6, 5, 4, 3, 2, 1], seed=3)
    for query in CORPUS:
        assert_sharded_matches_serial(db, query, shards)


@pytest.mark.parametrize("shards", [1, 4])
def test_corpus_on_random_colored_graph(small_colored, shards):
    for query in CORPUS:
        assert_sharded_matches_serial(small_colored, query, shards)


def test_ternary_corpus(ternary_structure):
    for query in TERNARY_CORPUS:
        assert_sharded_matches_serial(ternary_structure, query, 3)


@given(db=disconnected_structures(), formula=formulas(max_quantifiers=1))
@settings(max_examples=40, **SETTINGS)
def test_random_structures_and_formulas_agree(db, formula):
    with rejecting_unsupported():
        with Database(db.copy()) as plain:
            oracle = plain.query(formula, backend="serial")
            expected = oracle.answers().all()
            expected_count = oracle.count()
        with ShardedDatabase(db.copy(), shards=3) as sdb:
            sharded = sdb.query(formula)
            assert sharded.answers().all() == expected
            assert sharded.count() == expected_count


def test_limit_is_a_prefix_of_the_global_order():
    db = islands([6, 5, 4, 3], seed=9)
    query = "B(x) & R(y) & ~E(x,y)"
    with Database(db.copy()) as plain:
        expected = plain.query(query, backend="serial").answers().all()
    with ShardedDatabase(db.copy(), shards=3) as sdb:
        assert len(expected) > 5
        assert sdb.query(query).answers(limit=5).all() == expected[:5]


def test_project_columns_projects_the_same_stream():
    db = islands([5, 4, 3], seed=2)
    query = "B(x) & R(y) & ~E(x,y)"
    with Database(db.copy()) as plain:
        expected = plain.query(query, backend="serial").answers().all()
    with ShardedDatabase(db.copy(), shards=3) as sdb:
        got = sdb.query(query).answers(project_columns=[1]).all()
        assert got == [(answer[1],) for answer in expected]


def test_sentence_queries_collapse_to_trivial_plans():
    db = islands([4, 3], seed=5)
    for query in ("exists z. (B(z) & R(z))", "exists z. B(z)"):
        with Database(db.copy()) as plain:
            expected = plain.query(query, backend="serial").answers().all()
        with ShardedDatabase(db.copy(), shards=2) as sdb:
            sharded = sdb.query(query)
            assert sharded.answers().all() == expected
            report = sharded.explain()
            assert report["sharded"] is False
            assert report["branches"] == 0


def test_global_total_counting_atom_blocks_sharding_but_stays_exact():
    db = islands([5, 4, 3], seed=1)
    x = Var("x")
    formula = CountCmp("B", 1, (x,), "<", TotalCount("B"))
    with Database(db.copy()) as plain:
        oracle = plain.query(formula, backend="serial")
        expected = oracle.answers().all()
        expected_count = oracle.count()
    with ShardedDatabase(db.copy(), shards=3) as sdb:
        sharded = sdb.query(formula)
        report = sharded.explain()
        assert report["sharded"] is False
        assert report["shard_blockers"], "global total must block sharding"
        assert sharded.answers().all() == expected
        assert sharded.count() == expected_count
        state = sdb._plan_state(sharded._key)
        assert shard_blockers(state.merged)


def test_explain_reports_layout_and_runtime():
    db = islands([6, 5, 4], seed=4)
    with ShardedDatabase(db.copy(), shards=3) as sdb:
        sharded = sdb.query("B(x) & R(y) & ~E(x,y)")
        report = sharded.explain()
        assert report["sharded"] is True
        assert report["canonical"] is True
        assert sorted(report["shard_sizes"], reverse=True) == [6, 5, 4]
        assert "runtime" not in report  # nothing ran yet
        answers = sharded.answers().all()
        assert answers
        report = sharded.explain()
        assert report["backend_used"] == "shard-stream"
        runtime = report["runtime"]
        assert runtime["rows"] == len(answers)
        # Two-block branches stream from the merged pipeline; a
        # single-block query attributes rows to the owning shards.
        assert "merged" in runtime["sources"]
        single = sdb.query("B(x)")
        rows = single.answers().all()
        assert rows
        sources = single.explain()["runtime"]["sources"]
        assert all(label.startswith("shard") for label in sources)
        assert sum(entry["rows"] for entry in sources.values()) == len(rows)


def test_stats_and_repr_surface_the_layout():
    db = islands([4, 3, 2], seed=6)
    with ShardedDatabase(db.copy(), shards=2) as sdb:
        sdb.query("B(x)").answers().all()
        stats = sdb.stats()
        assert stats["shards"] == 2
        assert stats["components"] == 3
        assert stats["cached_plans"] == 1
        assert stats["canonical_plans"] == 1
        assert "ShardedDatabase" in repr(sdb)
