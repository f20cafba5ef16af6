"""Sharded updates: split commits, bridge merges, and the stale contract.

Oracle conventions (load-bearing — see the order contracts in
``repro.shard.database``):

* *warm-warm*: a maintained sharded plan is byte-identical to a plain
  session plan only when **both** sides had warm cached plans at apply
  time — the merged pipeline equals the plain pipeline pre-apply, so
  identical in-place surgery yields identical (maintained) order;
* *cold-cold*: after anything that rebuilds plans from scratch (bridge
  merge, repartition, fresh key) the oracle is a **fresh** unsharded
  :class:`Database` over the post-commit structure — maintained order
  and cold order agree as sets, not byte-for-byte.
"""

from __future__ import annotations

import pytest

from repro.errors import EngineError, SignatureError, StaleResultError
from repro.fo.syntax import CountCmp, Var
from repro.session import Database
from repro.shard import ShardedDatabase
from repro.structures.serialize import fingerprint, region_fingerprint

from test_partition import islands

QUERY = "B(x) & R(y) & ~E(x,y)"
WITNESS = "exists z. (E(x,z) & B(z)) & R(x)"


def effective_ops(structure):
    """A small op batch guaranteed to change the structure, all ops
    shard-local (every element set is a singleton or an existing edge)."""
    ops = []
    domain = list(structure.domain)
    missing_b = next(
        element for element in domain if not structure.has_fact("B", element)
    )
    ops.append((True, "B", (missing_b,)))
    present_r = next(
        element for element in domain if structure.has_fact("R", element)
    )
    ops.append((False, "R", (present_r,)))
    left, right = next(iter(structure.facts("E")))
    ops.append((False, "E", (left, right)))
    return ops


def test_maintained_apply_matches_warm_plain_session():
    db = islands([6, 5, 4, 3], seed=9)
    ops = effective_ops(db)
    with Database(db.copy()) as plain, ShardedDatabase(
        db.copy(), shards=3
    ) as sdb:
        for query in (QUERY, WITNESS):
            # Warm BOTH sides: maintained order is only comparable when
            # the two pipelines were identical before the surgery.
            assert (
                sdb.query(query).answers().all()
                == plain.query(query, backend="serial").answers().all()
            )
        result = sdb.apply(ops)
        plain.apply(ops)
        assert result.changed
        assert result.ops_effective == len(ops)
        assert result.maintained_plans == 2
        assert result.fingerprint_after == fingerprint(plain.structure)
        for query in (QUERY, WITNESS):
            sharded = sdb.query(query)
            oracle = plain.query(query, backend="serial")
            assert sharded.answers().all() == oracle.answers().all()
            assert sharded.count() == oracle.count()
        # Maintenance retired the shard graphs but kept the plan cached.
        stats = sdb.stats()
        assert stats["cached_plans"] == 2
        assert stats["canonical_plans"] == 0
        # A second consecutive maintained apply stays byte-identical.
        more = [(True, "E", ops[2][2])]
        result = sdb.apply(more)
        plain.apply(more)
        assert result.maintained_plans == 2
        for query in (QUERY, WITNESS):
            assert (
                sdb.query(query).answers().all()
                == plain.query(query, backend="serial").answers().all()
            )


def test_one_refresh_per_plan_per_commit():
    db = islands([6, 5, 4, 3], seed=9)
    with ShardedDatabase(db.copy(), shards=3) as sdb:
        for query in (QUERY, WITNESS):
            sdb.query(query).answers().all()
        ops = effective_ops(sdb.structure)
        assert len(ops) > 1
        result = sdb.apply(ops)
        assert result.ops_effective == len(ops)
        plans = list(sdb._plans.values())
        assert len(plans) == result.maintained_plans == 2
        passes = [plan.maintainer.updates_applied for plan in plans]
        assert passes == [1, 1], "one local-recomputation pass per plan"
        sdb.apply([(True, "E", ops[2][2]), (False, "B", ops[0][2])])
        assert [plan.maintainer.updates_applied for plan in plans] == [2, 2]


def test_split_ops_keep_substructures_in_sync():
    db = islands([5, 4, 3, 2], seed=1)
    with ShardedDatabase(db.copy(), shards=3) as sdb:
        sdb.query(QUERY).answers().all()
        sdb.apply(effective_ops(sdb.structure))
        for shard, substructure in zip(
            sdb.layout.shards, sdb.substructures
        ):
            assert fingerprint(substructure) == region_fingerprint(
                sdb.structure, shard
            )


def test_outstanding_handle_goes_stale_on_apply():
    db = islands([5, 4], seed=2)
    with ShardedDatabase(db.copy(), shards=2) as sdb:
        handle = sdb.query(QUERY).answers()
        sdb.apply(effective_ops(sdb.structure))
        with pytest.raises(StaleResultError):
            handle.all()


def test_bridge_insert_merges_owning_shards():
    db = islands([5, 4, 3, 2], seed=3)
    with ShardedDatabase(db.copy(), shards=4) as sdb:
        sdb.query(QUERY).answers().all()
        assert len(sdb.layout) == 4
        # An edge between two shards' elements is a bridge.
        left = sdb.layout.shards[0][0]
        right = sdb.layout.shards[1][0]
        result = sdb.insert_fact("E", left, right)
        assert result.changed
        assert result.maintained_plans == 0  # bridge: plans went cold
        assert len(sdb.layout) == 3
        assert sdb.layout.shard_of(left) == sdb.layout.shard_of(right)
        assert sdb.stats()["cached_plans"] == 0
        for shard, substructure in zip(
            sdb.layout.shards, sdb.substructures
        ):
            assert fingerprint(substructure) == region_fingerprint(
                sdb.structure, shard
            )
        # Cold-cold oracle: fresh plans vs a fresh unsharded Database.
        with Database(sdb.structure.copy()) as oracle:
            for query in (QUERY, WITNESS):
                assert (
                    sdb.query(query).answers().all()
                    == oracle.query(query, backend="serial").answers().all()
                )
        assert sdb.stats()["canonical_plans"] == 2


def test_repartition_matches_cold_oracle():
    db = islands([6, 5, 4, 3], seed=4)
    with ShardedDatabase(db.copy(), shards=2) as sdb:
        sdb.query(QUERY).answers().all()
        sdb.apply(effective_ops(sdb.structure))
        layout = sdb.repartition(shards=3)
        assert len(layout) == min(3, layout.components)
        assert sdb.stats()["cached_plans"] == 0
        with Database(sdb.structure.copy()) as oracle:
            assert (
                sdb.query(QUERY).answers().all()
                == oracle.query(QUERY, backend="serial").answers().all()
            )
        assert sdb.stats()["canonical_plans"] == 1


def test_noop_changeset_commits_nothing():
    db = islands([4, 3], seed=5)
    with ShardedDatabase(db.copy(), shards=2) as sdb:
        present = next(iter(db.facts("E")))
        before = fingerprint(sdb.structure)
        result = sdb.apply([(True, "E", present)])
        assert not result.changed
        assert result.ops_effective == 0
        assert result.fingerprint_after == before
        assert result.version_before == result.version_after


def test_remove_then_reinsert_nets_out():
    db = islands([4, 3], seed=6)
    with ShardedDatabase(db.copy(), shards=2) as sdb:
        left, right = next(iter(db.facts("E")))
        result = sdb.apply(
            [(False, "E", (left, right)), (True, "E", (left, right))]
        )
        assert result.ops_submitted == 2
        assert result.ops_effective == 0


def test_validation_rejects_bad_ops_atomically():
    db = islands([4, 3], seed=7)
    with ShardedDatabase(db.copy(), shards=2) as sdb:
        before = fingerprint(sdb.structure)
        with pytest.raises(SignatureError):
            sdb.apply([(True, "B", (0,)), (True, "NOPE", (1,))])
        with pytest.raises(SignatureError):
            sdb.insert_fact("E", 0)  # arity mismatch
        with pytest.raises(ValueError):
            sdb.insert_fact("B", "ghost")  # not in the domain
        assert fingerprint(sdb.structure) == before


def test_non_maintainable_plans_are_evicted_then_rebuilt():
    db = islands([5, 4, 3], seed=8)
    # A counting atom blocks maintenance (but not sharding, with an int
    # right-hand side) — the plan must be evicted, not refreshed.
    counting = CountCmp("B", 1, (Var("x"),), ">=", 1)
    with ShardedDatabase(db.copy(), shards=3) as sdb:
        sdb.query(counting).answers().all()
        sdb.query(QUERY).answers().all()
        assert sdb.stats()["cached_plans"] == 2
        result = sdb.apply(effective_ops(sdb.structure))
        assert result.maintained_plans == 1
        assert sdb.stats()["cached_plans"] == 1
        with Database(sdb.structure.copy()) as oracle:
            assert (
                sdb.query(counting).answers().all()
                == oracle.query(counting, backend="serial").answers().all()
            )


def test_closed_database_rejects_everything():
    db = islands([3, 2], seed=10)
    sdb = ShardedDatabase(db.copy(), shards=2)
    sdb.close()
    with pytest.raises(EngineError):
        sdb.query("B(x)")
    with pytest.raises(EngineError):
        sdb.insert_fact("B", 0)
    with pytest.raises(EngineError):
        sdb.repartition()
    sdb.close()  # idempotent


def test_failed_refresh_reverts_the_commit_and_drops_maintained_plans(
    monkeypatch,
):
    from repro.core.dynamic import PipelineMaintainer

    db = islands([6, 5, 4, 3], seed=9)
    with ShardedDatabase(db.copy(), shards=3) as sdb:
        before = sdb.query(QUERY).answers().all()
        version = sdb.structure.version
        prints = [fingerprint(sdb.structure)] + [
            fingerprint(substructure) for substructure in sdb.substructures
        ]
        op = effective_ops(sdb.structure)[0]

        def explode(self, touched, region, rewire):
            raise RuntimeError("injected refresh failure")

        monkeypatch.setattr(PipelineMaintainer, "refresh", explode)
        with pytest.raises(RuntimeError, match="injected refresh failure"):
            sdb.apply([op])
        monkeypatch.undo()
        # Structure and every substructure are back at the pre-commit
        # state, and no stale plan survives to serve.
        assert sdb.structure.version == version
        assert [fingerprint(sdb.structure)] + [
            fingerprint(substructure) for substructure in sdb.substructures
        ] == prints
        assert sdb.stats()["cached_plans"] == 0
        with Database(sdb.structure.copy()) as fresh:
            oracle = fresh.query(QUERY, backend="serial").answers().all()
        assert sdb.query(QUERY).answers().all() == oracle == before
        # The same commit, retried, lands (maintained, so compared as a
        # set: maintenance renumbers nothing).
        assert sdb.apply([op]).maintained_plans == 1
        with Database(sdb.structure.copy()) as fresh:
            oracle = fresh.query(QUERY, backend="serial").answers().all()
        assert len(oracle) == 83
        assert sorted(sdb.query(QUERY).answers().all()) == sorted(oracle)


def test_failed_refresh_makes_a_streaming_handle_stale(monkeypatch):
    # The revert puts the version back, so only the epoch tells an
    # un-pinned handle that the plan it streams was refreshed and dropped.
    from repro.core.dynamic import PipelineMaintainer

    db = islands([6, 5, 4, 3], seed=9)
    with ShardedDatabase(db.copy(), shards=3) as sdb:
        stream = sdb.query(QUERY).answers().stream()
        next(stream)
        original = PipelineMaintainer.refresh

        def refresh_then_explode(self, touched, region, rewire):
            original(self, touched, region, rewire)
            raise RuntimeError("injected refresh failure")

        monkeypatch.setattr(PipelineMaintainer, "refresh", refresh_then_explode)
        version = sdb.structure.version
        with pytest.raises(RuntimeError, match="injected refresh failure"):
            sdb.apply([effective_ops(sdb.structure)[0]])
        monkeypatch.undo()
        assert sdb.structure.version == version
        with pytest.raises(StaleResultError, match="failed commit"):
            next(stream)
