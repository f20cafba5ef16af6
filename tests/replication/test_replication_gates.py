"""The replication gates: convergence, honest lag, warm replay, and
recovery from every crash point and wire fault.

A follower tailing a leader's write-ahead log — over a shared directory
or through the serve tier — lands on the leader's exact fingerprint,
reports its staleness truthfully while behind, replays through the
maintained-commit path (a repeated query after a catch-up is a cache
hit), and converges again after every named crash point and after a cut
wire heals.  Small leaders (n = 24) on the structure family of
``benchmarks/bench_e15_replication.py``, which measures replay
throughput and freshness.
"""

from __future__ import annotations

import pytest

from repro.errors import ServeConnectionError
from repro.replication import (
    CRASH_POINTS,
    DirectorySource,
    FlakyProxy,
    FollowerDatabase,
    ServeSource,
    inject,
)
from repro.serve import DatabaseRegistry, ServeClient, serve_in_thread
from repro.session import Database
from repro.structures.random_gen import random_colored_graph
from repro.util.retry import RetryPolicy

EXAMPLE = "B(x) & ~R(x)"
N = 24
FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05, jitter=0)


def build_leader(path) -> Database:
    structure = random_colored_graph(N, max_degree=4, seed=17)
    return Database.open(path, structure=structure, sync=False)


def flip(db: Database, element: int) -> None:
    """One guaranteed-effective commit: toggle ``element``'s R colour."""
    if db.structure.has_fact("R", element):
        db.apply([("delete", "R", (element,))])
    else:
        db.apply([("insert", "R", (element,))])


@pytest.fixture
def leader(tmp_path):
    database = build_leader(tmp_path / "leader")
    yield database
    database.close()


@pytest.fixture
def served(leader):
    registry = DatabaseRegistry()
    registry.add("lead", leader, close_on_shutdown=False)
    with serve_in_thread(registry) as server:
        yield server


def test_followers_converge_on_both_topologies(leader, served):
    for element in range(8):
        flip(leader, element)
    with FollowerDatabase(DirectorySource(leader.path)) as follower:
        follower.catch_up()
        assert follower.structure_fingerprint == leader.structure_fingerprint
        assert follower.version == leader.version
    source = ServeSource(ServeClient("127.0.0.1", served.port), "lead")
    with FollowerDatabase(source) as follower:
        follower.catch_up()
        flip(leader, 9)
        follower.catch_up()
        assert follower.structure_fingerprint == leader.structure_fingerprint


def test_a_clipped_catch_up_shows_lag_and_a_full_one_drains_it(leader, served):
    source = ServeSource(ServeClient("127.0.0.1", served.port), "lead")
    with FollowerDatabase(source, batch_limit=1) as follower:
        follower.catch_up()
        for element in range(4):
            flip(leader, element)
        follower.catch_up(max_batches=1)
        assert follower.lag == 3, "one of four records applied"
        plan = follower.query(EXAMPLE).explain()
        assert plan.role == "follower"
        assert plan.lag == 3
        follower.catch_up()
        assert follower.lag == 0


def test_the_first_query_after_a_warm_catch_up_is_a_cache_hit(leader):
    with FollowerDatabase(DirectorySource(leader.path)) as follower:
        follower.catch_up()
        follower.count(EXAMPLE)  # warms the plan (a miss)
        before = follower.stats()
        flip(leader, 0)
        follower.catch_up()
        count = follower.count(EXAMPLE)
        after = follower.stats()
        assert after["misses"] == before["misses"], "the query rebuilt its plan"
        assert after["hits"] > before["hits"]
        assert count == leader.query(EXAMPLE).count()


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_a_crash_at_every_named_point_restarts_and_converges(tmp_path, point):
    path = tmp_path / "leader"
    leader = build_leader(path)
    stale = []
    follower = FollowerDatabase(DirectorySource(leader.path))
    try:
        follower.catch_up()
        with inject({point: 1}):
            try:
                flip(leader, 0)
                flip(leader, 1)
                leader.checkpoint()
                flip(leader, 2)
                follower.catch_up()
            except Exception:  # noqa: BLE001 - the simulated death
                pass
        if not point.startswith("follower.") and point != "ship.batch":
            stale.append(leader)
            leader = Database.open(path, sync=False)
        flip(leader, 3)
        follower.catch_up()
        assert follower.structure_fingerprint == leader.structure_fingerprint
    finally:
        follower.close()
        leader.close()
        for db in stale:
            db.close()


def test_cut_wires_surface_as_connection_errors_and_heal(leader, served):
    with FlakyProxy("127.0.0.1", served.port) as proxy:
        client = ServeClient("127.0.0.1", proxy.port, timeout=5.0, retry=FAST_RETRY)
        with FollowerDatabase(ServeSource(client, "lead"), retry=FAST_RETRY) as follower:
            follower.catch_up()
            for element in range(4):
                flip(leader, element)
            proxy.drop_after_bytes = 40
            proxy.kill_connections()
            with pytest.raises(ServeConnectionError):
                follower.catch_up()
            proxy.drop_after_bytes = None  # heal
            follower.catch_up()
            assert follower.structure_fingerprint == leader.structure_fingerprint
            assert proxy.dropped >= 1
