"""The durability gates, at small n.

* WAL recovery: ``Database.open`` over a snapshot plus a WAL tail
  restores the pre-crash fingerprint, version and answers.  The
  snapshot carries warm plans and the tail holds edge inserts and
  deletes and colour flips, so the replay maintains those plans through
  ``PipelineMaintainer.refresh`` instead of rebuilding them.
* Warm reopen, as an operation count: after a checkpoint spilled the
  plan cache, the first cached-plan query on a warm reopen builds no
  pipeline, and on a cold (``load_warm=False``) reopen it builds one.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.dynamic import PipelineMaintainer
from repro.core.pipeline import Pipeline
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.session import Database
from repro.structures.random_gen import random_colored_graph

EXAMPLE = "B(x) & R(y) & ~E(x,y)"
MAINTAINED = (EXAMPLE, "B(x) & exists z. (R(z) & E(x,z))")


def oracle(structure, text):
    formula = parse(text)
    return sorted(naive_answers(formula, structure, order=sorted(formula.free)))


def update_stream(structure, count, seed):
    """``count`` ops mixing edge deletes, edge inserts and colour flips."""
    rng = random.Random(seed)
    domain = list(structure.domain)
    edges = sorted(structure.facts("E"))
    ops = []
    for index in range(count):
        roll = rng.random()
        if roll < 0.35 and edges:
            ops.append((False, "E", edges[index % len(edges)]))
        elif roll < 0.7:
            ops.append((True, "E", (rng.choice(domain), rng.choice(domain))))
        else:
            colour, element = rng.choice(("B", "R")), rng.choice(domain)
            ops.append((rng.random() < 0.5, colour, (element,)))
    return ops


@pytest.fixture
def counted_builds(monkeypatch):
    """How many pipelines have been built since the fixture started."""
    builds = []
    build = Pipeline.__init__

    def counting(pipeline, *args, **kwargs):
        builds.append(pipeline)
        build(pipeline, *args, **kwargs)

    monkeypatch.setattr(Pipeline, "__init__", counting)
    return builds


@pytest.mark.parametrize("seed, commits", [(42, 4), (7, 8), (3, 12)])
def test_snapshot_plus_wal_tail_recovers_the_pre_crash_state(
    tmp_path, monkeypatch, counted_builds, seed, commits
):
    path = tmp_path / "db"
    structure = random_colored_graph(60, max_degree=4, seed=seed)
    with Database.open(path, structure=structure.copy()) as db:
        for text in MAINTAINED:
            db.query(text).count()
        assert db.checkpoint().warm_entries == len(MAINTAINED)
        for start in range(commits):
            result = db.apply(update_stream(db.structure, 6, seed=100 + start))
            if result.changed:
                assert result.maintained_plans == len(MAINTAINED)
        fingerprint = db.structure_fingerprint
        version = db.version
        want = {text: oracle(db.structure, text) for text in MAINTAINED}
    assert any(name.startswith("wal.") for name in os.listdir(path))

    counted_builds.clear()
    refreshes = []
    refresh = PipelineMaintainer.refresh

    def counting(maintainer, touched, region, rewire):
        refreshes.append(rewire)
        return refresh(maintainer, touched, region, rewire)

    monkeypatch.setattr(PipelineMaintainer, "refresh", counting)
    with Database.open(path) as db:
        assert db.structure_fingerprint == fingerprint
        assert db.version == version
        for text in MAINTAINED:
            query = db.query(text)
            assert sorted(query.answers().all()) == want[text]
            assert query.count() == len(want[text])
        stats = db.stats()
        assert stats["misses"] == 0 and stats["maintained_plans"] == len(MAINTAINED)
    # The tail replayed through the warm plans: nothing was rebuilt.
    assert counted_builds == []
    assert len(refreshes) >= len(MAINTAINED)


def test_first_query_after_a_reopen_builds_one_pipeline_cold_and_none_warm(
    tmp_path, counted_builds
):
    path = tmp_path / "db"
    structure = random_colored_graph(120, max_degree=4, seed=42)
    with Database.open(path, structure=structure.copy()) as db:
        for text in MAINTAINED:
            db.query(text).count()
        assert db.checkpoint().warm_entries == len(MAINTAINED)
        want = len(oracle(db.structure, EXAMPLE))

    for load_warm, builds in ((True, 0), (False, 1)):
        with Database.open(path, load_warm=load_warm) as db:
            counted_builds.clear()
            assert db.query(EXAMPLE).count() == want
            assert len(counted_builds) == builds, f"load_warm={load_warm}"
