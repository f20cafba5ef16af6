"""The batch-update gates, at small n.

A transactional commit (``db.apply``) amortizes maintenance over the
batch; the gates pin down what that may and may not change:

* a batch commit runs exactly one maintenance pass per cached plan;
* replaying the same ops one by one runs one pass per *replay-effective*
  op (an op that changes the structure when replayed in order);
* batch == replay == oracle: fingerprint, answers and counts agree, and
  both match naive evaluation on the final structure;
* an ``Answers`` handle opened before the commit streams its pinned
  version byte-identically, and the commit forks the head.

Workload: ``random_colored_graph(64, max_degree=4, seed=42)`` with two
warm plans, under deterministic streams of edge and colour flips (the
same workload as ``benchmarks/bench_e13_updates.py``, which measures
facts/s).
"""

from __future__ import annotations

import random

import pytest

from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.session import Database
from repro.structures.random_gen import random_colored_graph

EXAMPLE = "B(x) & R(y) & ~E(x,y)"
QUANTIFIED = "B(x) & exists z. (R(z) & ~E(x,z))"
WARM_QUERIES = (EXAMPLE, QUANTIFIED)
BATCH_SIZES = (4, 16)


@pytest.fixture(scope="module")
def structure():
    return random_colored_graph(64, max_degree=4, seed=42)


def update_stream(structure, count: int, seed: int = 7):
    """Balanced inserts and removes of edges and colours, over existing
    and fresh facts."""
    rng = random.Random(seed)
    domain = list(structure.domain)
    existing_edges = sorted(structure.facts("E"))
    ops = []
    for index in range(count):
        roll = rng.random()
        if roll < 0.35 and existing_edges:
            ops.append((False, "E", existing_edges[index % len(existing_edges)]))
        elif roll < 0.7:
            ops.append((True, "E", (rng.choice(domain), rng.choice(domain))))
        else:
            relation = rng.choice(["B", "R"])
            ops.append((rng.random() < 0.5, relation, (rng.choice(domain),)))
    return ops


def warm(db):
    """Cache the plans (which attaches their maintainers)."""
    for text in WARM_QUERIES:
        db.query(text).count()
    return list(db._maintainers.values())


def replay_effective(structure, ops) -> int:
    """How many ops change the structure when replayed one by one."""
    sim = structure.copy()
    count = 0
    for insert, relation, elements in ops:
        present = sim.has_fact(relation, *elements)
        if insert != present:
            (sim.add_fact if insert else sim.remove_fact)(relation, *elements)
            count += 1
    return count


def oracle(structure, text):
    formula = parse(text)
    return sorted(naive_answers(formula, structure, order=sorted(formula.free)))


def state_of(db):
    return db.structure_fingerprint, [
        (sorted(db.query(text).answers().all()), db.query(text).count())
        for text in WARM_QUERIES
    ]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_runs_one_pass_per_plan(structure, batch_size):
    ops = update_stream(structure, batch_size)
    with Database(structure.copy()) as db:
        maintainers = warm(db)
        assert maintainers
        before = [m.updates_applied for m in maintainers]
        result = db.apply(ops)
        assert result.changed
        assert [m.updates_applied - b for m, b in zip(maintainers, before)] == [
            1
        ] * len(maintainers)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_singles_run_one_pass_per_effective_op(structure, batch_size):
    ops = update_stream(structure, batch_size)
    effective = replay_effective(structure, ops)
    assert effective > 1
    with Database(structure.copy()) as db:
        maintainers = warm(db)
        before = [m.updates_applied for m in maintainers]
        for insert, relation, elements in ops:
            if insert:
                db.insert_fact(relation, *elements)
            else:
                db.remove_fact(relation, *elements)
        assert [m.updates_applied - b for m, b in zip(maintainers, before)] == [
            effective
        ] * len(maintainers)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_equals_replay_equals_oracle(structure, batch_size):
    ops = update_stream(structure, batch_size)
    with Database(structure.copy()) as batch_db, Database(
        structure.copy()
    ) as replay_db:
        warm(batch_db)
        warm(replay_db)
        batch_db.apply(ops)
        for insert, relation, elements in ops:
            if insert:
                replay_db.insert_fact(relation, *elements)
            else:
                replay_db.remove_fact(relation, *elements)
        batch_state = state_of(batch_db)
        assert batch_state == state_of(replay_db)
        for text, (answers, count) in zip(WARM_QUERIES, batch_state[1]):
            want = oracle(batch_db.structure, text)
            assert answers == want, text
            assert count == len(want), text


def test_pinned_handle_streams_its_version_across_a_commit(structure):
    ops = update_stream(structure, 8)
    with Database(structure.copy()) as db:
        warm(db)
        expected = db.query(EXAMPLE).answers().all()
        handle = db.query(EXAMPLE).answers()
        handle.page(0, size=2)  # mid-stream
        result = db.apply(ops)
        assert result.changed and result.forked
        assert handle.all() == expected
        assert sorted(db.query(EXAMPLE).answers().all()) == oracle(
            db.structure, EXAMPLE
        )
        handle.cancel()
