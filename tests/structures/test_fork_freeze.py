"""Copy-on-write forks and frozen version pinning on :class:`Structure`.

The substrate of snapshot isolation: ``fork()`` must be O(#relations)
cheap, share fact storage until either side writes, continue the version
lineage, and keep the rolling fingerprint exact; ``freeze()`` must turn
every mutation into :class:`FrozenStructureError` while read paths keep
working.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrozenStructureError
from repro.structures.random_gen import random_colored_graph
from repro.structures.serialize import fingerprint, fingerprint_full
from repro.structures.signature import Signature
from repro.structures.structure import Structure


@pytest.fixture
def base():
    return random_colored_graph(20, max_degree=3, seed=31).copy()


class TestFreeze:
    def test_frozen_rejects_mutations(self, base):
        base.freeze()
        assert base.frozen
        with pytest.raises(FrozenStructureError):
            base.add_fact("B", 0)
        with pytest.raises(FrozenStructureError):
            base.remove_fact("B", 0)

    def test_frozen_reads_keep_working(self, base):
        before_facts = base.facts("E")
        before_degree = base.degree
        base.freeze()
        assert base.facts("E") == before_facts
        assert base.degree == before_degree
        assert base.neighbors(base.domain[0]) is not None
        assert fingerprint(base) == fingerprint_full(base)

    def test_copy_of_frozen_is_mutable(self, base):
        base.freeze()
        clone = base.copy()
        clone.add_fact("B", clone.domain[0])  # no raise


class TestFork:
    def test_fork_shares_until_write(self, base):
        fork = base.fork()
        # Same set objects pre-write (the whole point of COW).
        assert fork._relations["E"] is base._relations["E"]
        element = next(
            e for e in base.domain if not base.has_fact("B", e)
        )
        fork.add_fact("B", element)
        assert fork._relations["B"] is not base._relations["B"]
        assert fork._relations["E"] is base._relations["E"], (
            "untouched relations stay shared"
        )
        assert fork.has_fact("B", element)
        assert not base.has_fact("B", element)

    def test_parent_write_does_not_leak_into_fork(self, base):
        fork = base.fork()
        element = next(e for e in base.domain if not base.has_fact("R", e))
        base.add_fact("R", element)
        assert not fork.has_fact("R", element)

    def test_version_lineage_continues(self, base):
        v = base.version
        fork = base.fork()
        assert fork.version == v
        fork.add_fact("B", next(
            e for e in base.domain if not base.has_fact("B", e)
        ))
        assert fork.version == v + 1

    def test_fork_fingerprint_matches_full_recompute(self, base):
        fingerprint(base)  # initialize the rolling accumulator
        fork = base.fork()
        element = next(e for e in base.domain if not base.has_fact("B", e))
        fork.add_fact("B", element)
        assert fingerprint(fork) == fingerprint_full(fork)
        assert fingerprint(base) == fingerprint_full(base)
        assert fingerprint(fork) != fingerprint(base)

    def test_fork_adjacency_independent(self, base):
        left, right = base.domain[0], base.domain[-1]
        fork = base.fork()
        if not base.has_fact("E", left, right):
            fork.add_fact("E", left, right)
            assert right in fork.neighbors(left)
            assert (
                right in base.neighbors(left)
            ) == base.has_fact("E", right, left)

    def test_fork_of_frozen_parent(self, base):
        base.freeze()
        fork = base.fork()
        fork.add_fact("B", next(
            e for e in base.domain if not base.has_fact("B", e)
        ))
        assert not base.frozen or fork.frozen is False

    def test_chained_forks(self, base):
        first = base.fork()
        element = next(e for e in base.domain if not base.has_fact("B", e))
        first.add_fact("B", element)
        second = first.fork()
        other = next(
            e
            for e in base.domain
            if not first.has_fact("R", e)
        )
        second.add_fact("R", other)
        assert second.has_fact("B", element)
        assert not second.has_fact("R", other) or second.has_fact("R", other)
        assert first.has_fact("B", element)
        assert not first.has_fact("R", other)
        assert not base.has_fact("B", element)


def random_op(structure, rng):
    """An insert or a removal (of a present fact, so it takes effect) of
    an E edge or a colour."""
    domain = list(structure.domain)
    relation = rng.choice(["E", "B", "R"])
    present = sorted(structure.facts(relation))
    if present and rng.random() < 0.5:
        return False, relation, rng.choice(present)
    if relation == "E":
        return True, relation, (rng.choice(domain), rng.choice(domain))
    return True, relation, (rng.choice(domain),)


def apply(structure, op):
    insert, relation, fact = op
    if insert:
        structure.add_fact(relation, *fact)
    else:
        structure.remove_fact(relation, *fact)


def neighbour_map(structure):
    return {e: set(structure.neighbors(e)) for e in structure.domain}


@given(seed=st.integers(0, 50), flips=st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_fork_differential_vs_copy(seed, flips):
    """COW forks mutated arbitrarily must equal deep copies mutated the
    same way — fact sets, fingerprints, and Gaifman adjacency.

    The root's Gaifman index is built before it is forked, so a parent,
    its fork and a fork of the fork (taken after both wrote) all start
    from one shared index; each side writes to its own neighbour sets
    only, and the frozen root's sets never move."""
    import random

    root = random_colored_graph(14, max_degree=3, seed=seed)
    fingerprint(root)
    root.adjacency()  # built, so every fork below shares it
    root_before = neighbour_map(root)
    root.freeze()
    parent = root.fork()
    fork = parent.fork()
    sides = [(parent, parent.copy()), (fork, fork.copy())]
    rng = random.Random(seed)
    for phase in range(2):
        for _ in range(flips):
            side, twin = rng.choice(sides)
            op = random_op(side, rng)
            apply(side, op)
            apply(twin, op)
        if phase == 0:
            grandchild = fork.fork()
            sides.append((grandchild, sides[1][1].copy()))
    for side, twin in sides:
        for name in root.relation_names():
            assert side.facts(name) == twin.facts(name)
        assert fingerprint(side) == fingerprint_full(twin)
        assert neighbour_map(side) == neighbour_map(twin)
    assert neighbour_map(root) == root_before
