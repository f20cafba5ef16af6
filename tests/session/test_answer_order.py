"""One answer order: a maintained plan enumerates in the order a cold
build of the same content does.

Maintenance keeps a surviving node's id, appends born nodes or reuses
removed ids, and the branch lists follow node ids, so after commits that
re-key nodes the maintained order depends on the commit history.  The
rows stay right as a set; only their order moves.  This is ROADMAP's
open "P0: one answer order", pinned here until it is fixed.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
import sys

import pytest

from repro.session import Database

LEDGER = pathlib.Path(__file__).resolve().parents[2] / "ledger"
EDGE = "B(x) & R(y) & E(x,y)"


def ledger_inputs():
    """The ledger's seeded input generators (``ledger/inputs.py``)."""
    spec = importlib.util.spec_from_file_location("ledger_inputs", LEDGER / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP P0: one answer order — a maintained plan's row order "
    "depends on its commit history",
)
def test_a_maintained_plan_enumerates_in_the_cold_order():
    """Six E deletes and three fresh E inserts, each maintained in place:
    the rows equal a cold build's as a set, and in order."""
    structure = ledger_inputs().colored(300, 3)
    rng = random.Random(0)
    with Database(structure) as db:
        db.query(EDGE, backend="serial").count()
        for edge in rng.sample(sorted(db.structure.facts("E")), 6):
            assert db.apply([(False, "E", edge)]).maintained_plans == 1
        domain = sorted(db.structure.domain)
        inserted = 0
        while inserted < 3:
            u, v = rng.sample(domain, 2)
            if not db.structure.has_fact("E", u, v):
                assert db.apply([(True, "E", (u, v))]).maintained_plans == 1
                inserted += 1
        maintained = db.query(EDGE, backend="serial").answers().all()
        with Database(db.structure.copy()) as cold:
            want = cold.query(EDGE, backend="serial").answers().all()
    assert sorted(maintained) == sorted(want)
    assert maintained == want
