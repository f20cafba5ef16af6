"""Monitoring queries on a sensor grid (a degree-4 low-degree class).

A rows x cols grid of sensors; some are Powered, some are Faulty.  Grid
graphs have Gaifman degree <= 4, a textbook bounded-degree (hence
low-degree) class.

Demonstrates:

* model checking sentences in pseudo-linear time (Theorem 2.4) — global
  health invariants;
* quantified unary queries through the full localization pipeline —
  finding sensors in trouble;
* distance atoms — redundancy pairs for hand-off planning.

Run:  python examples/sensor_grid.py [rows] [cols]
"""

import sys

from repro import Database, parse
from repro.core.model_checking import model_check
from repro.structures import grid_graph


def build_grid(rows: int, cols: int):
    return grid_graph(rows, cols, colors=("Powered", "Faulty"), seed=7)


def global_invariants(db) -> None:
    print("--- global invariants (model checking, Theorem 2.4) ---")
    checks = {
        "some powered sensor exists": "exists x. Powered(x)",
        "every faulty sensor has a powered neighbor": (
            "forall x. Faulty(x) -> (exists z. (E(x,z) | E(z,x)) & Powered(z))"
        ),
        "two faulty sensors far apart (> 4 hops)": (
            "exists x. exists y. Faulty(x) & Faulty(y) & dist(x,y) > 4"
        ),
    }
    for description, sentence in checks.items():
        verdict = model_check(parse(sentence), db)
        print(f"  {description}: {verdict}")


def trouble_spots(db) -> None:
    print("\n--- sensors at risk (quantified query) ---")
    # Powered sensors all of whose neighbors are faulty.
    query = parse("Powered(x) & forall z. (E(x,z) -> Faulty(z))")
    with Database(db) as session:
        prepared = session.query(query)
        print(f"  powered sensors surrounded by faults: {prepared.count()}")
        for (sensor,) in prepared.answers(limit=5):
            print(f"    at grid position {sensor}")


def redundancy_pairs(db) -> None:
    print("\n--- redundancy pairs (distance query) ---")
    # Powered pairs within 2 hops: close enough for hand-off.
    query = parse("Powered(x) & Powered(y) & x != y & dist(x,y) <= 2")
    # Faulty sensors with no powered sensor within 2 hops: dead zones.
    dead_zone = parse("Faulty(x) & forall z in N2(x). ~Powered(z)")
    with Database(db) as session:
        print(f"  hand-off pairs within 2 hops: {session.count(query)}")
        print(
            "  dead-zone sensors (no power within 2 hops): "
            f"{session.count(dead_zone)}"
        )


def main() -> None:
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    cols = int(sys.argv[2]) if len(sys.argv) > 2 else 20
    db = build_grid(rows, cols)
    print(
        f"sensor grid {rows}x{cols}: {db.cardinality} sensors, "
        f"Gaifman degree {db.degree}\n"
    )
    global_invariants(db)
    trouble_spots(db)
    redundancy_pairs(db)


if __name__ == "__main__":
    main()
