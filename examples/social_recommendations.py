"""Friend-recommendation queries on a synthetic social network.

The scenario the paper's introduction motivates: a large, *sparse*
database (every member knows a bounded number of people — a low-degree
class) on which we want to stream query answers without ever
materializing the quadratic result set.

Queries:

* ``candidates``  — active member x and newcomer y who are not friends:
  the recommendation stream (Example 2.3 at social-network scale).
* ``introducers`` — pairs connected through a common friend: a connected
  conjunctive query evaluated by the Lemma 3.2 fast path.
* ``isolated_newcomers`` — newcomers all of whose friends are inactive: a
  universally quantified query going through full localization.

Run:  python examples/social_recommendations.py [members]
"""

import sys
import time

from repro import Database, parse
from repro.core.ccq import evaluate_ccq
from repro.core.enumeration import enumerate_answers
from repro.storage.cost_model import CostMeter
from repro.structures import random_colored_graph


def build_network(members: int):
    """Members know <= 6 people; ~half are Active, ~half are Newcomers."""
    return random_colored_graph(
        members,
        max_degree=6,
        colors=("Active", "Newcomer"),
        color_probability=0.5,
        seed=2024,
    )


def recommendation_stream(db) -> None:
    query = parse("Active(x) & Newcomer(y) & x != y & ~E(x,y)")
    with Database(db) as session:
        started = time.perf_counter()
        prepared = session.query(query)
        preprocessing = time.perf_counter() - started
        total = prepared.count()
    print(f"candidate pairs (not friends yet): {total:,}")
    print(f"preprocessing took {preprocessing:.3f}s — answers stream from here")

    meter = CostMeter()
    shown = 0
    # Metered serial enumeration (the session's serial backend, with
    # RAM-step marks between answers).
    for active, newcomer in enumerate_answers(prepared.pipeline, meter=meter):
        meter.mark()
        if shown < 5:
            print(f"  recommend member {newcomer} to member {active}")
        shown += 1
        if shown == 10_000:
            break
    deltas = meter.deltas()
    print(
        f"streamed {shown:,} recommendations; "
        f"RAM steps per answer: max {max(deltas)}, "
        f"mean {sum(deltas) / len(deltas):.1f}"
    )


def introducers(db) -> None:
    query = parse("exists z. E(x,z) & E(z,y) & Active(z)")
    # A connected conjunctive query: the Lemma 3.2 fast path applies.
    answers = evaluate_ccq(query, db)
    print(f"pairs reachable through an active common friend: {len(answers):,}")


def isolated_newcomers(db) -> None:
    query = parse("Newcomer(x) & forall z. (E(x,z) -> ~Active(z))")
    with Database(db) as session:
        prepared = session.query(query)
        lonely = prepared.count()
        some = [x for (x,) in prepared.answers(limit=5)]
    print(f"newcomers with no active friend: {lonely:,}")
    if some:
        print(f"  e.g. members {some}")


def main() -> None:
    members = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    db = build_network(members)
    print(
        f"social network: {db.cardinality:,} members, "
        f"max acquaintance count {db.degree}\n"
    )
    recommendation_stream(db)
    print()
    introducers(db)
    print()
    isolated_newcomers(db)


if __name__ == "__main__":
    main()
