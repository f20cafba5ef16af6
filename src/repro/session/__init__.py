"""The unified session API: one :class:`Database`, every query mode.

The paper exposes exactly three operations — count (Theorem 2.5), test
(Theorem 2.6), constant-delay enumerate (Theorem 2.7).  This package
exposes exactly one way to reach them::

    from repro.session import Database

    with Database(structure, workers=4) as db:
        q = db.query("B(x) & R(y) & ~E(x,y)")
        q.count()
        q.test((0, 2))
        answers = q.answers()          # one handle: sync AND async
        answers.page(0, size=50)
        async for a in answers: ...    # same object, off-loop pulls
        print(q.explain().describe())  # branches, shards, backend, costs
        with db.transaction() as tx:   # one maintenance pass per plan
            tx.insert_fact("B", 3)
            tx.insert_many("E", [(0, 3), (3, 0)])
        with db.snapshot() as snap:    # version-pinned reads
            snap.query("B(x)").count() # never goes stale

Reads are snapshot-isolated: ``db.snapshot()`` pins a version, and
every ``Answers`` handle stays on the version it was planned against —
a concurrent commit forks the head copy-on-write instead of raising
``StaleResultError``.  Writes batch through ``db.transaction()`` /
``db.apply(changeset)``: one lock acquisition, one fingerprint roll,
one maintenance pass per cached plan, one cache re-key per commit.

Execution strategy (serial / thread / process) is chosen per plan by the
cost model and overridable via ``db.query(..., backend=...)`` — see
:mod:`repro.session.backends`.
"""

from repro.session.answers import DEFAULT_PAGE_SIZE, Answers, EncodedAnswers
from repro.session.backends import (
    AUTO,
    BACKENDS,
    PROCESS,
    SERIAL,
    THREAD,
    ExecutionBackend,
    ExecutionPlan,
    PoolBackend,
    resolve_backend,
)
from repro.session.database import Database
from repro.session.query import Query, QueryPlan
from repro.session.snapshot import Snapshot
from repro.session.transaction import (
    Changeset,
    CommitResult,
    Transaction,
    load_changeset_jsonl,
)

__all__ = [
    "AUTO",
    "Answers",
    "BACKENDS",
    "Changeset",
    "CommitResult",
    "DEFAULT_PAGE_SIZE",
    "Database",
    "EncodedAnswers",
    "ExecutionBackend",
    "ExecutionPlan",
    "PROCESS",
    "PoolBackend",
    "Query",
    "QueryPlan",
    "SERIAL",
    "Snapshot",
    "THREAD",
    "Transaction",
    "load_changeset_jsonl",
    "resolve_backend",
]
