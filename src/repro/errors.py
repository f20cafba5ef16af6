"""Exception hierarchy for the library."""


class ReproError(Exception):
    """Base class for all library errors."""


class SignatureError(ReproError):
    """A relation symbol is unknown or used with the wrong arity."""


class QueryError(ReproError):
    """A query is malformed (unbound variables, bad syntax, ...)."""


class ParseError(QueryError):
    """The textual query could not be parsed."""


class UnsupportedQueryError(QueryError):
    """The query falls outside the fragment the pipeline supports.

    The paper's reduction is fully general but its constants are
    non-elementary in the query size (see the paper's conclusion); this
    implementation refuses queries whose structure-assisted localization
    would explode rather than silently hanging.
    """


class EvaluationError(ReproError):
    """An internal invariant was violated during evaluation."""


class FrozenStructureError(ReproError):
    """A mutation was attempted on a frozen snapshot structure.

    Commits that overlap live snapshots or answer handles freeze the old
    structure head (its facts back pinned reads forever) and move the
    database to a copy-on-write fork; mutate through the session —
    ``db.transaction()`` / ``db.apply()`` / ``db.insert_fact()`` — not
    through a retained reference to a superseded head.
    """


class GuardedStructureError(ReproError):
    """A session-owned structure was mutated directly.

    A :class:`repro.session.Database` coordinates every write with its
    pinned readers and maintained pipelines; calling ``add_fact`` /
    ``remove_fact`` on the structure behind the session's back would
    silently desynchronize them.  Mutate through the session instead:
    ``db.transaction()`` / ``db.apply()`` / ``db.insert_fact()`` /
    ``db.remove_fact()``.
    """


class DurabilityError(ReproError):
    """The durable store (snapshot + WAL) is corrupt or unusable.

    Raised when a restore finds an inconsistent manifest, a WAL record
    chain with gaps, or a snapshot whose fingerprint disagrees with the
    manifest — and when a live append to the write-ahead log fails, in
    which case the in-memory database stays correct but is no longer
    durable until :meth:`repro.session.Database.checkpoint` succeeds.
    """


class EngineError(ReproError):
    """The batch query engine was misused or hit an internal failure."""


class TransactionError(EngineError):
    """A session transaction was misused.

    Raised for writes on a committed/rolled-back transaction, commits of
    an already-finished transaction, or malformed changeset operations;
    the buffered changes are discarded and the database is untouched.
    """


class StaleResultError(EngineError):
    """A result handle outlived a mutation of its underlying structure.

    Answers computed before the mutation no longer describe the database;
    the engine refuses to serve them.  Re-submit the query to get a handle
    against the current state.
    """


class RetentionLimitError(EngineError):
    """Too many superseded database versions are still pinned.

    Every commit that overlaps a live pin forks the structure and retains
    the superseded head for its readers; ``Database(retention_budget=N)``
    bounds how many superseded versions may be alive at once.  Consume,
    cancel, or close the outstanding snapshots / answer handles — or
    raise the budget — before committing again.
    """


class CancelledResultError(EngineError):
    """The result handle was cancelled before its answers were consumed.

    Every access path — ``page`` / ``stream`` / ``all`` / ``count`` /
    ``test`` — raises this after :meth:`repro.session.Answers.cancel`; a cancelled
    handle never serves the partial prefix it may have pulled.
    """


class ServeError(ReproError):
    """A query-service request failed (:mod:`repro.serve`).

    Carries the HTTP status the server answers with, so the protocol
    layer maps one exception hierarchy onto the wire: 400 for malformed
    requests, 404 for unknown databases/cursors, 409 when the retention
    budget refuses another pinned version, 500 otherwise.
    """

    def __init__(self, message: str, status: int = 500):
        super().__init__(message)
        self.status = status


class WireError(ServeError):
    """A malformed HTTP request or WebSocket frame (status 400)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message, status)


class UnknownDatabaseError(ServeError):
    """The request named a database the registry does not hold (404)."""

    def __init__(self, message: str, status: int = 404):
        super().__init__(message, status)


class UnknownCursorError(ServeError):
    """The request named a cursor that is closed or never existed (404)."""

    def __init__(self, message: str, status: int = 404):
        super().__init__(message, status)


class ServeConnectionError(ServeError):
    """The service tier could not be reached (status 503).

    Raised by :class:`repro.serve.ServeClient` and the follower tailer
    after the retry policy is exhausted: connection refused/reset, DNS
    failure, or a circuit breaker that is still open.  Transient by
    definition — the request may be retried once the peer is back.
    """

    def __init__(self, message: str, status: int = 503):
        super().__init__(message, status)


class ServeTimeoutError(ServeConnectionError):
    """A service request ran past its deadline (status 504)."""

    def __init__(self, message: str, status: int = 504):
        super().__init__(message, status)


class CircuitOpenError(ServeConnectionError):
    """The circuit breaker refused the call without touching the wire.

    After N consecutive failures the breaker opens and fails fast for
    ``reset_after`` seconds instead of hammering a dead peer; the next
    call after the cool-down is a probe that closes it on success.
    """


class ReplicationError(ReproError):
    """A replication follower was misused or lost its feed.

    Raised for writes addressed to a read-only follower, for tailing a
    leader whose lineage diverged from the follower's (different store,
    rewound history), and for follower-side replay failures.
    """


class ReplicaLagError(ReplicationError):
    """A follower read was refused because the replica is too stale.

    ``FollowerDatabase(max_lag=N)`` bounds how many versions a follower
    may trail its leader while still answering reads; past the bound,
    reads raise this (carrying ``lag``, ``version``, and
    ``leader_version``) instead of silently serving stale data.
    """

    def __init__(self, message: str, lag: int = 0, version: int = 0,
                 leader_version: int = 0):
        super().__init__(message)
        self.lag = lag
        self.version = version
        self.leader_version = leader_version


class DurabilityWarning(RuntimeWarning):
    """A durability *accelerator* was dropped, not durability itself.

    Emitted when a warm spill (``warm-<version>.pickle``) cannot be
    written or read back: the snapshot + WAL remain authoritative and
    the store stays fully durable, but the next ``Database.open`` pays a
    cold rebuild for the affected cached pipelines.
    """


class MaintenanceWarning(RuntimeWarning):
    """Warm plan maintenance was skipped; correctness is unaffected.

    Emitted when a pinned commit cannot clone or refresh maintained
    pipelines onto the forked head: the commit itself succeeds and every
    reader stays consistent, but the new head rebuilds the affected
    plans on demand instead of starting warm.
    """
