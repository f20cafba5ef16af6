""":class:`Database` — the one session object every front-end plugs into.

A ``Database`` owns, for one structure:

* the **pipeline cache** (:class:`repro.engine.cache.PipelineCache`),
  keyed by ``(structure fingerprint, normalized formula, order)``;
* the shared **colored-graph templates** (cluster enumeration depends
  only on ``(arity, link radius)``, so equal-shape queries clone one
  template instead of re-enumerating);
* a lazily-started, crash-restarting **worker pool**
  (:class:`repro.engine.pool.WorkerPool`) that serial workloads never
  pay for;
* the **dynamic maintainers**: every cached plan the local-recomputation
  machinery supports (:class:`repro.core.dynamic.PipelineMaintainer`) is
  kept fresh *in place* through :meth:`insert_fact` /
  :meth:`remove_fact` / :meth:`transaction` / :meth:`apply` — a batch
  commit pays ONE maintenance pass per plan for the whole changeset —
  while ineligible plans get targeted invalidation — the session never
  throws away the whole cache just because one fact changed;
* the **version pins**: :meth:`snapshot` (and every
  :class:`~repro.session.answers.Answers` handle) pins the version it
  was planned against; a commit overlapping a live pin forks the
  structure copy-on-write and freezes the old head, so pinned readers
  keep enumerating byte-identically instead of going stale.

``db.query("...")`` returns a :class:`repro.session.Query` plan object
with ``.count() / .test(tuple) / .answers() / .explain()``; execution
strategy is chosen per plan by the cost model and overridable with
``backend=`` (see :mod:`repro.session.backends`).
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Dict, Hashable, Optional, Sequence, Tuple, Union

from repro.core.colored_graph import ColoredGraph, build_colored_graph
from repro.core.dynamic import (
    PipelineMaintainer,
    apply_ops,
    maintain,
    maintain_in_place,
    net_effects,
    supports_maintenance,
)
from repro.core.pipeline import Pipeline
from repro.engine.cache import CacheKey, PipelineCache, cache_key, coerce_order
from repro.engine.pool import WorkerPool
from repro.errors import (
    DurabilityError,
    EngineError,
    MaintenanceWarning,
    RetentionLimitError,
    SignatureError,
)
from repro.fo import coerce_formula
from repro.fo.syntax import Formula, Var
from repro.qlang import compile_select, is_select, parse_select
from repro.session.query import Query
from repro.session.snapshot import Snapshot
from repro.session.transaction import (
    Changeset,
    CommitResult,
    Transaction,
    coerce_op,
)
from repro.storage.wal import (
    DEFAULT_SEGMENT_BYTES,
    CheckpointResult,
    DurableStore,
    WalRecord,
)
from repro.structures.serialize import fingerprint
from repro.structures.structure import Structure
from repro.util.faults import crash_point

Element = Hashable

_WRITE_GUARD_MESSAGE = (
    "this structure is owned by a Database session; direct "
    "add_fact/remove_fact would desynchronize its pinned readers and "
    "maintained plans — mutate through the session instead: "
    "db.transaction() / db.apply() / db.insert_fact() / db.remove_fact()"
)


class _VersionPin:
    """One revocable hold on a structure version's derived state.

    Held by :class:`~repro.session.snapshot.Snapshot` objects and
    :class:`~repro.session.answers.Answers` handles.  While any pin on
    the current fingerprint is live, commits take the copy-on-write fork
    path (the pinned version stays frozen and byte-identical); releasing
    the last pin on a superseded version purges its cached pipelines.
    ``release()`` is idempotent and safe from any thread (including GC
    finalizers).
    """

    __slots__ = ("_db", "tag", "released")

    def __init__(self, db, tag: str):
        self._db = db
        self.tag = tag
        self.released = False

    def release(self) -> None:
        self._db._release(self)


class _ReadWriteLock:
    """Many concurrent readers XOR one writer, writer-preferring.

    Pipeline builds hold the read side (they overlap freely — that is
    the whole point of the per-key build locks), while
    ``insert_fact``/``remove_fact`` hold the write side, so a mutation
    can never tear a build's structure reads or let a pre-update
    pipeline land in the post-update cache.  Writer preference keeps a
    steady query stream from starving updates.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class Database:
    """One structure, one cache, one pool — every query mode in one place.

    Quick start::

        from repro.session import Database

        with Database(structure, workers=4) as db:
            q = db.query("B(x) & R(y) & ~E(x,y)")
            q.count()                     # Theorem 2.5
            q.test((0, 2))                # Theorem 2.6
            for answer in q.answers():    # Theorem 2.7, constant delay
                ...
            with db.transaction() as tx:  # atomic batch: one
                tx.insert_fact("B", 3)    # maintenance pass per plan
                tx.remove_fact("E", 0, 2)
            q.count()                     # reflects the commit
            with db.snapshot() as snap:   # pinned reads, never stale
                snap.query("B(x)").count()
    """

    def __init__(
        self,
        structure: Structure,
        workers: Optional[int] = None,
        cache_capacity: int = 64,
        retention_budget: int = 64,
    ):
        if workers is not None and workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        if retention_budget < 1:
            raise EngineError(
                f"retention_budget must be >= 1, got {retention_budget}"
            )
        self.structure = structure
        self.workers = workers
        self.pool = WorkerPool(workers)
        self.cache = PipelineCache(cache_capacity)
        # Keyed by (structure fingerprint, arity, link_radius).
        self._graph_templates: Dict[Tuple[str, int, int], ColoredGraph] = {}
        self._maintainers: Dict[CacheKey, PipelineMaintainer] = {}
        self._fingerprint = fingerprint(structure)
        self._version = structure.version
        # Moves when a failed commit drops its maintained plans.  The
        # revert puts the version back, so a held Query compares this
        # too before it reuses the pipeline it resolved.
        self._epoch = 0
        # Cache keys use a *generation-tagged* fingerprint.  The
        # generation (carried by the structure, bumped on every
        # copy-on-write fork, persisted by the serializer) makes entries
        # built against a superseded frozen structure unreachable from a
        # later head whose *content* fingerprint happens to return to
        # the same value (remove-then-reinsert across a fork): the
        # frozen pipeline would serve — and worse, be maintained
        # against — the wrong structure object.
        self._cache_tag = self._tag(self._fingerprint)
        self._closed = False
        # Durability (Database.open / checkpoint): the snapshot + WAL
        # store, None for purely in-memory sessions.  ``_store_broken``
        # latches when a WAL append fails — the in-memory state is then
        # ahead of disk, and further commits are refused until a
        # checkpoint re-establishes a consistent on-disk base.
        self._store: Optional[DurableStore] = None
        self._store_broken = False
        # Incremental checkpoints: (normalized, order) pairs whose
        # plan state changed since the last checkpoint — new builds,
        # refreshes that performed graph surgery, and every plan cloned
        # by a fork.  checkpoint() spills only these; clean plans reuse
        # their previous spill blob.
        self._dirty_plans: set = set()
        # Fork-retention budget: how many superseded versions may stay
        # pinned (by snapshots / answer handles) at once before a commit
        # refuses to fork yet again.
        self._retention_budget = retention_budget
        # Write guard: refuse direct structure.add_fact/remove_fact for
        # session-owned structures (GuardedStructureError names the
        # session API).
        self._guard_installed = False
        if not structure.frozen and structure._write_guard is None:
            structure._write_guard = _WRITE_GUARD_MESSAGE
            self._guard_installed = True
        # Concurrency: the session is thread-safe.  Shared mutable state
        # (cache, templates, maintainers, fingerprint) hides behind one
        # short-critical-section RLock; the *expensive* pipeline builds
        # run outside it under per-cache-key locks, so two cold queries
        # with distinct keys build concurrently while two racing calls
        # for the same key build once (the loser blocks, then cache-hits).
        self._state_lock = threading.RLock()
        # Builds read the structure concurrently; session updates write.
        self._structure_lock = _ReadWriteLock()
        self._locks_guard = threading.Lock()
        # key -> [lock, lease count]; entries live only while a build (or
        # a waiter) holds a lease, so the registry is bounded by the
        # number of in-flight prepares.
        self._build_locks: Dict[CacheKey, list] = {}
        self._template_locks: Dict[Tuple[str, int, int], threading.Lock] = {}
        # fingerprint -> live pin count (snapshots + answers handles).
        # Guarded by _state_lock; a pinned current fingerprint routes
        # commits onto the copy-on-write fork path.
        self._pins: Dict[str, int] = {}

    # -- the public query surface --------------------------------------

    def query(
        self,
        query: Union[Formula, str],
        order: Optional[Sequence[Union[Var, str]]] = None,
        backend=None,
        workers: Optional[int] = None,
        budget=None,
        chunk_rows: Optional[int] = None,
    ) -> Query:
        """Preprocess (or cache-hit) ``query`` and return its plan object.

        ``backend`` forces an execution strategy (``"serial"`` /
        ``"process"``, or any
        :class:`~repro.session.backends.ExecutionBackend`); the default
        ``"auto"`` lets the cost model decide per plan.  ``budget`` (a
        :class:`repro.fo.localize.LocalizationBudget`) bypasses the cache
        — budgets change pipeline shape and are not part of the cache
        key.  ``chunk_rows`` bounds the rows of every answer chunk
        (default: cost-model chunk size).

        A string starting with the ``SELECT`` keyword is a qlang
        statement (``SELECT x, y WHERE <FO formula> ...``): it is
        parsed, compiled onto this session's engine, and returned as a
        :class:`repro.qlang.CompiledQuery` instead of a plain
        :class:`Query` (``order`` comes from the SELECT list there, so
        passing both is an error).
        """
        self._check_open()
        if isinstance(query, str) and is_select(query):
            if order is not None:
                raise EngineError(
                    "a qlang SELECT statement fixes its own column "
                    "order; drop the order= argument"
                )
            return compile_select(
                parse_select(query),
                self,
                backend=backend,
                workers=workers,
                budget=budget,
                chunk_rows=chunk_rows,
            )
        return Query(
            self,
            coerce_formula(query),
            order=coerce_order(order),
            backend=backend,
            workers=workers,
            budget=budget,
            chunk_rows=chunk_rows,
        )

    def count(self, query, order=None, **options) -> int:
        """Convenience: ``db.query(...).count()``."""
        return self.query(query, order=order, **options).count()

    def test(self, query, candidate: Sequence[Element], **options) -> bool:
        """Convenience: ``db.query(...).test(candidate)``."""
        return self.query(query, **options).test(candidate)

    def _tag(self, content_fingerprint: str) -> str:
        """The cache/pin key for one (fork generation, content) state."""
        return f"{self.structure.generation}:{content_fingerprint}"

    # -- snapshot-isolated reads ---------------------------------------

    def snapshot(self) -> Snapshot:
        """An immutable view pinned at the current fingerprint/version.

        Reads through the snapshot never block writers and never raise
        :class:`~repro.errors.StaleResultError`: a commit that overlaps a
        live snapshot moves the database head to a copy-on-write fork and
        freezes the old structure, so the snapshot keeps serving its
        version byte-identically.  Close the snapshot (``with`` / GC) to
        release the pin; the last release on a superseded version purges
        its retained cache entries.
        """
        self._check_open()
        with self._state_lock:
            self._refresh_locked()
            pin = self._retain(self._cache_tag)
            return Snapshot(
                self,
                self.structure,
                self._fingerprint,
                self.structure.version,
                pin,
                tag=self._cache_tag,
            )

    @property
    def version(self) -> int:
        """The head structure's monotonic version (continues across forks)."""
        return self.structure.version

    @property
    def path(self) -> Optional[str]:
        """The durable store directory, or ``None`` for in-memory
        sessions.  This is the path a shared-filesystem follower tails
        (:class:`repro.replication.DirectorySource`)."""
        return self._store.path if self._store is not None else None

    def _head_version(self) -> int:
        """Callable form of :attr:`version` for handle staleness probes."""
        return self.structure.version

    # -- version pinning -----------------------------------------------

    def _retain(self, tag: str) -> _VersionPin:
        """Register one pin on a version tag (caller may hold _state_lock)."""
        with self._state_lock:
            self._pins[tag] = self._pins.get(tag, 0) + 1
            self.cache.retain(tag)
            return _VersionPin(self, tag)

    def _release(self, pin: _VersionPin) -> None:
        with self._state_lock:
            if pin.released:
                return
            pin.released = True
            tag = pin.tag
            self.cache.release(tag)
            count = self._pins.get(tag, 0) - 1
            if count > 0:
                self._pins[tag] = count
                return
            self._pins.pop(tag, None)
            if tag != self._cache_tag:
                # The head moved past this version and nothing reads it
                # anymore: its pipelines are unreachable — purge them.
                self.cache.invalidate(tag)

    def _pin_current(
        self, expected_version: int, expected_epoch: int
    ) -> Optional[_VersionPin]:
        """Pin the head iff it is still at ``expected_version`` and no
        failed commit has dropped maintained plans since ``expected_epoch``.

        Atomic with respect to commits (both sides hold ``_state_lock``),
        so an :class:`Answers` handle that wins a pin is guaranteed its
        pipeline will never be refreshed in place underneath it.
        """
        with self._state_lock:
            self._refresh_locked()
            if (
                self.structure.version != expected_version
                or self._epoch != expected_epoch
            ):
                return None
            return self._retain(self._cache_tag)

    def _pinned_locked(self) -> bool:
        return self._pins.get(self._cache_tag, 0) > 0

    # -- dynamic updates -----------------------------------------------

    def insert_fact(self, relation: str, *elements: Element) -> bool:
        """Insert one fact (an atomic one-op transaction).

        Returns ``True`` when the structure changed (the fact was new).
        Plans the local-recomputation maintainer supports are updated in
        ``O(d^h(|q|))`` — independent of ``n`` — and stay cache-hits;
        only the ineligible plans are invalidated (targeted, not
        whole-cache).  Batch several updates with :meth:`transaction` /
        :meth:`apply` to pay the maintenance pass once for all of them.
        """
        return self._commit([(True, relation, tuple(elements))]).changed

    def remove_fact(self, relation: str, *elements: Element) -> bool:
        """Delete a fact; same maintenance contract as :meth:`insert_fact`."""
        return self._commit([(False, relation, tuple(elements))]).changed

    def transaction(self) -> Transaction:
        """A buffered write transaction committing atomically on exit::

            with db.transaction() as tx:
                tx.insert_fact("E", 0, 1)
                tx.remove_fact("B", 3)
                tx.insert_many("B", [(4,), (5,)])

        The whole changeset commits with one structure-lock acquisition,
        one rolling-fingerprint roll, one maintenance pass per cached
        plan, and one cache re-key; an exception inside the block (or a
        commit-time failure) leaves structure, cache, and fingerprint
        untouched.
        """
        self._check_open()
        return Transaction(self)

    def apply(self, changes) -> CommitResult:
        """Atomically apply a changeset (see :meth:`transaction`).

        ``changes`` is a :class:`~repro.session.transaction.Changeset`
        or any iterable of ``(op, relation, elements)`` triples where
        ``op`` is a bool (insert?) or ``"insert"``/``"remove"``.  Replay
        semantics match calling ``insert_fact``/``remove_fact`` in
        order; no-ops and cancelling pairs are netted out before any
        maintenance runs.
        """
        if isinstance(changes, Changeset):
            ops = list(changes.ops)
        else:
            ops = [coerce_op(op) for op in changes]
        return self._commit(ops)

    def _commit(self, ops, log: bool = True) -> CommitResult:
        """One atomic commit: validate, net, apply, maintain, re-key.

        With a durable store attached, the effective changeset is
        appended to the write-ahead log — flushed and fsync'd — before
        this method returns: a commit is durable once acknowledged.
        ``log=False`` is the WAL-replay mode of :meth:`open` (replayed
        commits are already on disk).
        """
        self._check_open()
        self._structure_lock.acquire_write()
        try:
            with self._state_lock:
                if log and self._store is not None and self._store_broken:
                    raise DurabilityError(
                        "a write-ahead log append failed earlier; the "
                        "in-memory state is ahead of disk — call "
                        "checkpoint() to re-establish durability before "
                        "committing again"
                    )
                self._refresh_locked()
                structure = self.structure
                # Validate everything before touching anything: an
                # atomic commit must fail *entirely* up front.  Domain
                # membership only matters for inserts — removing a fact
                # over unknown elements is a no-op, exactly like the
                # pre-transaction remove_fact contract.
                for insert, relation, elements in ops:
                    symbol = structure.signature.symbol(relation)
                    if len(elements) != symbol.arity:
                        raise SignatureError(
                            f"{relation} has arity {symbol.arity}, got "
                            f"{len(elements)} arguments"
                        )
                    if insert:
                        for element in elements:
                            if element not in structure:
                                raise ValueError(
                                    f"element {element!r} is not in the domain"
                                )
                effective = net_effects(structure, ops)
                version_before = structure.version
                fingerprint_before = self._fingerprint
                if not effective:
                    return CommitResult(
                        ops_submitted=len(ops),
                        ops_effective=0,
                        version_before=version_before,
                        version_after=version_before,
                        fingerprint_before=fingerprint_before,
                        fingerprint_after=fingerprint_before,
                    )
                if self._pinned_locked():
                    maintained = self._commit_forked_locked(effective)
                    forked = True
                else:
                    # Suspend the write guard for the session's own
                    # mutation of the head (restored even on revert).
                    guard = structure._write_guard
                    structure._write_guard = None
                    try:
                        maintained = self._commit_in_place_locked(effective)
                    finally:
                        structure._write_guard = guard
                    forked = False
                result = CommitResult(
                    ops_submitted=len(ops),
                    ops_effective=len(effective),
                    version_before=version_before,
                    version_after=self.structure.version,
                    fingerprint_before=fingerprint_before,
                    fingerprint_after=self._fingerprint,
                    maintained_plans=maintained,
                    forked=forked,
                )
                if log and self._store is not None:
                    self._append_wal(effective, result)
                return result
        finally:
            self._structure_lock.release_write()

    def _commit_in_place_locked(self, effective) -> int:
        """The fast path: nothing pins the current version, so cached
        plans are maintained *in place* — one local-recomputation pass
        per maintained plan for the whole batch (:func:`maintain`) — and
        the cache re-keys to the new fingerprint."""
        self._prune_maintainers()

        def drop():
            for key in self._maintainers:
                self.cache.discard(key)
            self._maintainers.clear()
            self._epoch += 1

        dirty = maintain_in_place(
            list(self._maintainers.values()), [(self.structure, effective)], drop
        )
        for key, changed in zip(self._maintainers, dirty):
            if changed:
                self._dirty_plans.add(key[1:])
        # One fingerprint roll + one cache re-key.  Maintained plans move
        # to the new fingerprint key (still cache-hits); everything else
        # for the old fingerprint is dropped; graph templates are
        # structure-derived, so they rebuild on demand.
        old_tag = self._cache_tag
        self._roll_head_locked()
        kept = self.cache.rekey(
            old_tag,
            self._cache_tag,
            keep=set(self._maintainers),
        )
        self._maintainers = {
            (self._cache_tag,) + key[1:]: maintainer
            for key, maintainer in self._maintainers.items()
        }
        assert kept == len(self._maintainers), "maintained plan lost its entry"
        return kept

    def _commit_forked_locked(self, effective) -> int:
        """The snapshot-isolated path: live pins hold the current
        version, so the commit forks the structure copy-on-write,
        freezes the old head (pinned readers keep it byte-identical
        forever), and moves the session to the fork.  The old version's
        cache entries stay retained until the last pin drops.

        Both heads stay **warm**: every maintained pipeline is cloned
        onto the fork (:meth:`Pipeline.fork` — shared plans, a
        copy-on-write colored graph, private branch state) and
        refreshed with the same one-pass batch maintenance the in-place
        path uses, so the new head's first query is a cache hit instead
        of a cold rebuild.
        The clone work happens strictly before the fork is published;
        any failure degrades to the old cold-rebuild behavior without
        touching the pinned head.
        """
        superseded = sum(1 for tag in self._pins if tag != self._cache_tag)
        if superseded >= self._retention_budget:
            raise RetentionLimitError(
                f"{superseded} superseded versions are still pinned by "
                f"snapshots or answer handles "
                f"(retention_budget={self._retention_budget}); consume, "
                "cancel, or close them — or raise the budget — before "
                "committing again"
            )
        self._prune_maintainers()
        old_structure = self.structure
        new_structure = old_structure.fork()
        clones: Dict[CacheKey, PipelineMaintainer] = {}
        stage = "clone"

        def mutate():
            nonlocal stage
            stage = "apply"
            apply_ops(new_structure, effective)
            # Point of no return — everything before touched only the fork.
            old_structure.freeze()
            self.structure = new_structure
            if self._guard_installed:
                new_structure._write_guard = _WRITE_GUARD_MESSAGE
            # fork() bumped the structure's generation, so the new tag
            # names the new lineage: even if a later commit returns the
            # head to this *content*, the frozen generation's entries
            # stay unreachable.
            self._roll_head_locked()
            stage = "refresh"

        try:
            for key, maintainer in self._maintainers.items():
                clones[key] = PipelineMaintainer(
                    maintainer.pipeline.fork(new_structure)
                )
            maintain(list(clones.values()), effective, mutate)
        except Exception as error:
            if stage == "apply":
                raise
            # Anything a user-defined element or formula atom does inside
            # fork/reach/refresh can surface here.  The frozen head is
            # untouched either way and warmth is best-effort, so warn and
            # let the new head rebuild its plans on demand.
            if stage == "clone":
                what = (
                    f"cloning {len(self._maintainers)} maintained plan(s) "
                    f"onto version {new_structure.version}"
                )
            else:
                what = (
                    f"refreshing {len(clones)} cloned plan(s) for version "
                    f"{new_structure.version}"
                )
            warnings.warn(
                f"warm fork degraded to cold: {what} failed ({error!r}); "
                "the new head rebuilds them on demand",
                MaintenanceWarning,
                stacklevel=3,
            )
            clones = {}
            if stage == "clone":
                mutate()
        self._maintainers = {}
        for key, clone in clones.items():
            new_key = (self._cache_tag,) + key[1:]
            self.cache.put(new_key, clone.pipeline)
            self._maintainers[new_key] = clone
            # Clones are new objects: their previous spill blobs (which
            # reference the superseded head) must not be reused.
            self._dirty_plans.add(key[1:])
        return len(self._maintainers)

    def _append_wal(self, effective, result: CommitResult) -> None:
        """Durably log one acknowledged commit (fsync before return)."""
        record = WalRecord(
            version_before=result.version_before,
            version_after=result.version_after,
            generation=self.structure.generation,
            ops=tuple(effective),
        )
        try:
            self._store.append(record)
        except Exception as error:
            self._store_broken = True
            raise DurabilityError(
                f"write-ahead log append failed: {error}; the commit is "
                "applied in memory but NOT durable — checkpoint() to "
                "restore durability"
            ) from error

    # -- durability (snapshot + WAL) -----------------------------------

    @classmethod
    def open(
        cls,
        path,
        structure: Optional[Structure] = None,
        sync: bool = True,
        load_warm: bool = True,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        **options,
    ) -> "Database":
        """Open (or create) a durable database at ``path``.

        When ``path`` holds a store, the latest snapshot is loaded, the
        intact write-ahead-log tail is replayed (torn trailing records —
        crash artifacts of unacknowledged commits — are truncated), and
        the spilled warm pipeline cache is reloaded so the first query
        against a previously-prepared plan skips preprocessing entirely.
        When ``path`` is empty, ``structure`` seeds a new store with an
        initial snapshot.  Every later commit through the returned
        session is appended to the WAL (fsync before acknowledge, unless
        ``sync=False``); call :meth:`checkpoint` to rotate the log into
        a fresh snapshot + warm spill.  ``load_warm=False`` forces a
        cold reopen (used by recovery benchmarks).  Remaining keyword
        ``options`` go to the :class:`Database` constructor.
        """
        store = DurableStore(path, sync=sync, segment_bytes=segment_bytes)
        if store.exists():
            if structure is not None:
                raise DurabilityError(
                    f"{os.fspath(path)!r} already holds a database; open "
                    "it without structure= (or point at an empty "
                    "directory to create a new one)"
                )
            restored = store.restore(load_warm=load_warm)
            head = restored.warm_structure or restored.structure
            # A pickled head may carry the previous session's guard.
            head._write_guard = None
            db = cls(head, **options)
            db._store = store
            try:
                if restored.warm_entries:
                    db._seed_warm_entries(restored.warm_entries)
                db._replay_wal(restored.records)
            except BaseException:
                db._store = None
                db.close()
                store.close()
                raise
            return db
        if structure is None:
            raise DurabilityError(
                f"no database at {os.fspath(path)!r}; pass structure= "
                "to create one"
            )
        db = cls(structure, **options)
        try:
            store.initialize(structure)
        except BaseException:
            db.close()
            store.close()
            raise
        db._store = store
        return db

    @property
    def durable(self) -> bool:
        """True when commits are written ahead to a :class:`DurableStore`."""
        return self._store is not None

    def checkpoint(self) -> CheckpointResult:
        """Rotate the WAL into a fresh snapshot + warm pipeline spill.

        Blocks commits for the duration (queries proceed).  The head
        structure is snapshotted with its version/generation lineage,
        the current head's warm pipelines are pickled alongside it (so
        the next :meth:`open` answers its first cached-plan query
        without re-running preprocessing), the manifest swaps
        atomically, and the now-redundant WAL prefix is truncated.  Also
        the recovery path after a WAL append failure: a successful
        checkpoint re-establishes a consistent on-disk base.
        """
        self._check_open()
        if self._store is None:
            raise EngineError(
                "this Database has no durable store; create one with "
                "Database.open(path, structure=...)"
            )
        self._structure_lock.acquire_write()
        try:
            with self._state_lock:
                self._refresh_locked()
                entries = [
                    (key[1], key[2], pipeline)
                    for key, pipeline in self.cache.entries_for(self._cache_tag)
                    if pipeline.structure is self.structure
                ]
                result = self._store.checkpoint(
                    self.structure, entries, dirty_keys=set(self._dirty_plans)
                )
                self._dirty_plans.clear()
                self._store_broken = False
                return result
        finally:
            self._structure_lock.release_write()

    def wal_shipment(self, after_version: int, limit: int = 1000) -> dict:
        """One replication batch: the WAL tail past ``after_version``.

        The unit the service tier ships to followers (``GET
        /db/{name}/wal?from=V`` and the WebSocket push).  Records are
        returned as their raw WAL lines, so the CRC framing survives
        end-to-end and the follower re-validates every record it
        applies.  ``reseed`` tells a follower its position predates the
        retained log (a checkpoint retired the segments it needed): it
        must re-seed from the current snapshot.  ``more`` flags a hit
        ``limit``.
        """
        self._check_open()
        if self._store is None:
            raise EngineError(
                "this Database has no durable store to ship; followers "
                "tail the write-ahead log of Database.open() sessions"
            )
        crash_point("ship.batch")
        base_version = self._store.manifest_version()
        records, more = self._store.records_since(after_version, limit=limit)
        if records:
            reseed = records[0].version_before > after_version
        else:
            reseed = after_version < base_version
        return {
            "leader_version": self.version,
            "base_version": base_version,
            "reseed": reseed,
            "more": more,
            "records": [record.to_line().rstrip("\n") for record in records],
        }

    def _seed_warm_entries(self, entries) -> int:
        """Adopt spilled ``(formula, order, pipeline)`` entries as
        head cache entries, re-attaching dynamic maintainers so replayed
        WAL commits maintain them instead of invalidating them."""
        seeded = 0
        with self._state_lock:
            tag = self._cache_tag
            for entry in entries:
                try:
                    normalized, order_names, pipeline = entry
                except (TypeError, ValueError):
                    continue
                if pipeline.structure is not self.structure:
                    continue
                key = (tag, normalized, order_names)
                self.cache.put(key, pipeline)
                seeded += 1
                if key not in self._maintainers and supports_maintenance(
                    pipeline
                ):
                    self._maintainers[key] = PipelineMaintainer(pipeline)
        return seeded

    def _replay_wal(self, records) -> int:
        """Re-commit the WAL tail (records past the snapshot) in order.

        Replay runs through the ordinary commit path with logging off —
        maintained (possibly just-reloaded) plans stay warm across it —
        and ends with a lineage fixup: in-place replay never forks, so
        the generation recorded by the final WAL record is adopted
        explicitly.
        """
        replayed = 0
        last: Optional[WalRecord] = None
        for record in records:
            if record.version_after <= self.structure.version:
                continue  # pre-snapshot overlap (checkpoint raced a crash)
            if record.version_before != self.structure.version:
                raise DurabilityError(
                    f"write-ahead log gap: the next record expects "
                    f"version {record.version_before}, but the store "
                    f"replayed to {self.structure.version}"
                )
            self._commit(list(record.ops), log=False)
            if self.structure.version != record.version_after:
                raise DurabilityError(
                    f"replay diverged: a commit landed at version "
                    f"{self.structure.version} where the log recorded "
                    f"{record.version_after}"
                )
            replayed += 1
            last = record
        if last is not None and last.generation != self.structure.generation:
            self._restore_generation(last.generation)
        return replayed

    def _restore_generation(self, generation: int) -> None:
        """Adopt the persisted fork generation after WAL replay.

        Intermediate generations need no replay — nothing can pin a
        version that died with the previous process — so one final jump
        restores the lineage; warm cache entries and maintainers move to
        the corrected tag.
        """
        with self._state_lock:
            if generation == self.structure.generation:
                return
            old_tag = self._cache_tag
            self.structure._restore_lineage(self.structure.version, generation)
            self._cache_tag = self._tag(self._fingerprint)
            keep = {key for key, _ in self.cache.entries_for(old_tag)}
            self.cache.rekey(old_tag, self._cache_tag, keep=keep)
            self._maintainers = {
                (
                    (self._cache_tag,) + key[1:]
                    if key[0] == old_tag
                    else key
                ): maintainer
                for key, maintainer in self._maintainers.items()
            }

    # -- structure staleness -------------------------------------------

    @property
    def structure_fingerprint(self) -> str:
        with self._state_lock:
            self._refresh_locked()
            return self._fingerprint

    def _refresh(self) -> None:
        with self._state_lock:
            self._refresh_locked()

    def _refresh_locked(self) -> None:
        """Detect *external* mutations and invalidate every derived cache.

        Updates applied through :meth:`insert_fact` / :meth:`remove_fact`
        never reach this path; a direct ``structure.add_fact`` by the
        caller does, and costs the full fingerprint-keyed invalidation —
        the maintainers never saw the pre-update neighborhoods, so their
        pipelines cannot be trusted.
        """
        if self.structure.version == self._version:
            return
        stale_tag = self._cache_tag
        self._roll_head_locked()
        self._maintainers.clear()
        self.cache.invalidate(stale_tag)

    def _roll_head_locked(self) -> None:
        """Re-derive the head's fingerprint, cache tag, and version after
        a mutation; graph templates are structure-derived, so they are
        dropped and rebuild on demand."""
        self._fingerprint = fingerprint(self.structure)
        self._cache_tag = self._tag(self._fingerprint)
        self._version = self.structure.version
        self._graph_templates.clear()
        with self._locks_guard:
            self._template_locks.clear()

    def invalidate(self) -> None:
        """Drop every cached pipeline, maintainer, and graph template."""
        with self._state_lock:
            self._maintainers.clear()
            self.cache.invalidate()
            self._roll_head_locked()

    # -- shared preprocessing ------------------------------------------

    def _lease_build_lock(self, key: CacheKey) -> threading.Lock:
        """Take a lease on the per-cache-key build lock.

        Distinct keys get distinct locks, so cold builds of *different*
        queries overlap; racing builds of the *same* key serialize and
        the loser lands on the winner's cache entry.  Leasing (instead
        of pruning idle locks) guarantees a lock handed to one thread is
        never replaced under another: the entry lives exactly as long as
        some ``_prepare`` call holds a lease, so the registry is bounded
        by the number of concurrent ``_prepare`` calls.  Pair with
        :meth:`_release_build_lock`.
        """
        with self._locks_guard:
            entry = self._build_locks.get(key)
            if entry is None:
                entry = self._build_locks[key] = [threading.Lock(), 0]
            entry[1] += 1
            return entry[0]

    def _release_build_lock(self, key: CacheKey) -> None:
        with self._locks_guard:
            entry = self._build_locks.get(key)
            if entry is not None:
                entry[1] -= 1
                if entry[1] <= 0:
                    del self._build_locks[key]

    def _template_lock_for(self, key) -> threading.Lock:
        with self._locks_guard:
            lock = self._template_locks.get(key)
            if lock is None:
                lock = self._template_locks[key] = threading.Lock()
            return lock

    def _graph_factory_for(self, tag: str):
        """Clone-from-template colored graph construction, bound to one
        structure version.

        Guarded per ``(version tag, arity, link_radius)``: concurrent
        cold builds of equal-shape queries enumerate cluster tuples
        once; different shapes build their templates in parallel.  The
        generation-tagged fingerprint in the key makes a template built
        against one structure state unreachable from any other —
        snapshot builds at an old version and head builds at the new
        one never share.
        """

        def factory(structure, evaluator, arity, link_radius, max_nodes=5_000_000):
            key = (tag, arity, link_radius)
            with self._template_lock_for(key):
                template = self._graph_templates.get(key)
                if template is None:
                    template = build_colored_graph(
                        structure, evaluator, arity, link_radius, max_nodes=max_nodes
                    )
                    self._graph_templates[key] = template
            return template.clone()

        return factory

    def _prepare(
        self,
        query: Union[Formula, str],
        order: Optional[Sequence[Union[Var, str]]] = None,
        budget=None,
    ) -> Tuple[Pipeline, Optional[CacheKey]]:
        """The cached pipeline for a query at the *head* version
        (building it on a miss).

        Thread-safe: the whole call holds the structure lock's *read*
        side (session commits hold the write side, so a mutation can
        neither tear a build's structure reads nor slip between key
        computation and cache insertion).  Mutating the structure
        *directly* (not through the session) is refused by the write
        guard; should a version bump happen anyway, the next access
        falls back to full fingerprint-keyed invalidation.
        """
        formula = coerce_formula(query)
        variable_order = coerce_order(order)
        self._structure_lock.acquire_read()
        try:
            with self._state_lock:
                self._refresh_locked()
                structure = self.structure
                tag = self._cache_tag
            return self._prepare_at(
                structure, tag, formula, variable_order, budget
            )
        finally:
            self._structure_lock.release_read()

    def _prepare_at(
        self,
        structure: Structure,
        tag: str,
        formula: Formula,
        variable_order: Optional[Tuple[Var, ...]],
        budget=None,
    ) -> Tuple[Pipeline, Optional[CacheKey]]:
        """The cached pipeline for a query at one pinned version.

        Shared by head prepares and snapshot prepares; the caller holds
        the structure lock's read side.  Cache bookkeeping runs under
        the session state lock, and the expensive :class:`Pipeline`
        build runs under the key's own lease
        (:meth:`_lease_build_lock`) — distinct cold queries do not
        serialize their builds behind one another.  Dynamic maintainers
        attach only to plans built at the current head (superseded
        versions are frozen — there is nothing to maintain).
        """
        if budget is not None:
            # Budgets change pipeline shape but are not part of the
            # cache key; budgeted plans are built fresh, never cached.
            pipeline = Pipeline(
                structure,
                formula,
                order=variable_order,
                budget=budget,
            )
            return pipeline, None
        key = cache_key(tag, formula, variable_order)
        build_lock = self._lease_build_lock(key)
        try:
            with build_lock:
                with self._state_lock:
                    pipeline = self.cache.get(key)
                if pipeline is None:
                    pipeline = Pipeline(
                        structure,
                        formula,
                        order=variable_order,
                        graph_factory=self._graph_factory_for(tag),
                    )
                    with self._state_lock:
                        self.cache.put(key, pipeline)
                        self._dirty_plans.add(key[1:])
                with self._state_lock:
                    if (
                        structure is self.structure
                        and tag == self._cache_tag
                        and key not in self._maintainers
                        and supports_maintenance(pipeline)
                    ):
                        self._maintainers[key] = PipelineMaintainer(pipeline)
                    self._prune_maintainers()
        finally:
            self._release_build_lock(key)
        return pipeline, key

    def _prune_maintainers(self) -> None:
        """Cache evictions may drop maintained plans; never maintain
        pipelines nothing can hit anymore."""
        if self._maintainers:
            self._maintainers = {
                key: maintainer
                for key, maintainer in self._maintainers.items()
                if key in self.cache
            }

    def _is_maintained(self, key: Optional[CacheKey]) -> bool:
        return key is not None and key in self._maintainers

    # -- observability -------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Cache + template + maintainer + pool observability counters."""
        stats = self.cache.stats()
        stats["graph_templates"] = len(self._graph_templates)
        stats["maintained_plans"] = len(self._maintainers)
        with self._state_lock:
            stats["pinned_versions"] = len(self._pins)
            stats["superseded_pinned_versions"] = sum(
                1 for tag in self._pins if tag != self._cache_tag
            )
            stats["retention_budget"] = self._retention_budget
            stats["durable"] = int(self._store is not None)
        if self._store is not None:
            wal = self._store.stats()
            stats["wal_records"] = wal["wal_records"]
            stats["wal_bytes"] = wal["wal_bytes"]
            stats["wal_segments"] = wal["wal_segments"]
            stats["dirty_plans"] = len(self._dirty_plans)
        stats.update(
            {f"pool_{key}": value for key, value in self.pool.stats().items()}
        )
        return stats

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise EngineError("this Database session is closed")

    def close(self) -> None:
        """Shut down the owned worker pool.  Idempotent.

        Outstanding :class:`~repro.session.answers.Answers` handles keep
        any answers they already pulled; new queries (and new parallel
        pulls through the pool) raise :class:`repro.errors.EngineError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._guard_installed and not self.structure.frozen:
            self.structure._write_guard = None
        if self._store is not None:
            self._store.close()
        self.pool.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Database(n={self.structure.cardinality}, "
            f"cache={len(self.cache)}, maintained={len(self._maintainers)}, "
            f"{state})"
        )
