"""Snapshot-isolated reads: one pinned version, the full query surface.

``db.snapshot()`` returns a :class:`Snapshot` — an immutable view of the
database at the fingerprint/version the call observed.  Reads through it
(``snapshot.query(...)`` → :class:`~repro.session.query.Query` →
:class:`~repro.session.answers.Answers`, sync *and* async) never block
writers and never go stale: while a snapshot (or any answers handle)
pins a version, a committing transaction moves the database head to a
copy-on-write fork and freezes the old structure, so the pinned readers
keep enumerating their version byte-identically — no
:class:`~repro.errors.StaleResultError` on the session API.

Pinning also retains the version's cached pipelines
(:meth:`repro.engine.cache.PipelineCache.retain`): repeated snapshot
queries stay cache-hits.  Closing the snapshot (``close()`` /
``with`` / garbage collection) releases the pin; once the last pin on a
superseded version drops, its derived state is purged.
"""

from __future__ import annotations

import weakref
from typing import Hashable, Optional, Sequence, Union

from repro.engine.cache import coerce_order
from repro.errors import EngineError, StaleResultError
from repro.fo import coerce_formula
from repro.fo.syntax import Formula, Var
from repro.qlang import compile_select, is_select, parse_select
from repro.session.query import Query
from repro.structures.structure import Structure

Element = Hashable


class Snapshot:
    """An immutable, version-pinned read view of one :class:`Database`.

    Quick start::

        with db.snapshot() as snap:
            q = snap.query("B(x) & R(y) & ~E(x,y)")
            before = q.answers().all()
            db.apply(changeset)          # writers proceed freely
            assert q.answers().all() == before   # pinned, byte-identical

    The snapshot observes exactly the facts present when
    ``db.snapshot()`` ran; commits after that are invisible to it.  It
    shares the session's pipeline cache, worker pool, and backends —
    only the structure version is pinned.
    """

    def __init__(
        self,
        database,
        structure: Structure,
        fingerprint: str,
        version: int,
        pin,
        tag: Optional[str] = None,
    ):
        self._db = database
        self._structure = structure
        self._fingerprint = fingerprint
        self._version = version
        # The generation-tagged cache/pin key (distinct from the pure
        # content fingerprint: a later head returning to this content
        # must not reach this version's cached pipelines).
        self._tag = tag if tag is not None else fingerprint
        self._pin = pin
        self._closed = False
        # GC safety net: a dropped-without-close snapshot must not pin
        # its version (and retain its cached pipelines) forever.
        self._finalizer = weakref.finalize(self, pin.release)

    # -- introspection -------------------------------------------------

    @property
    def structure(self) -> Structure:
        """The pinned structure (do not mutate; frozen once superseded)."""
        return self._structure

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @property
    def version(self) -> int:
        return self._version

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise EngineError("this Snapshot is closed")
        self._db._check_open()
        if self._structure.version != self._version:
            # Only a *direct* structure mutation (bypassing the session
            # and its write guard) can move a pinned structure.
            raise StaleResultError(
                "the snapshot's structure was mutated directly (version "
                f"{self._version} -> {self._structure.version}); "
                "snapshot isolation only covers session commits"
            )

    # -- the read surface ----------------------------------------------

    def query(
        self,
        query: Union[Formula, str],
        order: Optional[Sequence[Union[Var, str]]] = None,
        backend=None,
        workers: Optional[int] = None,
        budget=None,
        chunk_rows: Optional[int] = None,
    ) -> Query:
        """Plan ``query`` against the pinned version.

        Same surface as :meth:`Database.query`; the returned
        :class:`Query` (and every :class:`Answers` handle it creates)
        stays on this snapshot's version no matter what commits later.

        qlang ``SELECT`` statements compile here too — against the
        pinned version — and return a
        :class:`repro.qlang.CompiledQuery`.
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
            self._db,
            coerce_formula(query),
            order=coerce_order(order),
            backend=backend,
            workers=workers,
            budget=budget,
            chunk_rows=chunk_rows,
            snapshot=self,
        )

    def count(self, query, order=None, **options) -> int:
        """Convenience: ``snapshot.query(...).count()``."""
        return self.query(query, order=order, **options).count()

    def test(self, query, candidate: Sequence[Element], **options) -> bool:
        """Convenience: ``snapshot.query(...).test(candidate)``."""
        return self.query(query, **options).test(candidate)

    # -- plumbing for Query/Answers ------------------------------------

    def _prepare(self, formula, order=None, budget=None):
        db = self._db
        db._structure_lock.acquire_read()
        try:
            return db._prepare_at(
                self._structure,
                self._tag,
                coerce_formula(formula),
                coerce_order(order),
                budget,
            )
        finally:
            db._structure_lock.release_read()

    def _pin_for_handle(self):
        """A fresh pin for an :class:`Answers` handle derived from this
        snapshot (the handle may outlive the snapshot's own pin)."""
        return self._db._retain(self._tag)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release the version pin.  Idempotent.

        Outstanding :class:`Answers` handles created through this
        snapshot hold their own pins and keep working; new
        ``snapshot.query(...)`` calls raise.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        self._pin.release()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Snapshot(version={self._version}, "
            f"fingerprint={self._fingerprint[:12]}..., {state})"
        )
