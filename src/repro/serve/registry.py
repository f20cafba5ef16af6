"""Multi-tenant database registry for the serve tier.

One server process fronts many named :class:`repro.session.Database`
instances — in-memory workloads and ``Database.open()`` durable stores
side by side.  The registry owns their lifecycle (``close_all`` on
shutdown, with durable stores checkpointed first by the server) and
hands each one a lazily-created per-database asyncio write lock so
concurrent ``/apply`` requests serialize per tenant without blocking
each other across tenants.  Reads never take the lock: MVCC snapshot
pins make them safe against concurrent commits.

Ownership: a database the registry opened (``create`` / ``open``)
or was handed with ``close_on_shutdown=True`` is closed by ``close_all``
— which also shuts down its worker pool.  One added with
``close_on_shutdown=False`` stays the caller's: the server never closes
it, so its lazily started pool (threads and worker processes) lives on
after the server stops until the caller calls ``db.close()``.
"""

from __future__ import annotations

import asyncio
import re
import threading
from typing import Dict, Iterator, List, Optional

from repro.errors import ServeError, UnknownDatabaseError
from repro.session import Database

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")


class RegisteredDatabase:
    """One tenant: the database plus its serve-side bookkeeping."""

    def __init__(self, name: str, db: Database, close_on_shutdown: bool = True):
        self.name = name
        self.db = db
        self.close_on_shutdown = close_on_shutdown
        self._write_lock: Optional[asyncio.Lock] = None
        self._commit_condition: Optional[asyncio.Condition] = None

    def write_lock(self) -> asyncio.Lock:
        """The per-database commit lock (created on first use so the
        registry can be built before any event loop exists)."""
        if self._write_lock is None:
            self._write_lock = asyncio.Lock()
        return self._write_lock

    def commit_condition(self) -> asyncio.Condition:
        """The per-database commit broadcast (lazy, like the lock).

        ``/apply`` notifies it after every commit so WAL long-polls and
        WebSocket push pumps wake immediately instead of busy-polling
        the store.
        """
        if self._commit_condition is None:
            self._commit_condition = asyncio.Condition()
        return self._commit_condition

    async def notify_commit(self) -> None:
        condition = self.commit_condition()
        async with condition:
            condition.notify_all()

    async def wait_commit(self, timeout: float) -> bool:
        """Park until the next commit notification (or ``timeout``).

        Purely an efficiency wake-up: callers re-read the WAL either
        way, so a commit landing through a path that never notifies
        (another process appending to a shared store) is still picked
        up on the next poll.
        """
        condition = self.commit_condition()
        async with condition:
            try:
                await asyncio.wait_for(condition.wait(), timeout)
                return True
            except asyncio.TimeoutError:
                return False


class DatabaseRegistry:
    """Thread-safe name → :class:`RegisteredDatabase` mapping."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[str, RegisteredDatabase] = {}

    def add(
        self, name: str, db: Database, close_on_shutdown: bool = True
    ) -> RegisteredDatabase:
        """Register an existing database under ``name``.

        With ``close_on_shutdown=False`` the caller keeps ownership:
        server shutdown drains the tenant's cursors but leaves the
        database open (the in-process test-server pattern).
        """
        if not _NAME_RE.match(name or ""):
            raise ServeError(
                f"bad database name {name!r} (want 1-64 chars of "
                "[A-Za-z0-9_.-])",
                status=400,
            )
        entry = RegisteredDatabase(name, db, close_on_shutdown)
        with self._lock:
            if name in self._entries:
                raise ServeError(f"database {name!r} already registered", 409)
            self._entries[name] = entry
        return entry

    def create(self, name: str, structure, **options) -> RegisteredDatabase:
        """Register a fresh in-memory database over ``structure``."""
        return self.add(name, Database(structure, **options))

    def open(self, name: str, path, **options) -> RegisteredDatabase:
        """Register a durable store via :meth:`Database.open`."""
        return self.add(name, Database.open(path, **options))

    def get(self, name: str) -> RegisteredDatabase:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise UnknownDatabaseError(f"no database named {name!r}")
        return entry

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def remove(self, name: str, close: bool = True) -> None:
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            raise UnknownDatabaseError(f"no database named {name!r}")
        if close:
            entry.db.close()

    def entries(self) -> List[RegisteredDatabase]:
        with self._lock:
            return [self._entries[name] for name in sorted(self._entries)]

    def close_all(self) -> None:
        """Close every registered database that the registry owns."""
        with self._lock:
            entries, self._entries = list(self._entries.values()), {}
        for entry in entries:
            if entry.close_on_shutdown:
                entry.db.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())
