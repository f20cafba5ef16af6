"""The asyncio query server: HTTP endpoints + WebSocket cursor streams.

One :class:`QueryServer` fronts a :class:`~repro.serve.registry.DatabaseRegistry`
over a single listening socket:

===========================================  =====================================
``GET /healthz``                             liveness (503 once shutdown starts)
``GET /dbs``                                 registered database names
``GET /db/{name}/stats``                     session counters + WAL + cursor count
``POST /db/{name}/query``                    one-shot query, or open an HTTP cursor
``POST /db/{name}/cursor/{id}/next``         pull the next page of an HTTP cursor
``DELETE /db/{name}/cursor/{id}``            close an HTTP cursor (releases pin)
``POST /db/{name}/apply``                    JSONL changeset → ``db.apply()``
``POST /db/{name}/checkpoint``               rotate the durable store's WAL
``GET /db/{name}/wal?from=V``                one replication batch (``&wait=S``
                                             long-polls for the next commit)
``GET /db/{name}/snapshot``                  serialized structure for re-seeding
``GET /db/{name}/stream`` (WebSocket)        snapshot-pinned streaming cursors
                                             + ``{"action": "wal"}`` push feed
===========================================  =====================================

Every blocking engine call runs in the default executor, so the event
loop only ever does parsing and socket I/O.  Per-database write locks
serialize ``/apply`` within a tenant; reads never wait on writers (MVCC
pins).  WebSocket pages flow producer → bounded queue → socket, so a
slow client stalls only its own cursor at ``queue_pages`` of readahead.

Graceful shutdown (:meth:`QueryServer.stop`): stop accepting, close
every cursor (releasing all version pins), cancel the connection tasks,
checkpoint durable stores, and optionally close the databases.
"""

from __future__ import annotations

import asyncio
import json
import struct
import threading
from typing import Dict, Optional, Set, Tuple

from repro.errors import (
    EngineError,
    ReproError,
    ServeError,
    UnknownCursorError,
    WireError,
)
from repro.serve import wire
from repro.serve.cursors import DEFAULT_PAGE_SIZE, Cursor, CursorSet, open_cursor
from repro.serve.protocol import error_payload, error_status
from repro.serve.registry import DatabaseRegistry, RegisteredDatabase
from repro.serve.wire import (
    OP_BINARY,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    HttpRequest,
    encode_frame,
    json_body,
    read_frame,
    read_request,
    render_response,
)

_CHUNK_PREFIX = struct.Struct("!I")


class QueryServer:
    """Serve a registry of databases over HTTP + WebSocket."""

    def __init__(
        self,
        registry: DatabaseRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        page_size_default: int = DEFAULT_PAGE_SIZE,
        cursor_timeout: Optional[float] = 300.0,
        max_body_bytes: int = 16 * 1024 * 1024,
        max_record_bytes: int = 1024 * 1024,
        queue_pages: int = 4,
        checkpoint_on_shutdown: bool = True,
        close_databases: bool = True,
    ):
        self.registry = registry
        self.host = host
        self._requested_port = port
        self.page_size_default = page_size_default
        self.max_body_bytes = max_body_bytes
        self.max_record_bytes = max_record_bytes
        self.queue_pages = max(1, queue_pages)
        self.checkpoint_on_shutdown = checkpoint_on_shutdown
        self.close_databases = close_databases
        self.cursors = CursorSet(timeout=cursor_timeout)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._reaper: Optional[asyncio.Task] = None
        self._stopping = False
        self._stopped = asyncio.Event()

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "QueryServer":
        if self._server is not None:
            raise ServeError("server already started")
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port
        )
        if self.cursors.timeout is not None:
            self._reaper = asyncio.create_task(self._reap_loop())
        return self

    async def _reap_loop(self) -> None:
        interval = max(1.0, self.cursors.timeout / 4)
        while True:
            await asyncio.sleep(interval)
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.cursors.reap)

    async def stop(self) -> None:
        """Graceful shutdown; safe to call more than once."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._reaper is not None:
            self._reaper.cancel()
            self._reaper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        # Closing the cursors releases every version pin; in-flight
        # pulls are waited out by the per-cursor thread lock.
        await loop.run_in_executor(None, self.cursors.close_all)
        connections, self._connections = set(self._connections), set()
        for task in connections:
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        if self.checkpoint_on_shutdown:
            for entry in self.registry.entries():
                if entry.db.durable and not entry.db.closed:
                    await loop.run_in_executor(None, entry.db.checkpoint)
        if self.close_databases:
            await loop.run_in_executor(None, self.registry.close_all)
        self._stopped.set()

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling --------------------------------------------

    def _on_connection(self, reader, writer) -> None:
        task = asyncio.create_task(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader, self.max_body_bytes)
                except WireError as error:
                    writer.write(
                        render_response(
                            error.status,
                            json_body(error_payload(error)),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                if request.wants_websocket:
                    await self._serve_stream(request, reader, writer)
                    return
                response, keep_alive = await self._respond(request)
                writer.write(response)
                await writer.drain()
                if not keep_alive:
                    return
        except (
            asyncio.CancelledError,
            ConnectionError,
            BrokenPipeError,
            TimeoutError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _respond(self, request: HttpRequest) -> Tuple[bytes, bool]:
        keep_alive = request.keep_alive and not self._stopping
        try:
            status, payload = await self._dispatch(request)
        except ReproError as error:
            status, payload = error_status(error), error_payload(error)
        except Exception as error:  # never let a handler kill the loop
            status, payload = 500, error_payload(error)
        return (
            render_response(status, json_body(payload), keep_alive=keep_alive),
            keep_alive,
        )

    # -- HTTP routing ---------------------------------------------------

    async def _dispatch(self, request: HttpRequest) -> Tuple[int, dict]:
        method, path = request.method, request.path
        if path == "/healthz":
            if method != "GET":
                raise ServeError("use GET", 405)
            if self._stopping:
                return 503, {"ok": False, "stopping": True}
            return 200, {"ok": True, "databases": len(self.registry)}
        if path == "/dbs":
            if method != "GET":
                raise ServeError("use GET", 405)
            return 200, {"databases": self.registry.names()}
        parts = [part for part in path.split("/") if part]
        if len(parts) >= 2 and parts[0] == "db":
            if self._stopping:
                raise ServeError("server is shutting down", 503)
            entry = self.registry.get(parts[1])
            tail = parts[2:]
            if tail == ["stats"] and method == "GET":
                return await self._handle_stats(entry)
            if tail == ["query"] and method == "POST":
                return await self._handle_query(entry, request)
            if tail == ["apply"] and method == "POST":
                return await self._handle_apply(entry, request)
            if tail == ["checkpoint"] and method == "POST":
                return await self._handle_checkpoint(entry)
            if tail == ["wal"]:
                if method != "GET":
                    raise ServeError("use GET", 405)
                return await self._handle_wal(entry, request)
            if tail == ["snapshot"]:
                if method != "GET":
                    raise ServeError("use GET", 405)
                return await self._handle_snapshot(entry)
            if len(tail) == 3 and tail[0] == "cursor" and tail[2] == "next":
                if method != "POST":
                    raise ServeError("use POST", 405)
                return await self._handle_cursor_next(tail[1])
            if len(tail) == 2 and tail[0] == "cursor":
                if method != "DELETE":
                    raise ServeError("use DELETE", 405)
                self.cursors.close(tail[1])
                return 200, {"closed": tail[1]}
        raise ServeError(f"no route for {method} {path}", 404)

    async def _handle_stats(self, entry: RegisteredDatabase) -> Tuple[int, dict]:
        loop = asyncio.get_running_loop()
        stats = await loop.run_in_executor(None, entry.db.stats)
        stats["name"] = entry.name
        stats["version"] = entry.db.version
        stats["open_cursors"] = self.cursors.count(entry.name)
        return 200, stats

    async def _handle_query(
        self, entry: RegisteredDatabase, request: HttpRequest
    ) -> Tuple[int, dict]:
        body = request.json()
        if not isinstance(body, dict) or "query" not in body:
            raise ServeError('body must be JSON with a "query" key', 400)
        text = body["query"]
        if not isinstance(text, str):
            raise ServeError('"query" must be a string', 400)
        mode = body.get("mode", "all")
        limit = body.get("limit")
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            raise ServeError(f'bad "limit": {limit!r}', 400)
        page_size = body.get("page_size", self.page_size_default)
        loop = asyncio.get_running_loop()
        if body.get("cursor"):
            cursor = await loop.run_in_executor(
                None,
                lambda: open_cursor(
                    entry,
                    self.cursors,
                    text,
                    wire="rows",
                    page_size=page_size,
                    limit=limit,
                ),
            )
            return 200, {
                "cursor": cursor.id,
                "columns": list(cursor.columns),
                "version": cursor.version,
                "page_size": cursor.page_size,
            }
        if mode == "count":
            count = await loop.run_in_executor(
                None, lambda: entry.db.query(text).count()
            )
            return 200, {"count": count, "version": entry.db.version}
        if mode != "all":
            raise ServeError(f'bad "mode": {mode!r} (all or count)', 400)

        def run_all():
            q = entry.db.query(text)
            if hasattr(q, "statement"):  # a compiled SELECT
                rows = q.all()
                return rows, list(q.columns), q.query._resolved_version
            handle = q.answers(limit=limit)
            rows = handle.all()
            return rows, [v.name for v in q.variables], handle._version

        rows, columns, version = await loop.run_in_executor(None, run_all)
        return 200, {
            "rows": [list(row) for row in rows],
            "columns": columns,
            "version": version,
        }

    async def _handle_cursor_next(self, cursor_id: str) -> Tuple[int, dict]:
        cursor = self.cursors.get(cursor_id)
        loop = asyncio.get_running_loop()
        async with cursor.lock():
            payload, done = await loop.run_in_executor(None, cursor.pull)
        if done:
            self.cursors.discard(cursor)
        return 200, {
            "cursor": cursor.id,
            "rows": [list(row) for row in payload],
            "done": done,
        }

    async def _handle_apply(
        self, entry: RegisteredDatabase, request: HttpRequest
    ) -> Tuple[int, dict]:
        from repro.session import load_changeset_jsonl

        lines = request.body.split(b"\n")
        loop = asyncio.get_running_loop()

        def parse_and_apply():
            changeset = load_changeset_jsonl(
                lines,
                structure=entry.db.structure,
                max_record_bytes=self.max_record_bytes,
            )
            return entry.db.apply(changeset)

        async with entry.write_lock():
            result = await loop.run_in_executor(None, parse_and_apply)
        # Wake WAL long-polls and push pumps: a new batch may be ready.
        await entry.notify_commit()
        return 200, {
            "ops_submitted": result.ops_submitted,
            "ops_effective": result.ops_effective,
            "version_before": result.version_before,
            "version_after": result.version_after,
            "fingerprint_after": result.fingerprint_after,
            "maintained_plans": result.maintained_plans,
            "forked": result.forked,
        }

    async def _handle_checkpoint(
        self, entry: RegisteredDatabase
    ) -> Tuple[int, dict]:
        if not entry.db.durable:
            raise ServeError(f"database {entry.name!r} is not durable", 400)
        loop = asyncio.get_running_loop()
        async with entry.write_lock():
            result = await loop.run_in_executor(None, entry.db.checkpoint)
        return 200, {
            "version": result.version,
            "generation": result.generation,
            "fingerprint": result.fingerprint,
            "warm_entries": result.warm_entries,
            "wal_records_retired": result.wal_records_retired,
            "wal_bytes_retired": result.wal_bytes_retired,
        }

    # -- replication ----------------------------------------------------

    _WAL_LIMIT_MAX = 10_000
    _WAL_WAIT_MAX = 30.0

    async def _handle_wal(
        self, entry: RegisteredDatabase, request: HttpRequest
    ) -> Tuple[int, dict]:
        """One replication batch: ``GET /db/{name}/wal?from=V``.

        ``&limit=N`` bounds the batch; ``&wait=S`` long-polls — when the
        follower is already caught up, the request parks on the tenant's
        commit condition (up to S seconds, capped) so followers ride
        commits with one open request instead of a busy poll.
        """
        query = request.query
        try:
            after = int(query.get("from", "0"))
            limit = int(query.get("limit", "1000"))
            wait = float(query.get("wait", "0"))
        except (TypeError, ValueError):
            raise ServeError(
                "bad wal parameters: from/limit must be integers, "
                "wait a number of seconds",
                400,
            ) from None
        if after < 0 or limit < 1:
            raise ServeError("bad wal parameters: from < 0 or limit < 1", 400)
        limit = min(limit, self._WAL_LIMIT_MAX)
        loop = asyncio.get_running_loop()

        def ship():
            return entry.db.wal_shipment(after, limit=limit)

        shipment = await loop.run_in_executor(None, ship)
        if (
            wait > 0
            and not shipment["records"]
            and not shipment["reseed"]
            and not self._stopping
        ):
            await entry.wait_commit(min(wait, self._WAL_WAIT_MAX))
            shipment = await loop.run_in_executor(None, ship)
        return 200, shipment

    async def _handle_snapshot(
        self, entry: RegisteredDatabase
    ) -> Tuple[int, dict]:
        """The serialized structure a follower re-seeds from.

        Serialized under a snapshot pin, so a concurrent ``/apply``
        forks away instead of tearing the dump; the text format carries
        the version/generation lineage directives a follower needs to
        resume the exact history position.
        """
        from repro.structures.serialize import dumps

        loop = asyncio.get_running_loop()

        def grab():
            with entry.db.snapshot() as snap:
                structure = snap.structure
                return {
                    "structure": dumps(structure),
                    "version": snap.version,
                    "generation": structure.generation,
                    "fingerprint": structure.content_fingerprint(),
                }

        return 200, await loop.run_in_executor(None, grab)

    # -- WebSocket streaming --------------------------------------------

    async def _serve_stream(self, request: HttpRequest, reader, writer) -> None:
        parts = [part for part in request.path.split("/") if part]
        if len(parts) != 3 or parts[0] != "db" or parts[2] != "stream":
            writer.write(
                render_response(
                    404,
                    json_body({"error": f"no stream at {request.path}"}),
                    keep_alive=False,
                )
            )
            await writer.drain()
            return
        if self._stopping:
            writer.write(
                render_response(
                    503,
                    json_body({"error": "server is shutting down"}),
                    keep_alive=False,
                )
            )
            await writer.drain()
            return
        try:
            entry = self.registry.get(parts[1])
        except ReproError as error:
            writer.write(
                render_response(
                    error_status(error),
                    json_body(error_payload(error)),
                    keep_alive=False,
                )
            )
            await writer.drain()
            return
        writer.write(wire.handshake_response(request))
        await writer.drain()
        connection = _StreamConnection(self, entry, reader, writer)
        await connection.run()


class _StreamConnection:
    """One WebSocket connection: control frames in, cursor streams out.

    ``{"action": "open", ...}`` is answered by an ``open`` ack
    (``cursor``, ``index``, ``version``, ``columns``, ``wire``,
    ``page_size``).  A columnar cursor's ack adds ``arity``, the intern
    table (``intern``) and ``chunk_rows`` — an upper bound on the rows of
    each binary chunk that follows, not a fixed size: a work unit's last
    chunk may be short, so chunk boundaries depend on the execution mode
    (the concatenated rows do not).
    """

    def __init__(self, server: QueryServer, entry, reader, writer):
        self.server = server
        self.entry = entry
        self.reader = reader
        self.writer = writer
        self._send_lock = asyncio.Lock()
        self._pumps: Dict[str, asyncio.Task] = {}
        self._cursors: Dict[str, Cursor] = {}

    async def _send(self, opcode: int, payload: bytes) -> None:
        async with self._send_lock:
            self.writer.write(encode_frame(opcode, payload))
            await self.writer.drain()

    async def _send_event(self, event: dict) -> None:
        await self._send(OP_TEXT, json_body(event))

    async def run(self) -> None:
        try:
            while True:
                frame = await read_frame(self.reader, self.server.max_body_bytes)
                if frame is None:
                    return
                opcode, payload = frame
                if opcode == wire.OP_CLOSE:
                    await self._send(wire.OP_CLOSE, payload[:2])
                    return
                if opcode == OP_PING:
                    await self._send(OP_PONG, payload)
                    continue
                if opcode != OP_TEXT:
                    continue
                try:
                    await self._handle_action(json.loads(payload.decode("utf-8")))
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    await self._send_event(
                        {"event": "error", "error": f"bad action JSON: {error}"}
                    )
        except (
            asyncio.CancelledError,
            ConnectionError,
            BrokenPipeError,
            WireError,
        ):
            pass
        finally:
            await self._teardown()

    async def _teardown(self) -> None:
        pumps, self._pumps = dict(self._pumps), {}
        for task in pumps.values():
            task.cancel()
        if pumps:
            await asyncio.gather(*pumps.values(), return_exceptions=True)
        cursors, self._cursors = dict(self._cursors), {}
        if cursors:
            loop = asyncio.get_running_loop()
            for cursor in cursors.values():
                await asyncio.shield(
                    loop.run_in_executor(
                        None, self.server.cursors.discard, cursor
                    )
                )

    async def _handle_action(self, action) -> None:
        if not isinstance(action, dict):
            await self._send_event(
                {"event": "error", "error": "action must be a JSON object"}
            )
            return
        kind = action.get("action")
        if kind == "open":
            await self._open_cursor(action)
        elif kind == "close":
            await self._close_cursor(action.get("cursor"))
        elif kind == "wal":
            await self._open_wal_feed(action)
        elif kind == "ping":
            await self._send_event({"event": "pong"})
        else:
            await self._send_event(
                {"event": "error", "error": f"unknown action {kind!r}"}
            )

    async def _open_cursor(self, action: dict) -> None:
        text = action.get("query")
        if not isinstance(text, str):
            await self._send_event(
                {"event": "error", "error": 'open needs a "query" string'}
            )
            return
        wire_mode = action.get("wire", "rows")
        page_size = action.get("page_size", self.server.page_size_default)
        limit = action.get("limit")
        chunk_rows = action.get("chunk_rows")
        loop = asyncio.get_running_loop()
        try:
            cursor = await loop.run_in_executor(
                None,
                lambda: open_cursor(
                    self.entry,
                    self.server.cursors,
                    text,
                    wire=wire_mode,
                    page_size=page_size,
                    limit=limit,
                    chunk_rows=chunk_rows,
                ),
            )
        except ReproError as error:
            await self._send_event({"event": "error", **error_payload(error)})
            return
        self._cursors[cursor.id] = cursor
        ack = {
            "event": "open",
            "cursor": cursor.id,
            "index": int(cursor.id[1:]),
            "version": cursor.version,
            "columns": list(cursor.columns),
            "wire": cursor.wire,
            "page_size": cursor.page_size,
        }
        if cursor.wire == "columnar":
            encoded = cursor.encoded
            ack["arity"] = encoded.arity
            ack["chunk_rows"] = encoded.chunk_rows
            ack["intern"] = [
                list(e) if isinstance(e, tuple) else e
                for e in encoded.intern_elements
            ]
        await self._send_event(ack)
        pump = asyncio.create_task(self._pump(cursor))
        self._pumps[cursor.id] = pump
        pump.add_done_callback(lambda _task: self._pumps.pop(cursor.id, None))

    _WAL_FEED = "#wal"

    async def _open_wal_feed(self, action: dict) -> None:
        """Start the WAL push feed: ``{"action": "wal", "from": V}``.

        The server pushes ``{"event": "wal", ...}`` shipment events as
        commits land (parking on the tenant's commit condition between
        batches) until the connection closes, or ``{"event": "reseed"}``
        once if the follower's position predates the retained log —
        re-seeding is a request/response affair, so the feed ends there
        and the follower reconnects after its snapshot load.
        """
        try:
            after = int(action.get("from", 0))
            limit = int(action.get("limit", 1000))
        except (TypeError, ValueError):
            await self._send_event(
                {"event": "error", "error": 'wal needs integer "from"/"limit"'}
            )
            return
        if after < 0 or limit < 1:
            await self._send_event(
                {"event": "error", "error": "wal: from < 0 or limit < 1"}
            )
            return
        if self._WAL_FEED in self._pumps:
            await self._send_event(
                {"event": "error", "error": "a wal feed is already running"}
            )
            return
        limit = min(limit, QueryServer._WAL_LIMIT_MAX)
        pump = asyncio.create_task(self._pump_wal(after, limit))
        self._pumps[self._WAL_FEED] = pump
        pump.add_done_callback(
            lambda _task: self._pumps.pop(self._WAL_FEED, None)
        )

    async def _pump_wal(self, after: int, limit: int) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                shipment = await loop.run_in_executor(
                    None,
                    lambda v=after: self.entry.db.wal_shipment(v, limit=limit),
                )
                if shipment["reseed"]:
                    await self._send_event({"event": "reseed", **shipment})
                    return
                if shipment["records"]:
                    await self._send_event({"event": "wal", **shipment})
                    # The follower's next position is the last shipped
                    # record's post-version (the framing key "v").
                    after = json.loads(shipment["records"][-1])["v"]
                    continue
                if shipment["more"]:
                    continue
                await self.entry.wait_commit(QueryServer._WAL_WAIT_MAX)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, BrokenPipeError):
            pass
        except Exception as error:
            try:
                await self._send_event(
                    {"event": "error", **error_payload(error)}
                )
            except (ConnectionError, BrokenPipeError):
                pass

    async def _close_cursor(self, cursor_id) -> None:
        pump = self._pumps.pop(cursor_id, None)
        if pump is not None:
            pump.cancel()
            await asyncio.gather(pump, return_exceptions=True)
        # Idempotent: a cursor that already drained (the pump discards it
        # on exhaustion) acks exactly like a live one being torn down.
        cursor = self._cursors.pop(cursor_id, None)
        if cursor is not None:
            loop = asyncio.get_running_loop()
            await asyncio.shield(
                loop.run_in_executor(None, self.server.cursors.discard, cursor)
            )
        await self._send_event({"event": "closed", "cursor": cursor_id})

    async def _pump(self, cursor: Cursor) -> None:
        """Producer → bounded queue → socket, for one cursor."""
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.server.queue_pages)
        index = _CHUNK_PREFIX.pack(int(cursor.id[1:]))

        async def produce() -> None:
            try:
                while True:
                    payload, done = await loop.run_in_executor(None, cursor.pull)
                    await queue.put((payload, done, None))
                    if done:
                        return
            except asyncio.CancelledError:
                raise
            except BaseException as error:
                await queue.put((None, True, error))

        producer = asyncio.create_task(produce())
        try:
            while True:
                payload, done, error = await queue.get()
                if error is not None:
                    await self._send_event(
                        {
                            "event": "error",
                            "cursor": cursor.id,
                            **error_payload(error),
                        }
                    )
                    break
                if cursor.wire == "columnar":
                    if payload is not None:
                        await self._send(OP_BINARY, index + payload)
                else:
                    if payload:
                        await self._send_event(
                            {
                                "event": "page",
                                "cursor": cursor.id,
                                "rows": [list(row) for row in payload],
                            }
                        )
                if done:
                    await self._send_event({"event": "end", "cursor": cursor.id})
                    break
        finally:
            producer.cancel()
            self._cursors.pop(cursor.id, None)
            await asyncio.shield(
                loop.run_in_executor(None, self.server.cursors.discard, cursor)
            )


def serve_in_thread(
    registry: DatabaseRegistry,
    host: str = "127.0.0.1",
    port: int = 0,
    **options,
) -> "ThreadedServer":
    """Run a :class:`QueryServer` on a dedicated event-loop thread.

    The in-process harness for tests, benchmarks, and notebook use:
    returns once the socket is listening; ``stop()`` runs the graceful
    shutdown and joins the thread.
    """
    handle = ThreadedServer(registry, host, port, options)
    handle._start()
    return handle


class ThreadedServer:
    """A :class:`QueryServer` running under ``asyncio.run`` in a thread."""

    def __init__(self, registry, host, port, options):
        self._registry = registry
        self._host = host
        self._port = port
        self._options = options
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self.server: Optional[QueryServer] = None
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None

    def _start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self.error is not None:
            raise ServeError(f"server failed to start: {self.error}")

    def _run(self) -> None:
        async def main() -> None:
            server = QueryServer(
                self._registry, self._host, self._port, **self._options
            )
            try:
                await server.start()
            except BaseException as error:
                self.error = error
                self._ready.set()
                return
            self.server = server
            self.port = server.port
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            self._ready.set()
            await self._stop_event.wait()
            await server.stop()

        asyncio.run(main())

    def stop(self) -> None:
        """Graceful shutdown from any thread; joins the server thread."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ThreadedServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
