"""Command-line interface.

Examples::

    python -m repro query   -w colored:n=2000,d=4,seed=1 \\
                            -q "B(x) & R(y) & ~E(x,y)" --count --limit 5
    python -m repro query   -w colored:n=2000,d=4,seed=1 --limit 10 \\
                            -q "SELECT y WHERE B(x) & R(y) & ~E(x,y) ORDER BY y LIMIT 10"
    python -m repro query   -w grid:rows=20,cols=20 \\
                            -q "Powered(x)" --count
    python -m repro check   -w colored:n=5000,d=3 \\
                            -q "exists x. exists y. dist(x,y) > 3 & B(x) & B(y)"
    python -m repro explain -w colored:n=500,d=3 \\
                            -q "B(x) & exists z. (R(z) & ~E(x,z))"
    python -m repro delay   -w colored:n=4000,d=4 \\
                            -q "B(x) & R(y) & ~E(x,y)" --limit 50000
    python -m repro update  -w colored:n=2000,d=4 --file changes.jsonl \\
                            -q "B(x) & R(y) & ~E(x,y)"
    python -m repro query   -w colored:n=2000,d=4 -q "B(x)" --count \\
                            --apply changes.jsonl --at-version 0
    python -m repro open    --db ./mydb -w colored:n=2000,d=4,seed=1
    python -m repro update  --db ./mydb --file changes.jsonl -q "B(x)"
    python -m repro query   --db ./mydb -q "B(x)" --count
    python -m repro checkpoint --db ./mydb
    python -m repro follow  --db ./mydb --once -q "B(x)"
    python -m repro follow  --host 127.0.0.1 --port 8642 --name default

Workload specs are ``name:key=value,...``:

* ``colored`` — random colored graph (keys: n, d, seed, colors as ``B+R+G``)
* ``grid``    — rows x cols grid with Powered/Faulty colors
* ``cycle``   — a 2-regular ring with B/R colors
* ``clique``  — padded clique (keys: clique, n, seed)
* ``logdeg``  — random colored graph with degree ~ log2(n)
* ``file``    — load a serialized structure (``file:path=db.txt``)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict

from repro.core.model_checking import model_check
from repro.errors import ReproError
from repro.fo.parser import parse
from repro.qlang import CompiledQuery
from repro.session import Database
from repro.storage.cost_model import CostMeter
from repro.structures.random_gen import (
    cycle_graph,
    degree_log,
    grid_graph,
    padded_clique,
    random_colored_graph,
)
from repro.structures.structure import Structure


def parse_workload(spec: str) -> Structure:
    """Build a structure from a ``name:key=value,...`` spec."""
    name, _, args_text = spec.partition(":")
    options: Dict[str, str] = {}
    if args_text:
        for chunk in args_text.split(","):
            key, _, value = chunk.partition("=")
            if not value:
                raise ReproError(f"bad workload option {chunk!r} (need key=value)")
            options[key.strip()] = value.strip()

    def get_int(key: str, default: int) -> int:
        return int(options.get(key, default))

    if name == "colored":
        colors = tuple(options.get("colors", "B+R").split("+"))
        return random_colored_graph(
            get_int("n", 1000),
            max_degree=get_int("d", 4),
            colors=colors,
            seed=get_int("seed", 0),
        )
    if name == "logdeg":
        n = get_int("n", 1000)
        return random_colored_graph(
            n, max_degree=degree_log()(n), seed=get_int("seed", 0)
        )
    if name == "grid":
        return grid_graph(
            get_int("rows", 16),
            get_int("cols", 16),
            colors=("Powered", "Faulty"),
            seed=get_int("seed", 0),
        )
    if name == "cycle":
        return cycle_graph(get_int("n", 100), colors=("B", "R"), seed=get_int("seed", 0))
    if name == "clique":
        return padded_clique(
            get_int("clique", 8),
            get_int("n", 1000),
            colors=("B", "R"),
            seed=get_int("seed", 0),
        )
    if name == "file":
        path = options.get("path")
        if not path:
            raise ReproError("file workload needs path=<file>")
        from repro.structures.serialize import load_file

        try:
            return load_file(path)
        except OSError as error:
            raise ReproError(f"cannot read {path!r}: {error}") from None
    raise ReproError(
        f"unknown workload {name!r}; choose from colored, logdeg, grid, "
        "cycle, clique, file"
    )


def _load_changeset(path: str, structure: Structure):
    from repro.session import load_changeset_jsonl

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return load_changeset_jsonl(handle, structure=structure)
    except OSError as error:
        raise ReproError(f"cannot read {path!r}: {error}") from None


def _open_session(args: argparse.Namespace, **options) -> Database:
    """Build the session from ``--db`` (durable) or ``-w`` (in-memory).

    * ``--db`` pointing at an existing store: open it — snapshot load +
      WAL replay + warm pipeline reload.  ``-w`` must be omitted (the
      store already defines the data).
    * ``--db`` pointing at a fresh path: ``-w`` seeds the store.
    * no ``--db``: the classic in-memory session from ``-w``.
    """
    from repro.storage.wal import DurableStore

    db_path = getattr(args, "db", None)
    workload = getattr(args, "workload", None)
    if db_path is None:
        if workload is None:
            raise ReproError("need -w/--workload (or --db with a durable store)")
        return Database(parse_workload(workload), **options)
    if DurableStore(db_path).exists():
        if workload is not None:
            raise ReproError(
                f"database {db_path!r} already exists; drop -w/--workload "
                "(the store defines the data)"
            )
        return Database.open(db_path, **options)
    if workload is None:
        raise ReproError(
            f"database {db_path!r} does not exist; pass -w/--workload to "
            "create it"
        )
    return Database.open(db_path, structure=parse_workload(workload), **options)


def _resolve_view(session: Database, args: argparse.Namespace):
    """Apply ``--apply`` (one atomic transaction) and resolve
    ``--at-version`` to the pre-commit snapshot or the live head.

    With ``--apply`` the pre-commit state is snapshotted first, so
    ``--at-version <old>`` queries the database as it was before the
    changeset committed while ``--at-version <new>`` (or no flag)
    queries the head.
    """
    snapshot = None
    apply_path = getattr(args, "apply", None)
    at_version = getattr(args, "at_version", None)
    if apply_path:
        if at_version is not None:
            snapshot = session.snapshot()
        changeset = _load_changeset(apply_path, session.structure)
        result = session.apply(changeset)
        print(
            f"applied {result.ops_submitted} op(s), "
            f"{result.ops_effective} effective; version "
            f"{result.version_before} -> {result.version_after}"
            + (" (forked: old version stays pinned)" if result.forked else "")
        )
    if at_version is None:
        return session
    views = {session.version: session}
    if snapshot is not None:
        views[snapshot.version] = snapshot
    view = views.get(at_version)
    if view is None:
        raise ReproError(
            f"--at-version {at_version} is not available; "
            f"choose from {sorted(views)}"
        )
    return view


def _parse_tuple(text: str, structure: Structure):
    components = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        # Domain elements of the builtin workloads are ints or (r, c) pairs.
        try:
            components.append(int(chunk))
        except ValueError:
            raise ReproError(f"cannot parse tuple component {chunk!r}") from None
    return tuple(components)


def cmd_query(args: argparse.Namespace) -> int:
    """Count / test / enumerate one query through a Database session."""
    if getattr(args, "shards", 0):
        return _run_sharded_query(args)
    # One Database per invocation: cache, graph templates, and (if the
    # backend goes parallel) the worker pool all come from this session.
    with _open_session(args, workers=args.workers) as session:
        db = session.structure
        view = _resolve_view(session, args)
        started = time.perf_counter()
        query = view.query(
            args.query,
            backend=args.backend,
            chunk_rows=getattr(args, "chunk_rows", None),
        )
        preprocessing = time.perf_counter() - started
        print(
            f"workload: n={db.cardinality}, degree={db.degree}; "
            f"preprocessing {preprocessing:.3f}s"
        )
        compiled = isinstance(query, CompiledQuery)
        if args.count:
            print(f"count: {query.count()}")
        for probe in args.test or []:
            if compiled:
                raise ReproError(
                    "--test applies to raw FO queries; a SELECT "
                    "statement has no membership test"
                )
            candidate = _parse_tuple(probe, db)
            print(f"test {candidate}: {query.test(candidate)}")
        if args.limit:
            shown = 0
            if compiled:
                # The compiled stream already early-stops on a pushed
                # LIMIT; abandoning it releases the inner handle.
                for row in query.stream():
                    print("  " + ", ".join(str(c) for c in row))
                    shown += 1
                    if shown >= args.limit:
                        break
            else:
                answers = query.answers()
                for answer in answers:
                    print(
                        "  " + ", ".join(str(c) for c in answer)
                    )
                    shown += 1
                    if shown >= args.limit:
                        answers.cancel()
                        break
            print(f"({shown} answers shown)")
        if args.explain:
            # Printed after execution so the plan carries the observed
            # runtime transfer layout (chunks/bytes per work unit) next
            # to the cost-model estimates.
            print(query.explain().describe())
    return 0


def _run_sharded_query(args: argparse.Namespace) -> int:
    """``query --shards N``: scatter-gather over a region-sharded DB."""
    from repro.shard import ShardedDatabase

    if getattr(args, "db", None) is not None:
        raise ReproError("--shards runs in-memory; drop --db")
    workload = getattr(args, "workload", None)
    if workload is None:
        raise ReproError("--shards needs -w/--workload")
    structure = parse_workload(workload)
    started = time.perf_counter()
    with ShardedDatabase(
        structure,
        shards=args.shards,
        workers=args.workers,
    ) as sdb:
        query = sdb.query(args.query)
        preprocessing = time.perf_counter() - started
        layout = sdb.layout
        print(
            f"workload: n={structure.cardinality}, degree={structure.degree}; "
            f"preprocessing {preprocessing:.3f}s"
        )
        print(
            f"shards: {len(layout)} {list(layout.sizes())} "
            f"({layout.components} components)"
        )
        if args.count:
            print(f"count: {query.count()}")
        for probe in args.test or []:
            candidate = _parse_tuple(probe, structure)
            print(f"test {candidate}: {query.test(candidate)}")
        if args.limit:
            shown = 0
            answers = query.answers()
            for answer in answers:
                print("  " + ", ".join(str(c) for c in answer))
                shown += 1
                if shown >= args.limit:
                    answers.cancel()
                    break
            print(f"({shown} answers shown)")
        if args.explain:
            report = query.explain()
            print(
                f"sharded: {report['sharded']} "
                f"(canonical: {report['canonical']})"
            )
            if report["shard_blockers"]:
                for blocker in report["shard_blockers"]:
                    print(f"  blocker: {blocker}")
            runtime = report.get("runtime")
            if runtime:
                print(
                    f"runtime: {runtime['chunks']} chunk(s), "
                    f"{runtime['rows']} rows received"
                )
                for label, entry in sorted(
                    (runtime.get("sources") or {}).items()
                ):
                    print(
                        f"  {label}: rows={entry['rows']}, "
                        f"chunks={entry['chunks']}"
                    )
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    """Submit many queries against one workload via a Database session."""
    queries = list(args.query or [])
    if args.queries_file:
        try:
            with open(args.queries_file, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        queries.append(line)
        except OSError as error:
            raise ReproError(
                f"cannot read {args.queries_file!r}: {error}"
            ) from None
    if not queries:
        raise ReproError("batch needs at least one -q/--query or --queries-file")
    # The session owns a long-lived worker pool (lazily started, reused by
    # every query below); the context manager shuts it down at the end —
    # pool lifecycle and stats come from one place for `query` and `batch`.
    with _open_session(args, workers=args.workers) as session:
        db = session.structure
        view = _resolve_view(session, args)
        print(f"workload: n={db.cardinality}, degree={db.degree}; "
              f"{len(queries)} queries")
        started = time.perf_counter()
        for text in queries:
            query = view.query(text, backend=args.mode)
            line = f"[{text}]"
            if args.count:
                # Counted in-process (count_answers), whatever --mode says.
                line += f"  count={query.count()}"
            print(line)
            if args.limit:
                shown = 0
                if isinstance(query, CompiledQuery):
                    for row in query.stream():
                        print("  " + ", ".join(str(c) for c in row))
                        shown += 1
                        if shown >= args.limit:
                            break
                else:
                    answers = query.answers()
                    for answer in answers:
                        print("  " + ", ".join(str(c) for c in answer))
                        shown += 1
                        if shown >= args.limit:
                            answers.cancel()
                            break
        elapsed = time.perf_counter() - started
        stats = session.stats()
        print(
            f"batch done in {elapsed:.3f}s; pipeline cache "
            f"{stats['hits']} hits / {stats['misses']} misses, "
            f"{stats['graph_templates']} shared graph template(s); "
            f"pool: {stats['pool_submits']} submit(s), "
            f"{stats['pool_restarts']} restart(s)"
        )
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    """Apply a JSONL changeset in one atomic transaction.

    ``-q`` queries (repeatable) are prepared *before* the commit — so
    their cached plans are what the batch maintenance refreshes — and
    re-counted afterwards, showing the update's effect.
    """
    with _open_session(args, workers=args.workers) as session:
        db = session.structure
        print(f"workload: n={db.cardinality}, degree={db.degree}")
        warmed = []
        for text in args.query or []:
            query = session.query(text)
            warmed.append((text, query, query.count()))
        changeset = _load_changeset(args.file, session.structure)
        started = time.perf_counter()
        result = session.apply(changeset)
        elapsed = time.perf_counter() - started
        print(
            f"changeset: {result.ops_submitted} op(s), "
            f"{result.ops_effective} effective"
        )
        print(
            f"version: {result.version_before} -> {result.version_after}; "
            f"fingerprint {result.fingerprint_before[:12]}... -> "
            f"{result.fingerprint_after[:12]}..."
        )
        print(
            f"maintained plans refreshed in one pass: "
            f"{result.maintained_plans}; forked: {result.forked}"
        )
        rate = (
            f" ({result.ops_effective / elapsed:.0f} facts/s)"
            if elapsed > 0 and result.ops_effective
            else ""
        )
        print(f"commit took {elapsed:.3f}s{rate}")
        for text, query, before in warmed:
            print(f"[{text}]  count {before} -> {query.count()}")
    return 0


def cmd_open(args: argparse.Namespace) -> int:
    """Create a durable database (from ``-w``) or inspect an existing one."""
    started = time.perf_counter()
    with _open_session(args, workers=args.workers) as session:
        elapsed = time.perf_counter() - started
        structure = session.structure
        stats = session.stats()
        print(f"database: {args.db}")
        print(
            f"structure: n={structure.cardinality}, degree={structure.degree}; "
            f"version {session.version}, generation {structure.generation}"
        )
        print(f"fingerprint: {session.structure_fingerprint[:16]}...")
        print(
            f"warm cached plans: {stats['entries']}; "
            f"opened in {elapsed:.3f}s"
        )
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """Rotate the WAL of an existing store into a fresh snapshot."""
    from repro.storage.wal import DurableStore

    if not DurableStore(args.db).exists():
        raise ReproError(f"database {args.db!r} does not exist")
    with Database.open(args.db, workers=args.workers) as session:
        started = time.perf_counter()
        # Warm the requested plans first so the rotation spills them and
        # the next open() serves their first query with no preprocessing.
        for text in args.query or []:
            session.query(text)
        result = session.checkpoint()
        elapsed = time.perf_counter() - started
        print(
            f"checkpointed {args.db} at version {result.version} "
            f"(generation {result.generation}) in {elapsed:.3f}s"
        )
        print(
            f"warm pipelines spilled: {result.warm_entries}; "
            f"WAL records retired: {result.wal_records_retired} "
            f"({result.wal_bytes_retired} bytes)"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve databases over HTTP + WebSocket until interrupted."""
    import asyncio

    from repro.serve import DatabaseRegistry, QueryServer

    registry = DatabaseRegistry()
    if args.db:
        registry.open(args.name, args.db, workers=args.workers)
        origin = f"durable store {args.db}"
    elif args.workload:
        registry.create(
            args.name,
            parse_workload(args.workload),
            workers=args.workers,
        )
        origin = f"workload {args.workload}"
    else:
        raise ReproError("serve needs --db or -w/--workload")

    async def run() -> None:
        server = QueryServer(
            registry,
            host=args.host,
            port=args.port,
            cursor_timeout=args.cursor_timeout,
        )
        await server.start()
        print(
            f"serving {args.name!r} ({origin}) on "
            f"http://{args.host}:{server.port} — Ctrl-C to stop"
        )
        stop = asyncio.Event()
        try:
            await stop.wait()
        finally:
            # KeyboardInterrupt lands here: drain cursors, checkpoint
            # durable stores, close the databases.
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shut down")
    return 0


def cmd_follow(args: argparse.Namespace) -> int:
    """Tail a leader as a read replica and answer queries against it.

    ``--db`` follows a shared durable-store directory read-only;
    ``--host``/``--port``/``--name`` follow a served leader over the
    replication endpoints.  ``--once`` catches up and exits (after
    printing the ``-q`` counts); otherwise the follower keeps tailing
    and reports every version change until interrupted.
    """
    from repro.replication import DirectorySource, FollowerDatabase, ServeSource
    from repro.serve import ServeClient

    if bool(args.db) == bool(args.url_name):
        raise ReproError("follow needs exactly one of --db or --name")
    if args.db:
        source = DirectorySource(args.db)
    else:
        client = ServeClient(args.host, args.port, timeout=args.timeout)
        source = ServeSource(client, args.url_name, wait=args.interval)
    follower = FollowerDatabase(
        source, max_lag=args.max_lag, workers=args.workers
    )
    try:
        started = time.perf_counter()
        applied = follower.catch_up()
        elapsed = time.perf_counter() - started
        print(
            f"following {source.describe()}: caught up to version "
            f"{follower.version} ({applied} record(s) replayed, "
            f"{follower.stats()['reseeds']} reseed(s)) in {elapsed:.3f}s"
        )
        for text in args.query or []:
            print(f"[{text}]  count={follower.count(text)}")
        if args.once:
            return 0
        follower.start_tailing(interval=args.interval)
        print("tailing — Ctrl-C to stop")
        last_seen = follower.version
        try:
            while True:
                time.sleep(args.interval)
                version = follower.version
                if version != last_seen:
                    last_seen = version
                    line = f"version {version} (lag {follower.lag})"
                    for text in args.query or []:
                        line += f"; [{text}] count={follower.count(text)}"
                    print(line)
                error = follower.stats()["last_error"]
                if error:
                    print(f"tail error (retrying): {error}", file=sys.stderr)
        except KeyboardInterrupt:
            print("stopped")
        return 0
    finally:
        follower.close()


def cmd_check(args: argparse.Namespace) -> int:
    db = parse_workload(args.workload)
    sentence = parse(args.query)
    started = time.perf_counter()
    verdict = model_check(sentence, db)
    elapsed = time.perf_counter() - started
    print(f"A |= {args.query}  ->  {verdict}   ({elapsed:.3f}s)")
    return 0 if verdict else 1


def _preprocessing_report(pipeline) -> str:
    """A human-readable account of one pipeline's preprocessing (paired
    with the session's structured :class:`repro.session.QueryPlan`)."""
    stats = pipeline.stats()
    lines = [
        f"query arity: {stats['arity']} "
        f"({', '.join(v.name for v in pipeline.variables)})",
        f"localized radius r = {stats['radius']} "
        f"(cluster linking distance {stats['link_radius']})",
        f"derived unary predicates: {stats['derived_predicates']}",
        f"partitions considered: {stats['partitions']}",
        f"enumeration branches (P, t): {stats['branches']}",
        f"colored graph: {stats['graph_nodes']} nodes, "
        f"max degree {stats['graph_max_degree']}",
        f"structure: n = {stats['structure_size']}, "
        f"degree d = {stats['structure_degree']}",
    ]
    derived = pipeline.localized.derived_formulas
    if derived:
        lines.append("derived predicates:")
        for name, formula in derived.items():
            lines.append(f"  {name} := {formula}")
    return "\n".join(lines)


def cmd_explain(args: argparse.Namespace) -> int:
    db = parse_workload(args.workload)
    with Database(db) as session:
        query = session.query(args.query)
        print(_preprocessing_report(query.pipeline))
        print(query.explain().describe())
    return 0


def cmd_delay(args: argparse.Namespace) -> int:
    from repro.core.enumeration import enumerate_answers

    db = parse_workload(args.workload)
    meter = CostMeter()
    produced = 0
    with Database(db) as session:
        query = session.query(args.query)
        started = time.perf_counter()
        # Metered serial enumeration: the same primitive the session's
        # serial backend drives, instrumented with RAM-step marks.
        for _ in enumerate_answers(query.pipeline, meter=meter):
            meter.mark()
            produced += 1
            if args.limit and produced >= args.limit:
                break
        elapsed = time.perf_counter() - started
    deltas = meter.deltas() or [0]
    print(f"answers: {produced}")
    if produced:
        print(f"wall time/answer: {elapsed / produced * 1e6:.2f} us")
    print(f"RAM steps/answer: max {max(deltas)}, mean {sum(deltas)/len(deltas):.1f}")
    return 0


def _add_version_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--apply",
        metavar="changeset.jsonl",
        default=None,
        help="apply this JSONL changeset (one transaction) before querying",
    )
    parser.add_argument(
        "--at-version",
        dest="at_version",
        type=int,
        default=None,
        help="query a pinned version: the pre---apply snapshot's version "
        "or the head's (default: head)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constant-delay FO query evaluation over low-degree databases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, require_workload=True):
        p.add_argument(
            "-w", "--workload", required=require_workload, help="workload spec"
        )
        p.add_argument(
            "-q", "--query", required=True,
            help="FO query text, or a qlang SELECT statement",
        )

    def add_db_flag(p):
        p.add_argument(
            "--db",
            metavar="PATH",
            default=None,
            help="durable database directory (snapshot + WAL); an existing "
            "store replaces -w, a fresh path is created from -w",
        )

    query_parser = sub.add_parser(
        "query", help="count / test / enumerate through a Database session"
    )
    common(query_parser, require_workload=False)
    add_db_flag(query_parser)
    query_parser.add_argument("--count", action="store_true")
    query_parser.add_argument(
        "--test", action="append", metavar="a,b", help="tuple to test (repeatable)"
    )
    query_parser.add_argument("--limit", type=int, default=0, help="answers to print")
    query_parser.add_argument(
        "--backend",
        choices=["auto", "serial", "process"],
        default=None,
        help="force an execution backend (default: cost-model heuristic)",
    )
    query_parser.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cores)"
    )
    query_parser.add_argument(
        "--explain",
        action="store_true",
        help="print the chosen plan (branches, shards, backend, transport, costs)",
    )
    query_parser.add_argument(
        "--chunk-rows",
        dest="chunk_rows",
        type=int,
        default=None,
        help="answers per chunk (default: cost model)",
    )
    query_parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run scatter-gather over N region shards (repro.shard)",
    )
    _add_version_flags(query_parser)
    query_parser.set_defaults(handler=cmd_query)

    batch_parser = sub.add_parser(
        "batch", help="run many queries through the parallel batch engine"
    )
    batch_parser.add_argument(
        "-w", "--workload", required=False, help="workload spec"
    )
    add_db_flag(batch_parser)
    batch_parser.add_argument(
        "-q", "--query", action="append",
        help="FO query text or qlang SELECT statement (repeatable)",
    )
    batch_parser.add_argument(
        "--queries-file", help="file with one query per line ('#' comments)"
    )
    batch_parser.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cores)"
    )
    batch_parser.add_argument(
        "--mode",
        choices=["auto", "serial", "process"],
        default=None,
        help="force an execution backend (default: cost-model heuristic)",
    )
    batch_parser.add_argument("--count", action="store_true")
    batch_parser.add_argument(
        "--limit", type=int, default=0, help="answers to print per query"
    )
    _add_version_flags(batch_parser)
    batch_parser.set_defaults(handler=cmd_batch)

    update_parser = sub.add_parser(
        "update", help="apply a JSONL changeset in one atomic transaction"
    )
    update_parser.add_argument(
        "-w", "--workload", required=False, help="workload spec"
    )
    add_db_flag(update_parser)
    update_parser.add_argument(
        "--file",
        required=True,
        help='changeset JSONL: {"op": "insert", "relation": "E", "elements": [0, 1]}',
    )
    update_parser.add_argument(
        "-q",
        "--query",
        action="append",
        help="query to warm before the commit and re-count after (repeatable)",
    )
    update_parser.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cores)"
    )
    update_parser.set_defaults(handler=cmd_update)

    open_parser = sub.add_parser(
        "open",
        help="create a durable database from a workload, or inspect one",
    )
    open_parser.add_argument("--db", metavar="PATH", required=True)
    open_parser.add_argument(
        "-w",
        "--workload",
        required=False,
        help="workload spec seeding a fresh store (omit for existing stores)",
    )
    open_parser.add_argument("--workers", type=int, default=None)
    open_parser.set_defaults(handler=cmd_open)

    checkpoint_parser = sub.add_parser(
        "checkpoint",
        help="rotate a durable database's WAL into a fresh snapshot",
    )
    checkpoint_parser.add_argument("--db", metavar="PATH", required=True)
    checkpoint_parser.add_argument(
        "-q",
        "--query",
        action="append",
        help="query to warm before the rotation so its pipeline is "
        "spilled for the next open (repeatable)",
    )
    checkpoint_parser.add_argument("--workers", type=int, default=None)
    checkpoint_parser.set_defaults(handler=cmd_checkpoint)

    serve_parser = sub.add_parser(
        "serve",
        help="serve a database over HTTP + WebSocket",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8642)
    serve_parser.add_argument(
        "--name",
        default="default",
        help="registry name clients address the database by",
    )
    serve_parser.add_argument(
        "--db", metavar="PATH", help="durable store to open and serve"
    )
    serve_parser.add_argument(
        "-w", "--workload", help="workload spec for an in-memory database"
    )
    serve_parser.add_argument(
        "--cursor-timeout",
        type=float,
        default=300.0,
        help="idle seconds before an abandoned cursor's pin is reaped",
    )
    serve_parser.add_argument("--workers", type=int, default=None)
    serve_parser.set_defaults(handler=cmd_serve)

    follow_parser = sub.add_parser(
        "follow",
        help="tail a leader as a read replica (shared store or serve tier)",
    )
    follow_parser.add_argument(
        "--db",
        metavar="PATH",
        default=None,
        help="leader's durable store directory (shared-filesystem topology)",
    )
    follow_parser.add_argument("--host", default="127.0.0.1")
    follow_parser.add_argument("--port", type=int, default=8642)
    follow_parser.add_argument(
        "--name",
        dest="url_name",
        default=None,
        help="served database name to follow (service-tier topology)",
    )
    follow_parser.add_argument(
        "-q",
        "--query",
        action="append",
        help="query to count after catch-up (and on every version change)",
    )
    follow_parser.add_argument(
        "--max-lag",
        dest="max_lag",
        type=int,
        default=None,
        help="refuse reads when more than this many versions behind",
    )
    follow_parser.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="tail poll interval in seconds (also the serve long-poll wait)",
    )
    follow_parser.add_argument(
        "--timeout", type=float, default=30.0, help="serve request timeout"
    )
    follow_parser.add_argument(
        "--once", action="store_true", help="catch up, report, and exit"
    )
    follow_parser.add_argument("--workers", type=int, default=None)
    follow_parser.set_defaults(handler=cmd_follow)

    check_parser = sub.add_parser("check", help="model-check a sentence")
    common(check_parser)
    check_parser.set_defaults(handler=cmd_check)

    explain_parser = sub.add_parser("explain", help="preprocessing report")
    common(explain_parser)
    explain_parser.set_defaults(handler=cmd_explain)

    delay_parser = sub.add_parser("delay", help="measure enumeration delay")
    common(delay_parser)
    delay_parser.add_argument("--limit", type=int, default=0)
    delay_parser.set_defaults(handler=cmd_delay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
