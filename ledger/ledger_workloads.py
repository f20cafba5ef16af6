"""The four ledger workloads.

Each workload is a class with the same life cycle, driven by
``worker.py``:

* ``__init__(seed, scratch)`` generates every input from the seed;
* ``setup()`` builds what a user builds before the first request
  (databases, preprocessing, servers) and returns it as a state object;
  it is timed, repeated ``SETUPS`` times, and every state but the last
  is ``close()``d;
* ``prepare(state)`` makes the probes that need a built database and
  runs one untimed pass of the workload's mix, still before timing
  starts; the run's ``peak_rss_mb`` is read after it;
* ``run(state, rec, until)`` performs operations until ``until``
  (``time.perf_counter`` seconds), recording each one in ``rec``;
* ``check(state, rec)`` compares outputs against an independent
  reference and records every mismatch as a failed operation;
* ``close(state)`` releases everything, cancelling every open
  ``Answers`` handle before its database closes.

Sample kinds every workload records, each sample with its class of
operation, which the end-to-end metrics are taken from: ``primary``
(the operation named by ``PRIMARY``), ``count`` and ``first_row``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import random
import shutil
import threading
import time
from collections import defaultdict
from typing import Dict, List

import inputs
import reference

clock = time.perf_counter

PAGE_ROWS = 100
# Counts and first rows are cheap next to a drain; each is taken REPEATS
# times per query and round, so every slice holds enough of them.
REPEATS = 4


class Recorder:
    """Samples (seconds) by kind, counters, and failed operations.

    In a traced run ``tracer`` is set, and :meth:`op` gives every span
    of one benchmark operation a shared operation id.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: Dict[str, List[float]] = defaultdict(list)
        # kind -> class -> samples; see stats.mix_min.
        self.classes: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
        self.counters: Dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failures: List[str] = []
        self.wall = 0.0

    def add(self, kind: str, seconds: float, cls: str = "") -> None:
        self.samples[kind].append(seconds)
        self.classes[kind][cls].append(seconds)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def reference(self) -> None:
        """Time one reference task (see ``reference.py``)."""
        self.samples["reference"].append(reference.run())

    def op(self, label: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.operation(label)

    def merge(self, other: "Recorder") -> None:
        for kind, values in other.samples.items():
            self.samples[kind].extend(values)
        for kind, by_class in other.classes.items():
            for cls, values in by_class.items():
                self.classes[kind][cls].extend(values)
        for name, value in other.counters.items():
            self.counters[name] += value
        self.attempted += other.attempted
        self.failures.extend(other.failures)
        self.wall += other.wall


def _settle_worker() -> int:
    """Run in each process-pool worker as the pool starts, and again
    before the run's memory is read: a full cycle collection.  It writes to every tracked object the worker still
    shares with its parent, so the kernel copies those pages; left
    alone, a worker does that at its first full collection, which its
    own allocations trigger at a moment that differs from run to run, and
    ``peak_rss_mb`` moved by up to 140 MB with it.  The sleep holds the worker, so that each of the
    pool's workers takes one of these tasks."""
    time.sleep(0.2)
    return gc.collect()


def _cancel_all(handles) -> None:
    for handle in handles:
        handle.cancel()
    handles.clear()


def _counts(rec: Recorder, fresh_query, cls: str):
    """Time ``count()`` on ``REPEATS`` fresh query objects (a query caches
    its count); return the last query and its count."""
    for _ in range(REPEATS):
        query = fresh_query()
        rec.attempt()
        start = clock()
        count = query.count()
        rec.add("count", clock() - start, cls)
    return query, count


def _first_row(state, rec: Recorder, query, cls: str):
    """Time ``answers()`` up to its first row; return the open handle."""
    rec.attempt()
    start = clock()
    handle = query.answers()
    state["handles"].append(handle)
    handle.page(0, 1)
    rec.add("first_row", clock() - start, cls)
    return handle


def _drain_prefix(state, rec: Recorder, query, prefix: int, cls: str) -> list:
    """Time ``REPEATS`` first rows, then pull ``prefix`` rows of the last
    handle in ``PAGE_ROWS``-row pages (each page timed, each page
    position a class of its own), then cancel."""
    for _ in range(REPEATS - 1):
        _first_row(state, rec, query, cls)
        _cancel_all(state["handles"])
    handle = _first_row(state, rec, query, cls)
    rows = []
    index = 0
    while len(rows) < prefix:
        rec.attempt()
        start = clock()
        page = handle.page(index, PAGE_ROWS)
        rec.add("page", clock() - start, f"{cls}@{index}")
        rows.extend(page)
        rec.counters["rows"] += len(page)
        if len(page) < PAGE_ROWS:
            break
        index += 1
    _cancel_all(state["handles"])
    return rows


# -- scan ------------------------------------------------------------------


class Scan:
    """In-process scans: the paper's three operations per query, on a
    serial ``Database`` and on a ``ShardedDatabase``."""

    name = "scan"
    SETUPS = 3
    PRIMARY = "page"
    # The operations of a round, one after another (see worker.end_to_end).
    TIMELINE = ("count", "test", "first_row", "page")
    CLIENTS = 1
    N_MAIN = 500
    N_TERNARY = 100
    N_DIST = 40
    # About 1500 components of at most 13 nodes.
    N_SHARDED = 3000
    TESTS = 2000
    PREFIX = 1000
    SHARDED_PREFIX = 2000
    FULL_DRAIN_MAX = 1_000_000

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.structures = {
            "main": inputs.colored(self.N_MAIN, seed),
            "ternary": inputs.colored(self.N_TERNARY, inputs.sub_seed(seed, "ternary")),
            "dist": inputs.colored(self.N_DIST, inputs.sub_seed(seed, "dist")),
        }
        self.sharded = inputs.colored(
            self.N_SHARDED, inputs.sub_seed(seed, "sharded"),
            max_degree=2, colors=("B", "R"), edge_density=0.5,
        )
        self.queries = [(name, text, "main") for name, text in inputs.SCAN_MAIN]
        self.queries += [(name, text, name) for name, text in inputs.SCAN_WIDE]

    def setup(self):
        from repro.session import Database
        from repro.shard import ShardedDatabase

        state = {"dbs": {}, "handles": [], "drained": {}, "counts": {}}
        for key, structure in self.structures.items():
            state["dbs"][key] = Database(structure.copy())
        for name, text, key in self.queries:
            state["dbs"][key].query(text, backend="serial")
        state["sharded"] = ShardedDatabase(self.sharded.copy())
        for _, text in inputs.SCAN_MAIN:
            state["sharded"].query(text)
        return state

    def prepare(self, state) -> None:
        """Seeded test probes, labelled by the naive evaluator: half drawn
        from the first answers, half seeded tuples it rejects; then one
        round."""
        from repro.fo import parse
        from repro.fo.semantics import naive_test

        state["probes"] = {}
        half = self.TESTS // 2
        for name, text, key in self.queries:
            db = state["dbs"][key]
            structure = self.structures[key]
            formula = parse(text)
            query = db.query(text, backend="serial")
            answers = query.answers(limit=half).all()
            candidates = inputs.probe_tuples(
                structure.domain, query.arity, self.seed, f"probe-{name}", 20 * half
            )
            rejected = []
            for candidate in candidates:
                if not naive_test(formula, structure, candidate):
                    rejected.append(candidate)
                    if len(rejected) == half:
                        break
            # The answers are labelled by the naive evaluator too, so a
            # wrong answer from the program shows as a failed test.
            probes = [(row, naive_test(formula, structure, row)) for row in answers]
            probes += [(row, False) for row in rejected]
            rng = random.Random(inputs.sub_seed(self.seed, f"order-{name}"))
            rng.shuffle(probes)
            # Cycle the probe list up to the full test count.
            state["probes"][name] = [probes[i % len(probes)] for i in range(self.TESTS)]
        state["warm"] = Recorder()
        self._round(state, state["warm"])

    def run(self, state, rec: Recorder, until: float) -> None:
        """Rounds over the three queries on the n=N_MAIN structure, then
        over the same three on the sharded one.  The wide queries sit on
        structures too small for their cost to repeat from seed to seed;
        they are preprocessed in every set-up and run once, untimed, in
        :meth:`check`."""
        while clock() < until:
            self._round(state, rec)

    def _round(self, state, rec: Recorder) -> None:
        db = state["dbs"]["main"]
        sharded = state["sharded"]
        for name, text in inputs.SCAN_MAIN:
            rec.reference()
            with rec.op(f"scan.{name}"):
                self._one_query(state, rec, name, functools.partial(db.query, text, backend="serial"))
        for name, text in inputs.SCAN_MAIN:
            cls = f"sharded.{name}"
            rec.reference()
            with rec.op(f"scan.{cls}"):
                query, state["counts"][cls] = _counts(rec, functools.partial(sharded.query, text), cls)
                state["drained"][cls] = _drain_prefix(state, rec, query, self.SHARDED_PREFIX, cls)

    def _one_query(self, state, rec: Recorder, name: str, fresh_query) -> None:
        query, _ = _counts(rec, fresh_query, name)
        for index, (candidate, expected) in enumerate(state["probes"][name]):
            rec.attempt()
            start = clock()
            result = query.test(candidate)
            # A probe position is a class: the same tuple every round.
            rec.add("test", clock() - start, f"{name}#{index}")
            if result is not expected:
                rec.fail(f"scan/{name}: test{candidate} gave {result}, expected {expected}")
        state["drained"][name] = _drain_prefix(state, rec, query, self.PREFIX, name)

    def check(self, state, rec: Recorder) -> None:
        from repro.session import Database

        rec.attempted += state["warm"].attempted
        rec.failures.extend(state["warm"].failures)
        for name, text, key in self.queries:
            db = state["dbs"][key]
            query = db.query(text, backend="serial")
            if key != "main":
                side = Recorder()
                self._one_query(state, side, name, functools.partial(db.query, text, backend="serial"))
                rec.attempted += side.attempted
                rec.failures.extend(side.failures)
                for kind, values in side.samples.items():
                    rec.samples[f"{name}.{kind}"].extend(values)
            rows = state["drained"].get(name, [])
            for row in rows:
                rec.attempt()
                if not query.test(row):
                    rec.fail(f"scan/{name}: drained row {row} tests False")
            count = query.count()
            if count <= self.FULL_DRAIN_MAX:
                rec.attempt()
                handle = query.answers()
                state["handles"].append(handle)
                everything = handle.all()
                _cancel_all(state["handles"])
                if len(everything) != count:
                    rec.fail(f"scan/{name}: count {count} != {len(everything)} drained")
                if everything[: len(rows)] != rows:
                    rec.fail(f"scan/{name}: paged prefix differs from a full drain")
            rec.counters[f"answers.{name}"] = count
        # The sharded counts and prefixes against an unsharded serial
        # Database on the same structure.
        with Database(self.sharded.copy()) as reference:
            for name, text in inputs.SCAN_MAIN:
                cls = f"sharded.{name}"
                query = reference.query(text, backend="serial")
                rec.attempt(2)
                expected = query.count()
                if state["counts"].get(cls) != expected:
                    rec.fail(f"scan/{cls}: count {state['counts'].get(cls)} != {expected}")
                rows = state["drained"].get(cls, [])
                prefix = query.answers(limit=len(rows)).all() if rows else []
                if rows != prefix:
                    rec.fail(f"scan/{cls}: drained prefix differs from unsharded serial")
                rec.counters[f"answers.{cls}"] = expected
        stats = state["sharded"].stats()
        rec.counters["shards"] = stats["shards"]
        rec.counters["components"] = stats["components"]

    def close(self, state) -> None:
        _cancel_all(state["handles"])
        for db in state["dbs"].values():
            db.close()
        state["sharded"].close()


# -- served_mix --------------------------------------------------------------


class ServedMix:
    """Two closed-loop clients against ``repro.serve`` over loopback."""

    name = "served_mix"
    SETUPS = 3
    PRIMARY = "request"
    TIMELINE = ("request",)
    N = 250
    CLIENTS = 2
    # Five blocks per client, replayed for the whole run: every request of
    # the plan repeats about 15 times a run, so each class (kind and plan key)
    # has enough samples for its fastest one to be its cost, rare keys of
    # the Zipf tail included.
    PLAN_LENGTH = 5 * inputs.BLOCK
    CURSOR_PAGE = 256
    CHECK_SAMPLE = 16
    DB = "bench"

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.structure = inputs.colored(self.N, seed)
        self.plans = inputs.request_plan(seed, self.CLIENTS, self.PLAN_LENGTH)
        self.keys = inputs.plan_keys()
        rng = random.Random(inputs.sub_seed(seed, "served-check"))
        self.sampled = set(rng.sample(range(self.PLAN_LENGTH), self.CHECK_SAMPLE))

    def setup(self):
        from repro.serve import DatabaseRegistry, ServeClient, serve_in_thread

        registry = DatabaseRegistry()
        registry.create(self.DB, self.structure.copy())
        server = serve_in_thread(registry)
        clients = [ServeClient("127.0.0.1", server.port) for _ in range(self.CLIENTS)]
        # A server in service has every plan of its mix prepared: the 54
        # keys fit the 64-entry plan cache.
        for key in self.keys:
            clients[0].query(self.DB, inputs.select_text(key), mode="count")
        # ... and its process pool started: every worker forked now, from
        # the same parent state, not whenever two requests happen to
        # overlap (a pool forks its workers on demand), and settled (see
        # _settle_worker), so the workers' memory is the same from run to
        # run.
        self._settle(registry)
        return {
            "registry": registry,
            "server": server,
            "clients": clients,
            "positions": [0] * self.CLIENTS,
            "responses": {},
        }

    def _settle(self, registry) -> None:
        pool = registry.get(self.DB).db.pool
        executor = pool.executor_for("process")
        for future in [executor.submit(_settle_worker) for _ in range(pool.workers)]:
            future.result()

    def prepare(self, state) -> None:
        """One pass of each client's plan, both clients at once; then the
        workers are settled again, so that the memory read next finds
        every worker after a full collection."""
        state["warm"] = Recorder()
        self.run(state, state["warm"], until=None)
        self._settle(state["registry"])

    def run(self, state, rec: Recorder, until) -> None:
        """Both clients until ``until``; with ``until`` None, one pass of
        each plan."""
        blocks = self.PLAN_LENGTH // inputs.BLOCK if until is None else None
        recorders = [Recorder(rec.tracer) for _ in range(self.CLIENTS)]
        threads = [
            threading.Thread(target=self._client, args=(state, i, recorders[i], until, blocks))
            for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for other in recorders:
            rec.merge(other)

    def _client(self, state, index: int, rec: Recorder, until, blocks=None) -> None:
        client = state["clients"][index]
        # Whole blocks only, so every stretch measured has the mix's shares;
        # the plan is walked cyclically, so it never runs out.
        done = 0
        while clock() < until if blocks is None else done < blocks:
            done += 1
            rec.reference()
            for _ in range(inputs.BLOCK):
                position = state["positions"][index] % self.PLAN_LENGTH
                state["positions"][index] += 1
                self._request(state, rec, client, index, position)

    def _request(self, state, rec: Recorder, client, index: int, position: int) -> None:
        request = self.plans[index][position]
        rec.attempt()
        start = clock()
        try:
            with rec.op(f"served_mix.{request.kind}"):
                response = self._send(client, request)
        except Exception as error:  # every error is a named failure
            rec.fail(f"served_mix: {request.kind} {request.text!r}: {error!r}")
            return
        elapsed = clock() - start
        cls = f"{request.kind}:{request.key}"
        rec.add("request", elapsed, cls)
        rec.add(request.kind, elapsed, cls)
        if request.kind == "limit":
            rec.add("first_row", elapsed, cls)
        elif request.kind == "count":
            rec.add("count", elapsed, cls)
        if request.kind != "count":
            rec.counters["rows"] += len(response)
        if position in self.sampled:
            state["responses"][(index, position)] = (request, response)

    def _send(self, client, request):
        if request.kind == "limit":
            return client.rows(self.DB, request.text)
        if request.kind == "count":
            return client.query(self.DB, request.text, mode="count")["count"]
        cursor = client.open_cursor(self.DB, request.text, page_size=self.CURSOR_PAGE)
        try:
            return cursor.next_page()
        finally:
            cursor.close()

    def check(self, state, rec: Recorder) -> None:
        from repro.session import Database

        rec.attempted += state["warm"].attempted
        rec.failures.extend(state["warm"].failures)
        expected_responses = self.CHECK_SAMPLE * self.CLIENTS
        rec.attempt()
        if len(state["responses"]) < expected_responses:
            rec.fail(
                f"served_mix: only {len(state['responses'])} of the "
                f"{expected_responses} sampled responses were collected"
            )
        with Database(self.structure.copy()) as reference:
            for (index, position), (request, response) in sorted(state["responses"].items()):
                rec.attempt()
                if request.kind == "count":
                    expected = reference.query(request.text, backend="serial").count()
                    if response != expected:
                        rec.fail(f"served_mix: count {request.text!r} gave {response}, expected {expected}")
                    continue
                limit = 10 if request.kind == "limit" else self.CURSOR_PAGE
                text = inputs.select_text(self.keys[request.key], limit)
                expected = reference.query(text, backend="serial").all()
                got = json.dumps([list(row) for row in response])
                if request.kind == "cursor":
                    ok = 0 < len(response) <= limit or not expected
                    want = json.dumps([list(row) for row in expected[: len(response)]])
                else:
                    ok = True
                    want = json.dumps([list(row) for row in expected])
                if not ok or got != want:
                    rec.fail(f"served_mix: {request.kind} {request.text!r} differs from in-process")
        stats = state["registry"].get(self.DB).db.stats()
        rec.counters["cache_hits"] = stats.get("hits", 0)
        rec.counters["cache_misses"] = stats.get("misses", 0)
        rec.counters["cache_evictions"] = stats.get("evictions", 0)
        rec.counters["pool_restarts"] = stats.get("pool_restarts", 0)

    def close(self, state) -> None:
        for client in state["clients"]:
            client.close()
        state["server"].stop()
        state["registry"].close_all()


# -- write_mix ---------------------------------------------------------------


class WriteMix:
    """Durable single-fact commits beside warm reads, then follower replay."""

    name = "write_mix"
    SETUPS = 5
    PRIMARY = "commit"
    TIMELINE = ("commit", "pinned_commit", "count", "test", "first_row")
    CLIENTS = 1
    N = 500
    # A cycle of 40 commits, replayed: every position repeats about ten
    # times a run, from the same structure each time.  A commit's cost
    # depends on which fact it changes (15-45 ms), so a shorter cycle
    # leaves the mean to a few seeded draws: with 20, op_ms moved by 15%
    # from seed to seed.
    STREAM = 40
    PINNED_EVERY = 10

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.structure = inputs.colored(self.N, seed)
        self.queries = [text for _, text in inputs.SCAN_MAIN]
        colours = {c: [v for (v,) in self.structure.facts(c)] for c in inputs.COLOURS}
        self.ops = inputs.commit_stream(
            self.structure.facts("E"), colours, self.structure.domain, seed, self.STREAM,
            block=self.PINNED_EVERY,
        )
        self.probes = [
            inputs.probe_tuples(self.structure.domain, arity, seed, f"write-probe-{arity}", self.STREAM)
            for arity in (1, 2)
        ]
        self._setups = 0

    def setup(self):
        from repro.replication import DirectorySource, FollowerDatabase
        from repro.session import Database

        self._setups += 1
        path = os.path.join(self.scratch, f"write_mix-{self._setups}")
        shutil.rmtree(path, ignore_errors=True)
        leader = Database.open(path, structure=self.structure.copy())
        queries = [leader.query(text, backend="serial") for text in self.queries]
        follower = FollowerDatabase(DirectorySource(path))
        for text in self.queries:
            follower.query(text, backend="serial")
        return {
            "path": path,
            "leader": leader,
            "queries": queries,
            "follower": follower,
            "position": 0,
            "acknowledged": 0,
            "handles": [],
        }

    def prepare(self, state) -> None:
        """One pass of the commit cycle, then the follower's ``catch_up()``
        over it, timed: the replay figure rests on the same 40 records in
        every run, and the run's own commits are checked by a reopen from
        disk (a follower keeps its plans warm record by record, at tens of
        records per second, so replaying a whole run would take longer
        than the run)."""
        leader = state["leader"]
        follower = state["follower"]
        cycle = Recorder()
        for position in range(self.STREAM):
            self._one_commit(state, cycle, position)
        start = clock()
        records = follower.catch_up()
        state["replay"] = (clock() - start, records)
        state["follower_matches"] = follower.structure_fingerprint == leader.structure_fingerprint
        state["cycle_failures"] = cycle.failures
        state["acknowledged"] = 0
        state["start_version"] = leader.version

    def run(self, state, rec: Recorder, until: float) -> None:
        # Whole blocks of PINNED_EVERY commits, one of them pinned, so every
        # stretch measured has the same pinned share; the stream is a cycle
        # (see inputs.commit_stream), so it never runs out.
        while clock() < until:
            for _ in range(self.PINNED_EVERY):
                position = state["position"] % self.STREAM
                state["position"] += 1
                rec.reference()
                with rec.op("write_mix.commit"):
                    self._one_commit(state, rec, position)

    def _one_commit(self, state, rec: Recorder, position: int) -> None:
        """One commit, then a warm count, test and first row on one plan."""
        leader = state["leader"]
        pinned = position % self.PINNED_EVERY == self.PINNED_EVERY - 1
        snapshot = leader.snapshot() if pinned else None
        rec.attempt()
        try:
            start = clock()
            leader.apply([self.ops[position]])
            elapsed = clock() - start
        finally:
            if snapshot is not None:
                snapshot.close()
        state["acknowledged"] += 1
        # A position of the cycle is one class: the same commit on the
        # same structure, followed by the same reads.
        cls = str(position)
        rec.add("pinned_commit" if pinned else "commit", elapsed, cls)
        # The same plan sequence in every block.
        query = state["queries"][position % self.PINNED_EVERY % len(state["queries"])]
        rec.attempt(3)
        start = clock()
        query.count()
        rec.add("count", clock() - start, cls)
        start = clock()
        query.test(self.probes[query.arity - 1][position])
        rec.add("test", clock() - start, cls)
        start = clock()
        handle = query.answers()
        state["handles"].append(handle)
        handle.page(0, 1)
        rec.add("first_row", clock() - start, cls)
        _cancel_all(state["handles"])

    def check(self, state, rec: Recorder) -> None:
        from repro.session import Database

        leader = state["leader"]
        follower = state["follower"]
        expected_version = state["start_version"] + state["acknowledged"]
        rec.failures.extend(state["cycle_failures"])
        rec.attempt()
        replay, records = state["replay"]
        rec.add("replay", replay)
        rec.counters["replayed_records"] = records
        if not state["follower_matches"]:
            rec.fail("write_mix: follower fingerprint differs from the leader after catch_up")
        if leader.version != expected_version:
            rec.fail(f"write_mix: leader at version {leader.version}, expected {expected_version}")
        stats = leader.stats()
        rec.counters["wal_records"] = stats.get("wal_records", 0)
        rec.counters["wal_bytes"] = stats.get("wal_bytes", 0)
        fingerprint = leader.structure_fingerprint
        follower.close()
        leader.close()
        state["closed"] = True
        rec.attempt()
        start = clock()
        with Database.open(state["path"]) as reopened:
            if reopened.version != expected_version:
                rec.fail(
                    f"write_mix: reopen shows version {reopened.version}, "
                    f"expected {expected_version}"
                )
            if reopened.structure_fingerprint != fingerprint:
                rec.fail("write_mix: reopen from disk lost an acknowledged commit")
        rec.add("reopen", clock() - start)

    def close(self, state) -> None:
        _cancel_all(state["handles"])
        if not state.get("closed"):
            state["follower"].close()
            state["leader"].close()
        shutil.rmtree(state["path"], ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Scan, ServedMix, WriteMix)}
