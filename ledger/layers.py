"""Per-layer metrics for the traced run.

:func:`install` wraps the public functions at each layer boundary of
``repro`` (modules ``structures``, ``fo``, ``qlang``, ``core``,
``engine``, ``session``, ``storage``, ``replication``, ``serve``,
``shard``); :func:`per_layer` turns the recorded spans and counters
into the metrics named in ``PER_LAYER``.  ``serve.*`` figures are the
client-side request timings the workload records itself.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from stats import covered, merge_intervals, percentile
from tracing import COUNT_ITEMS, FIRST_ITEM, SPAN, by_name, overhead, totals_under

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "structures.dumps_s": "s",
    "structures.order_builds": "count",
    "structures.fork_ms_p50": "ms",
    "structures.loads_s": "s",
    "fo.parse_ms": "ms",
    "fo.localize_s": "s",
    "qlang.parse_ms": "ms",
    "qlang.compile_ms": "ms",
    "core.pipeline_build_s": "s",
    "core.colored_graph_edges": "count",
    "core.answers_per_delivered": "ratio",
    "core.count_ms": "ms",
    "core.test_us": "us",
    "core.maintain_ms_p50": "ms",
    "core.pipeline_fork_ms_p50": "ms",
    "engine.mode.serial": "count",
    "engine.mode.thread": "count",
    "engine.mode.process": "count",
    "engine.first_chunk_ms": "ms",
    "engine.pool_start_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "engine.cache_evictions": "count",
    "engine.transfer_bytes_per_row": "B",
    "engine.chunks": "count",
    "session.query_ms_cold": "ms",
    "session.query_ms_warm": "ms",
    "session.pull_ms_p99": "ms",
    "session.commit_self_ms_p50": "ms",
    "storage.wal_append_ms_p50": "ms",
    "storage.wal_bytes_per_commit": "B",
    "storage.initialize_s": "s",
    "replication.shipment_ms": "ms",
    "replication.apply_ms_per_record": "ms",
    "replication.reseed_s": "s",
    "serve.limit_ms_p50": "ms",
    "serve.count_ms_p50": "ms",
    "serve.page_ms_p50": "ms",
    "shard.partition_s": "s",
    "shard.unsharded_fallbacks": "count",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

# Children subtracted from a commit to get its own (session) time.
COMMIT_CHILDREN = (
    "structures.fork",
    "core.pipeline_fork",
    "core.maintain",
    "storage.wal_append",
)


def _observe_mode(tracer, result, args, span) -> None:
    tracer.count(f"engine.mode.{result[0]}")


def _observe_graph(tracer, result, args, span) -> None:
    tracer.count("core.colored_graph_edges", result.edge_count())


def _observe_rows(tracer, result, args, span) -> None:
    tracer.count("core.delivered_rows", len(result))


def _observe_cache_get(tracer, result, args, span) -> None:
    tracer.count("engine.cache_lookups")
    if result is not None:
        tracer.count("engine.cache_hits")


def _observe_cache_put(tracer, result, args, span) -> None:
    # Keep the latest eviction total of each cache object.
    tracer.counters[f"engine.evictions@{id(args[0])}"] = args[0].evictions


def _observe_transfer(tracer, result, args, span) -> None:
    tracer.count("engine.chunks")
    tracer.count("engine.transfer_bytes", args[1])
    tracer.count("engine.transfer_rows", args[2])


def _observe_submit(tracer, result, args, span) -> None:
    # The first process-mode submit of a pool starts its worker processes.
    if len(args) > 1 and args[1] == "process":
        seen = f"engine.pool_started@{id(args[0])}"
        if seen not in tracer.counters:
            tracer.counters[seen] = 1
            tracer.count("engine.pool_start_s", span.duration)


def _observe_blockers(tracer, result, args, span) -> None:
    if result:
        tracer.count("shard.unsharded_fallbacks")


def _targets() -> List[Tuple[object, str, str, str, object]]:
    from repro.core import colored_graph, counting, enumeration, testing
    from repro.core.dynamic import PipelineMaintainer
    from repro.core.pipeline import Pipeline
    from repro.engine import executor
    from repro.engine.cache import PipelineCache
    from repro.engine.pool import WorkerPool
    from repro.engine.transport import TransferStats
    from repro.fo import localize, parser
    from repro.qlang import compiler
    from repro.qlang import parser as qparser
    from repro.replication.follower import DirectorySource, FollowerDatabase
    from repro.session.answers import Answers
    from repro.session.database import Database
    from repro.shard import database as shard_database
    from repro.shard.partition import RegionPartitioner
    from repro.storage.wal import DurableStore
    from repro.structures import serialize
    from repro.structures.structure import Structure
    from repro.util.orderings import DomainOrder

    return [
        (serialize, "dumps", "structures.dumps", SPAN, None),
        (serialize, "loads", "structures.loads", SPAN, None),
        (DomainOrder, "__init__", "structures.order_build", SPAN, None),
        (Structure, "fork", "structures.fork", SPAN, None),
        (parser, "parse", "fo.parse", SPAN, None),
        (localize, "localize", "fo.localize", SPAN, None),
        (qparser, "parse_select", "qlang.parse", SPAN, None),
        (compiler, "compile_select", "qlang.compile", SPAN, None),
        (Pipeline, "__init__", "core.pipeline_build", SPAN, None),
        (Pipeline, "fork", "core.pipeline_fork", SPAN, None),
        (colored_graph, "build_colored_graph", "core.colored_graph", SPAN, _observe_graph),
        (enumeration, "enumerate_branch", "core.enumerated_answers", COUNT_ITEMS, None),
        (counting, "count_answers", "core.count", SPAN, None),
        (counting, "count_branch_at", "core.count", SPAN, None),
        (testing, "test_answer", "core.test", SPAN, None),
        (PipelineMaintainer, "refresh", "core.maintain", SPAN, None),
        (executor, "decide_mode", "engine.decide_mode", SPAN, _observe_mode),
        (executor, "decide_count_mode", "engine.decide_count_mode", SPAN, _observe_mode),
        (executor, "run_branches", "engine.first_chunk", FIRST_ITEM, None),
        (WorkerPool, "submit", "engine.submit", SPAN, _observe_submit),
        (PipelineCache, "get", "engine.cache_get", SPAN, _observe_cache_get),
        (PipelineCache, "put", "engine.cache_put", SPAN, _observe_cache_put),
        (TransferStats, "record", "engine.transfer", SPAN, _observe_transfer),
        (Database, "query", "session.query", SPAN, None),
        (Database, "apply", "session.commit", SPAN, None),
        (Answers, "page", "session.pull", SPAN, _observe_rows),
        (Answers, "all", "session.all", SPAN, _observe_rows),
        (DurableStore, "append", "storage.wal_append", SPAN, None),
        (DurableStore, "initialize", "storage.initialize", SPAN, None),
        (DirectorySource, "shipment", "replication.shipment", SPAN, None),
        (FollowerDatabase, "catch_up", "replication.catch_up", SPAN, None),
        (FollowerDatabase, "__init__", "replication.reseed", SPAN, None),
        (RegionPartitioner, "partition", "shard.partition", SPAN, None),
        (shard_database, "shard_blockers", "shard.blockers", SPAN, _observe_blockers),
    ]


def install(tracer) -> None:
    for owner, attribute, name, kind, observe in _targets():
        tracer.install(owner, attribute, name, kind, observe)


# -- metrics ---------------------------------------------------------------


def _total(spans) -> float:
    return sum(span.duration for span in spans)


def _median(values) -> Optional[float]:
    return statistics.median(values) if values else None


def _mean(values) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _per_op_union(spans) -> List[float]:
    """Time covered by ``spans`` within each benchmark operation (spans
    outside any operation, e.g. on server threads, each stand alone)."""
    groups: Dict[object, list] = defaultdict(list)
    for span in spans:
        groups[span.op if span.op is not None else ("span", span.sid)].append(
            (span.start, span.end)
        )
    return [sum(b - a for a, b in merge_intervals(group)) for group in groups.values()]


def per_layer(tracer, workload, rec, plain, traced) -> Tuple[dict, dict]:
    """``(metrics, unmeasured)``: every ``PER_LAYER`` metric as
    ``(value, unit)``, and for each metric this run could not take, the
    reason (its value then reads 0)."""
    spans = tracer.spans
    named = by_name(spans)
    counters = tracer.counters
    ms = 1000.0
    values: Dict[str, Optional[float]] = {}
    reasons: Dict[str, str] = {}

    def durations(name):
        return [span.duration for span in named.get(name, ())]

    values["structures.dumps_s"] = _total(named.get("structures.dumps", ()))
    values["structures.order_builds"] = len(named.get("structures.order_build", ()))
    fork = _median(durations("structures.fork"))
    values["structures.fork_ms_p50"] = None if fork is None else fork * ms
    values["structures.loads_s"] = _total(named.get("structures.loads", ()))
    parse = _median(durations("fo.parse"))
    values["fo.parse_ms"] = None if parse is None else parse * ms
    values["fo.localize_s"] = _total(named.get("fo.localize", ()))
    for key, name in (("qlang.parse_ms", "qlang.parse"), ("qlang.compile_ms", "qlang.compile")):
        value = _median(durations(name))
        values[key] = None if value is None else value * ms
    values["core.pipeline_build_s"] = _median(durations("core.pipeline_build"))
    values["core.colored_graph_edges"] = counters.get("core.colored_graph_edges", 0)
    delivered = counters.get("core.delivered_rows", 0)
    produced = counters.get("core.enumerated_answers", 0)
    values["core.answers_per_delivered"] = produced / delivered if delivered and produced else None
    if not (delivered and produced):
        reasons["core.answers_per_delivered"] = (
            "needs answers enumerated in the parent and handed out through "
            "Answers.page/all; pool worker processes are not traced"
        )
    count = _median(_per_op_union(named.get("core.count", ())))
    values["core.count_ms"] = None if count is None else count * ms
    test = _median(durations("core.test"))
    values["core.test_us"] = None if test is None else test * 1e6
    maintain = _median(list(totals_under(spans, "core.maintain", "session.commit").values()))
    values["core.maintain_ms_p50"] = None if maintain is None else maintain * ms
    for key, name in (
        ("core.pipeline_fork_ms_p50", "core.pipeline_fork"),
        ("storage.wal_append_ms_p50", "storage.wal_append"),
        ("replication.shipment_ms", "replication.shipment"),
    ):
        value = _median(durations(name))
        values[key] = None if value is None else value * ms
    for mode in ("serial", "thread", "process"):
        values[f"engine.mode.{mode}"] = counters.get(f"engine.mode.{mode}", 0)
    first = _median(durations("engine.first_chunk"))
    values["engine.first_chunk_ms"] = None if first is None else first * ms
    values["engine.pool_start_s"] = counters.get("engine.pool_start_s")
    lookups = counters.get("engine.cache_lookups", 0)
    values["engine.cache_hit_ratio"] = counters.get("engine.cache_hits", 0) / lookups if lookups else None
    values["engine.cache_evictions"] = sum(
        value for key, value in counters.items() if key.startswith("engine.evictions@")
    )
    rows = counters.get("engine.transfer_rows", 0)
    values["engine.transfer_bytes_per_row"] = counters.get("engine.transfer_bytes", 0) / rows if rows else None
    values["engine.chunks"] = counters.get("engine.chunks", 0)
    built = totals_under(spans, "core.pipeline_build", "session.query")
    cold, warm = [], []
    for span in named.get("session.query", ()):
        (cold if span.sid in built else warm).append(span.duration)
    values["session.query_ms_cold"] = None if not cold else _median(cold) * ms
    values["session.query_ms_warm"] = None if not warm else _median(warm) * ms
    pull = percentile(durations("session.pull"), 99)
    values["session.pull_ms_p99"] = None if pull is None else pull * ms
    if pull is None and named.get("session.pull"):
        reasons["session.pull_ms_p99"] = (
            f"{len(named['session.pull'])} page pulls leave fewer than ten beyond p99"
        )
    commit_self = _commit_self(spans, named)
    values["session.commit_self_ms_p50"] = None if commit_self is None else commit_self * ms
    wal_records = rec.counters.get("wal_records", 0)
    values["storage.wal_bytes_per_commit"] = (
        rec.counters.get("wal_bytes", 0) / wal_records if wal_records else None
    )
    values["storage.initialize_s"] = _total(named.get("storage.initialize", ()))
    values["replication.apply_ms_per_record"] = _apply_per_record(named, rec)
    values["replication.reseed_s"] = _total(named.get("replication.reseed", ()))
    for key, kind in (
        ("serve.limit_ms_p50", "limit"),
        ("serve.count_ms_p50", "count"),
        ("serve.page_ms_p50", "cursor"),
    ):
        value = percentile(rec.samples.get(kind, []), 50) if workload.name == "served_mix" else None
        values[key] = None if value is None else value * ms
    values["shard.partition_s"] = _total(named.get("shard.partition", ()))
    values["shard.unsharded_fallbacks"] = counters.get("shard.unsharded_fallbacks", 0)
    values["trace.overhead_pct"] = overhead(
        _mean(traced.samples.get(workload.PRIMARY, [])),
        _mean(plain.samples.get(workload.PRIMARY, [])),
    )
    values["trace.spans"] = len(spans)

    metrics = {}
    for name, unit in PER_LAYER.items():
        value = values.get(name)
        if value is None:
            reasons.setdefault(name, "not exercised by this workload")
            value = 0.0
        metrics[name] = (value, unit)
    return metrics, reasons


def _commit_self(spans, named) -> Optional[float]:
    commits = named.get("session.commit", ())
    if not commits:
        return None
    children = defaultdict(list)
    for span in spans:
        if span.name in COMMIT_CHILDREN and span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return _median(
        [span.duration - covered(span.start, span.end, children.get(span.sid, ())) for span in commits]
    )


def _apply_per_record(named, rec) -> Optional[float]:
    records = rec.counters.get("replayed_records", 0)
    catch_ups = named.get("replication.catch_up", ())
    if not records or not catch_ups:
        return None
    shipments = named.get("replication.shipment", ())
    busy = 0.0
    for span in catch_ups:
        busy += span.duration - covered(
            span.start, span.end, [(s.start, s.end) for s in shipments]
        )
    return busy / records * 1000.0
