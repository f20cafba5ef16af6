"""Tests of the ledger's own machinery (no workload is run).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q ledger/test_ledger.py
"""

from __future__ import annotations

import bisect
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
from stats import (  # noqa: E402
    beyond,
    covered,
    merge_intervals,
    mix_min,
    percentile,
    relative_spread,
    summary,
    supported,
)
from tracing import Span, Tracer, self_times  # noqa: E402


# -- percentiles and the ten-samples-beyond rule ------------------------------


@pytest.mark.parametrize(
    "count, q, ok",
    [
        (19, 50, False),
        (20, 50, True),
        (99, 90, False),
        (100, 90, True),
        (999, 99, False),
        (1000, 99, True),
        (0, 50, False),
    ],
)
def test_ten_samples_beyond(count, q, ok):
    assert supported(count, q) is ok
    assert (beyond(count, q) >= 10) is ok


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(list(reversed(samples)), 90) == 90
    assert percentile(samples, 99) is None


def test_summary_states_sample_count_even_when_unsupported():
    assert summary([1.0] * 5, 50) == {"value": None, "samples": 5}
    assert summary([0.002] * 40, 50, scale=1000.0) == {"value": 2.0, "samples": 40}


def test_relative_spread_matches_statistics_quantiles():
    import statistics

    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.3]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / median)
    assert relative_spread([5.0] * 10) == 0.0


# -- interval arithmetic and span self time ----------------------------------


def test_merge_and_cover():
    assert merge_intervals([(3, 4), (0, 2), (1, 3)]) == [[0.0, 4.0]]
    assert merge_intervals([(0, 1), (2, 3)]) == [[0.0, 1.0], [2.0, 3.0]]
    assert covered(0, 10, [(2, 4), (3, 6), (8, 12)]) == pytest.approx(6.0)
    assert covered(0, 10, []) == 0.0


def _span(sid, start, end, parent=None, name="x"):
    span = Span(sid, name, start, parent, None)
    span.end = end
    return span


def test_self_time_nested_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),  # grandchild: counts against 2, not 1
        _span(4, 6.0, 7.0, parent=1),
    ]
    times = self_times(spans)
    assert times[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert times[2] == pytest.approx(3.0 - 1.0)
    assert times[3] == pytest.approx(1.0)


def test_self_time_overlapping_children_counted_once():
    # Two children on other threads overlap each other and spill past the
    # parent's end; only the covered part of the parent is subtracted.
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 2.0, 6.0, parent=1),
        _span(3, 4.0, 8.0, parent=1),
        _span(4, 9.0, 12.0, parent=1),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_and_operations():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = tracer.wrap(inner, "layer.inner")
    wrapped_outer = tracer.wrap(outer, "layer.outer")
    with tracer.operation("probe") as op:
        assert wrapped_outer() == 8
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["layer.inner"].parent == by_name["layer.outer"].sid
    assert by_name["layer.outer"].parent is None
    assert {span.op for span in tracer.spans} == {op}


def test_forked_child_runs_untraced():
    import types

    home = types.ModuleType("repro._ledger_probe_fork")

    def target():
        return 1

    home.target = target
    sys.modules[home.__name__] = home
    try:
        tracer = Tracer()
        tracer.install(home, "target", "probe.target")
        # Another thread holds the lock at the moment of the fork.
        tracer._lock.acquire()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports by exit code
            ok = home.target is target and tracer._lock.acquire(timeout=2)
            os._exit(0 if ok else 1)
        tracer._lock.release()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert home.target is not target  # the parent stays traced
        tracer.uninstall()
    finally:
        del sys.modules[home.__name__]


def test_install_patches_every_binding_and_uninstall_restores():
    import types

    home = types.ModuleType("repro._ledger_probe_home")
    user = types.ModuleType("repro._ledger_probe_user")

    def target():
        return 1

    home.target = target
    user.target = target  # what ``from home import target`` leaves behind
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    try:
        tracer = Tracer()
        assert tracer.install(home, "target", "probe.target") == 2
        assert user.target() == 1 and home.target is not target
        assert [span.name for span in tracer.spans] == ["probe.target"]
        tracer.uninstall()
        assert home.target is target and user.target is target
    finally:
        del sys.modules[home.__name__]
        del sys.modules[user.__name__]


# -- seeded inputs -------------------------------------------------------------


def test_request_plan_is_a_function_of_the_seed():
    first = inputs.request_plan(7, clients=2, length=200)
    again = inputs.request_plan(7, clients=2, length=200)
    other = inputs.request_plan(8, clients=2, length=200)
    assert first == again
    assert first != other


def test_request_plan_blocks_hold_the_exact_mix():
    (plan,) = inputs.request_plan(3, clients=1, length=10 * inputs.BLOCK)
    for start in range(0, len(plan), inputs.BLOCK):
        kinds = [request.kind for request in plan[start : start + inputs.BLOCK]]
        for kind, share in inputs.REQUEST_KINDS:
            assert kinds.count(kind) == round(share * inputs.BLOCK)
    keys = inputs.plan_keys()
    assert len(keys) == 54
    assert all(request.text.startswith("SELECT ") for request in plan)


def test_request_plan_asks_every_seed_for_the_same_requests():
    def plan(seed):
        (requests,) = inputs.request_plan(seed, clients=1, length=5 * inputs.BLOCK)
        return requests

    assert sorted(map(repr, plan(1))) == sorted(map(repr, plan(2))) == sorted(map(repr, plan(3)))
    assert plan(1) != plan(2)
    ranking = inputs.popularity()
    assert sorted(ranking) == list(range(len(inputs.plan_keys())))
    # Ranks cycle through the templates (plan_keys lists 18, 18, 9 and 9
    # keys of the four templates, in that order).
    starts = [18, 36, 45]
    assert [bisect.bisect_right(starts, key) for key in ranking[:8]] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_commit_stream_is_seeded_and_every_commit_changes_the_structure():
    edges = [(0, 1), (1, 0), (2, 3)]
    colours = {"B": [0, 2], "R": [1], "G": []}
    domain = list(range(10))
    stream = inputs.commit_stream(edges, colours, domain, seed=5, length=300)
    assert len(stream) == 300
    assert stream == inputs.commit_stream(edges, colours, domain, seed=5, length=300)
    assert stream != inputs.commit_stream(edges, colours, domain, seed=6, length=300)
    for start in range(0, len(stream), 10):
        block = stream[start : start + 10]
        # The second half undoes the first, so its blocks swap the shares.
        inserts, removes = (4, 3) if start < 150 else (3, 4)
        assert sum(1 for op in block if op[1] == "E" and op[0]) == inserts
        assert sum(1 for op in block if op[1] == "E" and not op[0]) == removes
        assert sorted(op[1] for op in block if op[1] != "E") == ["B", "G", "R"]
    facts = {("E", edge) for edge in edges}
    facts |= {(colour, (v,)) for colour, members in colours.items() for v in members}
    start = set(facts)
    # Replayed cyclically (as write_mix walks it), no commit is a no-op.
    for cycle in range(2):
        for insert, relation, elements in stream:
            fact = (relation, tuple(elements))
            assert (fact in facts) is not insert, f"no-op commit {insert, fact}"
            if insert:
                facts.add(fact)
            else:
                facts.discard(fact)
        assert facts == start


def test_commit_stream_length_must_be_whole_cycles():
    with pytest.raises(ValueError):
        inputs.commit_stream([(0, 1)], {"B": [0]}, range(5), seed=1, length=30)


# -- end-to-end metrics --------------------------------------------------------


def test_mix_min_weights_class_minima_by_share():
    cheap = [2.0, 1.0, 1.5, 50.0]  # one sample hit by a burst
    dear = [100.0, 120.0, 100.0, 300.0]
    assert mix_min({"cheap": cheap, "dear": dear}) == pytest.approx(50.5)
    assert mix_min({"cheap": cheap * 3, "dear": dear}) == pytest.approx((3 + 100) / 4)
    assert mix_min({}) is None
    assert mix_min({"empty": []}) is None


def test_end_to_end_has_no_zero_for_a_workload_without_samples():
    import ledger_workloads as workloads
    import reference
    import worker

    empty = workloads.Recorder()
    empty.wall = 1e-6
    metrics = worker.end_to_end(workloads.Scan, [empty], [1.0, 2.0, 3.0], 100.0)
    assert metrics["peak_rss_mb"] == (100.0, "MB")
    for name in ("setup_s", "ops_per_s", "op_ms", "count_ms", "first_row_ms"):
        assert metrics[name][0] is None
    busy = workloads.Recorder()
    busy.samples["reference"].append(reference.REFERENCE_MS / 1000.0)
    busy.add("page", 0.002, "dense@0")
    busy.add("page", 0.004, "dense@0")
    busy.add("page", 0.010, "dense@1")
    busy.add("test", 0.001, "dense#0")
    busy.wall = 0.5
    # A slice that ran no whole round adds nothing, and no zero.
    metrics = worker.end_to_end(workloads.Scan, [busy, empty, busy], [1.0, 2.0, 3.0], 100.0)
    assert metrics["setup_s"][0] == pytest.approx(2.0)
    assert metrics["op_ms"][0] == pytest.approx((4 * 2.0 + 2 * 10.0) / 6)
    # Six pages, with two tests between them, at each class's best cost:
    # 4 x 2 ms + 2 x 10 ms + 2 x 1 ms.
    assert metrics["ops_per_s"][0] == pytest.approx(6 / 0.030)


def test_times_are_stated_at_the_reference_speed():
    import ledger_workloads as workloads
    import reference
    import worker

    def figures(reference_s):
        rec = workloads.Recorder()
        rec.samples["reference"].extend([reference_s * 1.5, reference_s])
        rec.add("page", 0.004, "dense@0")
        rec.add("count", 0.001, "dense")
        rec.add("first_row", 0.002, "dense")
        rec.wall = 1.0
        return worker.end_to_end(workloads.Scan, [rec], [3.0], 100.0)

    nominal = figures(reference.REFERENCE_MS / 1000.0)
    # A process that runs the reference task at half speed has its times
    # halved and its rate doubled; memory is not a time.
    slow = figures(2 * reference.REFERENCE_MS / 1000.0)
    assert nominal["op_ms"][0] == pytest.approx(4.0)
    for name in ("setup_s", "op_ms", "count_ms", "first_row_ms"):
        assert slow[name][0] == pytest.approx(nominal[name][0] / 2)
    assert slow["ops_per_s"][0] == pytest.approx(nominal["ops_per_s"][0] * 2)
    assert slow["peak_rss_mb"] == nominal["peak_rss_mb"]
    back = worker.unscaled(slow, 0.5)
    # Unscaled, the page is the 4 ms it was measured at.
    assert back["op_ms"] == pytest.approx(4.0) and back["peak_rss_mb"] == 100.0


def test_rate_counts_closed_loop_clients():
    import ledger_workloads as workloads
    import reference
    import worker

    rec = workloads.Recorder()
    rec.samples["reference"].append(reference.REFERENCE_MS / 1000.0)
    for seconds in (0.004, 0.005, 0.004):
        rec.add("request", seconds, "limit:3")
        rec.add("limit", seconds, "limit:3")
    rec.add("request", 0.010, "count:7")
    rec.add("count", 0.010, "count:7")
    rec.wall = 1.0
    metrics = worker.end_to_end(workloads.ServedMix, [rec], [1.0], 100.0)
    # Only the timeline's kinds count (a request is also filed by kind):
    # 2 clients x 4 requests / (3 x 4 ms + 10 ms).
    assert metrics["ops_per_s"][0] == pytest.approx(2 * 4 / 0.022)


def test_served_plan_is_walked_cyclically(monkeypatch):
    import ledger_workloads as workloads

    mix = workloads.ServedMix.__new__(workloads.ServedMix)
    mix.plans = inputs.request_plan(2, clients=1, length=2 * inputs.BLOCK)
    mix.PLAN_LENGTH = 2 * inputs.BLOCK
    mix.sampled = {0, 3}
    sent = []

    class Client:
        def rows(self, db, text):
            sent.append(text)
            return [(0, 1)]

        def query(self, db, text, mode):
            sent.append(text)
            return {"count": 1}

        def open_cursor(self, db, text, page_size):
            sent.append(text)
            raise RuntimeError("cursor refused")

    state = {"clients": [Client()], "positions": [0], "responses": {}}
    rec = workloads.Recorder()
    # Time stands still until five blocks (two and a half plans) are sent.
    monkeypatch.setattr(workloads, "clock", lambda: 1.0 if len(sent) >= 5 * inputs.BLOCK else 0.0)
    mix._client(state, 0, rec, until=0.5)
    plan = mix.plans[0]
    assert len(sent) == 5 * inputs.BLOCK and state["positions"] == [len(sent)]
    assert sent == [plan[i % len(plan)].text for i in range(len(sent))]
    assert set(state["responses"]) <= {(0, 0), (0, 3)}
    # An error other than ReproError is a named failure, not a dead thread.
    cursors = [i for i in range(len(sent)) if plan[i % len(plan)].kind == "cursor"]
    assert len(rec.failures) == len(cursors) > 0
    assert all("cursor refused" in failure for failure in rec.failures)
    assert rec.attempted == len(sent)
