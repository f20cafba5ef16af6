"""Serial head, pool tail: an ``auto`` run that the cost model sends to
``process`` serves its first ``chunk_rows`` rows in-process (to the end
of the outer position the last of them falls in) and hands the pool
only the rest, from where the head stopped.

Every check forces the cost model's choice to ``process`` (as the
budget-rule tests do), so the head and the handover are exercised on
small inputs.  The observables are exact: the merged stream equals the
serial one row for row, the workers decode exactly the rows the head
did not serve (``TransferStats.rows``), and pool submissions and shared
memory segments are counted directly.
"""

from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.enumeration import enumerate_answers, enumerate_branch
from repro.engine import WorkerPool, executor, parallel_enumerate, run_branches
from repro.engine.mailbox import ChunkMailbox, mailbox_available
from repro.engine.transport import ColumnarCodec, TransferStats
from repro.structures.random_gen import random_colored_graph

from planning import plan
from strategies import formulas, rejecting_unsupported, structures

EXAMPLE = "B(x) & R(y) & ~E(x,y)"
CHUNK_ROWS = (1, 7, 64)


@pytest.fixture(autouse=True)
def auto_goes_process(monkeypatch):
    monkeypatch.setattr(
        executor, "choose_execution_mode", lambda *args, **kwargs: "process"
    )


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as pool:
        yield pool


@pytest.fixture(scope="module")
def example():
    pipeline = plan(random_colored_graph(60, max_degree=3, seed=2), EXAMPLE)
    return pipeline, list(enumerate_answers(pipeline))


@pytest.fixture
def submits(monkeypatch):
    """Every work unit submitted to a pool, in order."""
    submitted = []
    submit = WorkerPool.submit

    def counting(self, mode, fn, *args):
        future = submit(self, mode, fn, *args)
        submitted.append(future)
        return future

    monkeypatch.setattr(WorkerPool, "submit", counting)
    return submitted


def head_and_tail(pipeline, chunk_rows, pool):
    """The auto row stream, the encoded auto stream decoded, and the
    transfer stats of the row stream."""
    stats = TransferStats()
    rows = list(
        parallel_enumerate(
            pipeline, workers=2, pool=pool, chunk_rows=chunk_rows,
            transfer_stats=stats,
        )
    )
    codec = ColumnarCodec(pipeline.intern_table)
    buffers = list(
        run_branches(
            pipeline, workers=2, pool=pool, chunk_rows=chunk_rows, encoded=True
        )
    )
    wire = [row for buf in buffers for row in codec.decode(buf)]
    return rows, wire, stats


@given(
    db=structures(max_n=10),
    formula=formulas(free_count=2, max_depth=3, max_quantifiers=1),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_auto_stream_equals_serial_over_the_corpus(db, formula, pool):
    order = sorted(formula.free)
    with rejecting_unsupported():
        pipeline = plan(db, formula, order=order)
    serial = list(enumerate_answers(pipeline))
    for chunk_rows in CHUNK_ROWS:
        rows, wire, stats = head_and_tail(pipeline, chunk_rows, pool)
        assert rows == serial, chunk_rows
        assert wire == serial, chunk_rows
        served = len(serial) if stats.head_rows is None else stats.head_rows
        assert stats.rows == len(serial) - served, chunk_rows


def branch_sizes(pipeline):
    return [
        sum(1 for _ in enumerate_branch(pipeline, index))
        for index in range(pipeline.branch_count)
    ]


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS + ("branch",))
def test_tail_resumes_where_the_head_stopped(example, pool, chunk_rows):
    pipeline, serial = example
    sizes = branch_sizes(pipeline)
    if chunk_rows == "branch":
        # A head exactly one branch long ends on the branch boundary.
        chunk_rows = sizes[0]
    rows, wire, stats = head_and_tail(pipeline, chunk_rows, pool)
    assert rows == serial and wire == serial
    head = stats.head_rows
    assert head is not None and head >= chunk_rows
    # Nothing is enumerated twice: the workers decode exactly the rows
    # the head did not serve.
    assert stats.rows == len(serial) - head
    if chunk_rows == sizes[0]:
        assert head == sizes[0]
        labels = list(stats.per_source)
        assert labels[0].startswith("b1[0:")
        assert all(label.startswith("b1[") for label in labels)


def test_head_ends_mid_branch_on_an_outer_position(example, pool):
    pipeline, serial = example
    stats = TransferStats()
    list(parallel_enumerate(pipeline, workers=2, pool=pool, chunk_rows=7, transfer_stats=stats))
    first = next(iter(stats.per_source))
    assert first.startswith("b0["), "the first unit resumes inside branch 0"
    assert not first.startswith("b0[0:")


def test_closing_inside_the_head_submits_nothing(example, pool, submits):
    pipeline, serial = example
    stats = TransferStats()
    rows = parallel_enumerate(
        pipeline, workers=2, pool=pool, chunk_rows=64, transfer_stats=stats
    )
    assert list(islice(rows, 64)) == serial[:64]
    rows.close()
    chunks = run_branches(pipeline, workers=2, pool=pool, chunk_rows=64, encoded=True)
    next(chunks)
    chunks.close()
    assert submits == []
    assert stats.head_rows is None and stats.chunks == 0


def test_a_budget_within_the_head_never_reaches_the_pool(example, pool, submits):
    pipeline, serial = example
    for budget in (1, 63, 64):
        rows = list(
            parallel_enumerate(
                pipeline, workers=2, pool=pool, chunk_rows=64, row_budget=budget
            )
        )
        assert rows == serial[:budget]
    assert submits == []


@pytest.mark.skipif(not mailbox_available(), reason="shared memory unavailable")
def test_closing_after_the_handover_cancels_units_and_frees_rings(
    pool, submits, monkeypatch
):
    created = []

    class Recording(ChunkMailbox):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self.name)

    monkeypatch.setattr(executor, "ChunkMailbox", Recording)
    pipeline = plan(random_colored_graph(300, max_degree=3, seed=5), EXAMPLE)
    serial = list(islice(enumerate_answers(pipeline), 200))
    stats = TransferStats()
    # Planned for 4 workers on a 2-process pool: more units than the
    # pool takes in at once, so some are still queued at the close.
    rows = parallel_enumerate(
        pipeline, workers=4, pool=pool, chunk_rows=16, transfer_stats=stats
    )
    assert list(islice(rows, 200)) == serial
    assert stats.head_rows is not None and submits
    rows.close()
    for future in submits:
        # Queued units are cancelled; started ones return once their
        # ring is abandoned.
        assert future.cancelled() or future.result(timeout=60) is not None
    assert any(future.cancelled() for future in submits)
    assert created
    for name in created:
        with pytest.raises(FileNotFoundError):
            ChunkMailbox(name=name)


@pytest.mark.skipif(not mailbox_available(), reason="shared memory unavailable")
def test_a_late_unit_of_a_closed_stream_publishes_nothing(pool, submits):
    """Units still queued at the close either get cancelled or, if a
    worker had already taken them, find their ring unlinked: they return
    an empty summary, never a chunk list on the future."""
    pipeline = plan(random_colored_graph(300, max_degree=3, seed=5), EXAMPLE)
    rows = parallel_enumerate(pipeline, workers=4, pool=pool, chunk_rows=16)
    assert len(list(islice(rows, 200))) == 200
    assert submits
    rows.close()
    for future in submits:
        if future.cancelled():
            continue
        summary = future.result(timeout=60)
        assert isinstance(summary, dict), "chunks rode the future"
        if summary.get("abandoned"):
            assert summary["chunks"] == summary["rows"] == 0


def test_a_unit_whose_ring_is_gone_builds_nothing(monkeypatch):
    """The late path itself, deterministically: the ring was unlinked
    before the unit started, so the unit neither rebuilds the pipeline
    nor enumerates."""
    pipeline = plan(random_colored_graph(60, max_degree=3, seed=2), EXAMPLE)
    ring = ChunkMailbox(create=True)
    name, capacity = ring.name, ring.capacity
    ring.close(unlink=True)

    def no_rebuild(task):
        raise AssertionError("an abandoned unit rebuilt its pipeline")

    monkeypatch.setattr(executor, "_worker_pipeline", no_rebuild)
    task = executor.BranchTask(
        pipeline.rebuild_spec(),
        executor._default_spec_key(pipeline),
        0,
        chunk_rows=16,
        mailbox=(name, capacity),
    )
    summary = executor.run_branch_task_encoded(task)
    assert summary["abandoned"] is True
    assert summary["chunks"] == summary["rows"] == 0


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
def test_a_head_the_cost_model_keeps_serial_serves_everything(
    example, pool, submits, monkeypatch, chunk_rows
):
    """At the head's end the cost model decides; ``serial`` continues
    in-process from the same boundary."""
    monkeypatch.setattr(
        executor, "choose_execution_mode", lambda *args, **kwargs: "serial"
    )
    pipeline, serial = example
    rows, wire, stats = head_and_tail(pipeline, chunk_rows, pool)
    assert rows == serial and wire == serial
    assert stats.head_rows is None and stats.rows == 0
    assert submits == []
