"""Unit tests for the engine: cache keys, LRU, paging, streaming,
cancellation, the execution-mode heuristic, the chunk stream, and
preprocessing sharing."""

from __future__ import annotations

import threading

import pytest

from repro.core.enumeration import arm_enumerator, enumerate_answers, enumerate_branch
from repro.engine import WorkerPool, parallel_enumerate, run_branches
from repro.engine import executor
from repro.core.pipeline import Pipeline
from repro.engine.cache import (
    PipelineCache,
    cache_key,
    coerce_order,
    normalize_formula,
)
from repro.engine.executor import (
    branch_works,
    decide_mode,
    plan_work_units,
)
from repro.engine.mailbox import mailbox_available
from repro.engine.transport import ColumnarCodec, InternTable, TransferStats
from repro.fo.syntax import Var
from repro.session import AUTO, PROCESS, Database, ExecutionPlan
from repro.shard import ShardedDatabase
from repro.structures.random_gen import random_colored_graph
from repro.errors import CancelledResultError, EngineError
from repro.fo.parser import parse
from repro.storage.cost_model import (
    choose_execution_mode,
    estimate_branch_work,
)
from repro.structures.serialize import fingerprint

from planning import plan

EXAMPLE = "B(x) & R(y) & ~E(x,y)"


@pytest.fixture
def small_db(small_colored):
    with Database(small_colored) as db:
        yield db


@pytest.fixture
def medium_db(medium_colored):
    with Database(medium_colored) as db:
        yield db


class TestFingerprint:
    def test_stable_and_order_independent(self, tiny_graph):
        first = fingerprint(tiny_graph)
        assert first == fingerprint(tiny_graph)
        clone = tiny_graph.copy()
        assert fingerprint(clone) == first

    def test_changes_on_mutation(self, tiny_graph):
        before = fingerprint(tiny_graph)
        tiny_graph.add_fact("B", 3)
        assert fingerprint(tiny_graph) != before
        tiny_graph.remove_fact("B", 3)
        assert fingerprint(tiny_graph) == before

    def test_handles_tuple_elements(self, grid_structure):
        # Grid elements are (row, col) pairs the text format rejects.
        assert len(fingerprint(grid_structure)) == 64

    def test_version_counts_effective_mutations(self, tiny_graph):
        version = tiny_graph.version
        tiny_graph.add_fact("B", 0)  # already present: no-op
        assert tiny_graph.version == version
        tiny_graph.add_fact("B", 3)
        assert tiny_graph.version == version + 1


def cached_pipeline(cache, structure, query, order=None):
    """The session's lookup: ``get`` under ``cache_key``, build and
    ``put`` on a miss."""
    formula = parse(query)
    variable_order = coerce_order(order)
    key = cache_key(fingerprint(structure), formula, variable_order)
    pipeline = cache.get(key)
    if pipeline is None:
        pipeline = Pipeline(structure, formula, order=variable_order)
        cache.put(key, pipeline)
    return pipeline, key


class TestPipelineCache:
    def test_hit_returns_same_pipeline(self, small_colored):
        cache = PipelineCache()
        first, key1 = cached_pipeline(cache, small_colored, EXAMPLE)
        second, key2 = cached_pipeline(cache, small_colored, EXAMPLE)
        assert first is second
        assert key1 == key2
        assert cache.stats()["hits"] == 1

    def test_normalization_merges_spellings(self, small_colored):
        cache = PipelineCache()
        first, _ = cached_pipeline(cache, small_colored, "B(x) & R(y)")
        second, _ = cached_pipeline(cache, small_colored, "(B(x)) & (R(y))")
        assert first is second

    def test_retained_entries_never_evicted_and_never_starve_head(self):
        # Regression: with retained entries at/over capacity, put() must
        # neither evict a pinned entry nor the entry it just inserted —
        # the capacity budget applies to the unpinned population only.
        cache = PipelineCache(capacity=2)
        cache.retain("old")
        cache.put(("old", "q1", None), "pinned-1")
        cache.put(("old", "q2", None), "pinned-2")
        cache.put(("head", "q1", None), "fresh")
        assert cache.get(("head", "q1", None)) == "fresh", (
            "the just-inserted head entry was evicted"
        )
        assert cache.get(("old", "q1", None)) == "pinned-1"
        assert cache.get(("old", "q2", None)) == "pinned-2"
        # Unpinned population is still bounded by capacity.
        for index in range(5):
            cache.put(("head", f"extra{index}", None), index)
        unpinned = sum(1 for k in cache._entries if k[0] == "head")
        assert unpinned <= 2
        # Releasing the pin restores plain LRU behavior.
        cache.release("old")
        assert not cache.retained("old")

    def test_distinct_order_distinct_entries(self, small_colored):
        cache = PipelineCache()
        first, _ = cached_pipeline(cache, small_colored, EXAMPLE, order=["x", "y"])
        second, _ = cached_pipeline(cache, small_colored, EXAMPLE, order=["y", "x"])
        assert first is not second

    def test_lru_eviction(self, small_colored):
        cache = PipelineCache(capacity=2)
        cached_pipeline(cache, small_colored, "B(x)")
        cached_pipeline(cache, small_colored, "R(x)")
        cached_pipeline(cache, small_colored, "B(x) & R(y)")
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        # "B(x)" was evicted; rebuilding is a miss.
        cached_pipeline(cache, small_colored, "B(x)")
        assert cache.stats()["misses"] == 4

    def test_normalize_formula_text(self):
        assert normalize_formula(parse("B(x) & R(y)")) == normalize_formula(
            parse("(B(x)) & (R(y))")
        )


class TestHeuristic:
    def test_empty_branch_costs_nothing(self):
        assert estimate_branch_work([10, 0, 5], 4) == 0

    def test_work_scales_with_lists_and_degree(self):
        small = estimate_branch_work([10, 10], 2)
        bigger = estimate_branch_work([100, 100], 2)
        assert bigger > small
        assert estimate_branch_work([10, 10], 8) > small

    def test_single_heavy_branch_still_parallelizes(self):
        # Intra-branch sharding makes one heavy branch splittable.
        assert choose_execution_mode([10**9], workers=8) == "process"

    def test_single_tiny_branch_is_serial(self):
        assert choose_execution_mode([10], workers=8) == "serial"

    def test_one_worker_is_serial(self):
        assert choose_execution_mode([10**6, 10**6], workers=1) == "serial"

    def test_small_work_is_serial(self):
        assert choose_execution_mode([10, 10], workers=4) == "serial"

    def test_medium_work_is_serial(self):
        # Threads never beat serial under the GIL; below the process
        # threshold the work stays in the caller.
        assert choose_execution_mode([50_000, 50_000], workers=4) == "serial"

    def test_large_work_is_process(self):
        assert choose_execution_mode([10**6, 10**6], workers=4) == "process"

    def test_decide_mode_rejects_bad_mode(self, small_colored):
        pipeline = plan(small_colored, EXAMPLE)
        with pytest.raises(EngineError):
            decide_mode(pipeline, workers=2, mode="fiber")
        with pytest.raises(EngineError):
            decide_mode(pipeline, workers=2, mode="thread")

    def test_trivial_pipeline_resolves_serial(self, small_colored):
        pipeline = plan(small_colored, "B(x) | ~B(x)", order=(Var("x"),))
        assert pipeline.trivial is True
        assert decide_mode(pipeline, workers=4, mode="process") == ("serial", 1)

    def test_budget_within_one_chunk_keeps_auto_serial(
        self, small_colored, monkeypatch
    ):
        # Auto goes process for any work, so only the serial head (the
        # first chunk_rows rows) decides whether a budgeted run leaves
        # the caller.
        monkeypatch.setattr(
            executor, "choose_execution_mode", lambda *args, **kwargs: "process"
        )
        pipeline = plan(small_colored, EXAMPLE)

        def resolved(backend, budget, chunk_rows=None):
            plan_ = ExecutionPlan(
                pipeline, workers=2, row_budget=budget, chunk_rows=chunk_rows
            )
            return backend.resolve(plan_)[0], backend.head_rows(plan_)

        assert resolved(AUTO, 10, chunk_rows=10) == ("serial", None)
        assert resolved(AUTO, 11, chunk_rows=10) == ("process", 10)
        assert resolved(AUTO, None, chunk_rows=10) == ("process", 10)
        # A forced mode is kept (no head); the budget only truncates it.
        assert resolved(PROCESS, 1) == ("process", None)
        # The run agrees: a budget within the head never hands over.
        stats = TransferStats()
        rows = list(
            parallel_enumerate(
                pipeline, workers=2, chunk_rows=10, row_budget=10,
                transfer_stats=stats,
            )
        )
        assert rows == list(enumerate_answers(pipeline))[:10]
        assert stats.head_rows is None and stats.chunks == 0

    def test_branch_works_matches_branches(self, small_colored):
        pipeline = plan(small_colored, EXAMPLE)
        works = branch_works(pipeline)
        assert len(works) == pipeline.branch_count

    def test_decide_count_mode_rejects_bad_mode(self, small_colored):
        from repro.engine import decide_count_mode

        pipeline = plan(small_colored, EXAMPLE)
        with pytest.raises(EngineError):
            decide_count_mode(pipeline, workers=2, mode="fiber")
        assert decide_count_mode(pipeline, workers=1) == ("serial", 1)


class TestAnswersHandle:
    def test_paging_covers_all_answers(self, medium_db):
        serial = list(enumerate_answers(medium_db.query(EXAMPLE).pipeline))
        handle = medium_db.query(EXAMPLE).answers()
        paged = []
        index = 0
        while True:
            page = handle.page(index, size=37)
            if not page:
                break
            paged.extend(page)
            index += 1
        assert paged == serial

    def test_page_is_idempotent(self, small_db):
        handle = small_db.query(EXAMPLE).answers()
        assert handle.page(0, size=5) == handle.page(0, size=5)

    def test_bad_page_request(self, small_db):
        handle = small_db.query(EXAMPLE).answers()
        with pytest.raises(EngineError):
            handle.page(-1)
        with pytest.raises(EngineError):
            handle.page(0, size=0)

    def test_stream_matches_serial_order(self, medium_db):
        serial = list(enumerate_answers(medium_db.query(EXAMPLE).pipeline))
        handle = medium_db.query(EXAMPLE).answers()
        assert list(handle.stream()) == serial

    def test_stream_restarts_from_materialized_prefix(self, small_db):
        handle = small_db.query(EXAMPLE).answers()
        first = list(handle.stream())
        second = list(handle.stream())
        assert first == second

    def test_count_and_test(self, small_db):
        query = small_db.query(EXAMPLE)
        handle = query.answers()
        assert handle.count() == query.count()
        answers = list(enumerate_answers(query.pipeline))
        if answers:
            assert handle.test(answers[0])

    def test_cancel_stops_access(self, small_db):
        handle = small_db.query(EXAMPLE).answers()
        stream = handle.stream()
        next(stream)
        handle.cancel()
        assert handle.cancelled
        with pytest.raises(CancelledResultError):
            handle.page(0)
        with pytest.raises(CancelledResultError):
            handle.all()

    def test_cancel_is_idempotent(self, small_db):
        handle = small_db.query(EXAMPLE).answers()
        handle.cancel()
        handle.cancel()

    def test_count_after_cancel_raises(self, small_db):
        """Regression: count() on a cancelled handle must raise a clear
        CancelledResultError — never compute from (or return alongside)
        the partial prefix the handle pulled before cancellation."""
        handle = small_db.query(EXAMPLE).answers()
        stream = handle.stream()
        next(stream)  # partial pull
        handle.cancel()
        with pytest.raises(CancelledResultError):
            handle.count()

    def test_count_cached_before_cancel_still_raises(self, small_db):
        handle = small_db.query(EXAMPLE).answers()
        assert handle.count() >= 0  # cache the count
        handle.cancel()
        with pytest.raises(CancelledResultError):
            handle.count()

    def test_trivial_query_handles(self, small_db, small_colored):
        # Localization collapses this to a constant-true formula.
        handle = small_db.query("x = x").answers()
        answers = handle.all()
        assert answers == [(a,) for a in small_colored.domain]


class TestSharedPreprocessing:
    def test_graph_template_shared_across_queries(self, small_db):
        small_db.query("B(x) & R(y) & ~E(x,y)").answers().all()
        small_db.query("B(x) & B(y) & ~E(x,y) & x != y").answers().all()
        # Same arity, same radius: one template serves both pipelines.
        assert small_db.stats()["graph_templates"] == 1
        assert small_db.stats()["misses"] == 2

    def test_shared_graph_answers_match_unshared(self, medium_colored):
        from repro.core.pipeline import Pipeline

        texts = (EXAMPLE, "B(x) & R(y) & E(x,y)")
        with Database(medium_colored) as shared:
            got = [shared.query(text).answers().all() for text in texts]
            assert shared.stats()["graph_templates"] == 1
        # A plain pipeline builds its own colored graph (no template).
        want = [
            list(enumerate_answers(Pipeline(medium_colored, parse(text))))
            for text in texts
        ]
        assert got == want

    def test_pipelines_do_not_share_colors(self, small_db):
        first = small_db.query(EXAMPLE).pipeline
        second = small_db.query("B(x) & R(y) & E(x,y)").pipeline
        assert first.graph is not second.graph


class TestIntraBranchSharding:
    """One heavy branch must split into contiguous, exact shards."""

    TRIPLE = "B(x) & R(y) & G(z) & ~E(x,y) & ~E(y,z) & ~E(x,z)"

    @pytest.fixture(scope="class")
    def triple_pipeline(self):
        db = random_colored_graph(
            40, max_degree=4, colors=("B", "R", "G"), seed=42
        )
        return plan(db, self.TRIPLE)

    def test_units_are_ordered_and_contiguous(self, triple_pipeline):
        units = plan_work_units(triple_pipeline, workers=4)
        assert [unit[0] for unit in units] == sorted(unit[0] for unit in units)
        per_branch = {}
        for branch_index, start, stop in units:
            per_branch.setdefault(branch_index, []).append((start, stop))
        for branch_index, slices in per_branch.items():
            if slices == [(0, None)]:
                continue
            size = arm_enumerator(triple_pipeline, branch_index).outer_size()
            assert slices[0][0] == 0
            assert slices[-1][1] == size
            for (_, left_stop), (right_start, _) in zip(slices, slices[1:]):
                assert left_stop == right_start, "shards must be contiguous"

    def test_heavy_branch_is_sharded(self, triple_pipeline):
        units = plan_work_units(triple_pipeline, workers=4)
        assert len(units) > triple_pipeline.branch_count

    def test_shard_concatenation_is_exact(self, triple_pipeline):
        units = plan_work_units(triple_pipeline, workers=4)
        sharded = []
        for branch_index, start, stop in units:
            outer_slice = None if start == 0 and stop is None else (start, stop)
            sharded.extend(
                enumerate_branch(
                    triple_pipeline, branch_index, outer_slice=outer_slice
                )
            )
        serial = []
        for branch_index in range(triple_pipeline.branch_count):
            serial.extend(enumerate_branch(triple_pipeline, branch_index))
        assert sharded == serial

    def test_shards_exact_in_precompute_mode(self, triple_pipeline):
        whole = list(
            enumerate_branch(triple_pipeline, 4, skip_mode="precompute")
        )
        size = arm_enumerator(
            triple_pipeline, 4, skip_mode="precompute"
        ).outer_size()
        pieces = []
        cut = size // 2
        for outer_slice in ((0, cut), (cut, size)):
            pieces.extend(
                enumerate_branch(
                    triple_pipeline,
                    4,
                    skip_mode="precompute",
                    outer_slice=outer_slice,
                )
            )
        assert pieces == whole


class TestChunkStream:
    """Every mode yields one stream of wire buffers, each decoding to at
    most ``chunk_rows`` rows."""

    @pytest.fixture(scope="class")
    def pool(self):
        with WorkerPool(2) as pool:
            yield pool

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_chunks_never_exceed_chunk_rows(self, medium_colored, pool, mode):
        pipeline = plan(medium_colored, EXAMPLE)
        serial = list(enumerate_answers(pipeline))
        codec = ColumnarCodec(pipeline.intern_table)
        for chunk_rows in (1, 37):
            chunks = [
                codec.decode(buf)
                for buf in run_branches(
                    pipeline, workers=2, mode=mode, pool=pool, chunk_rows=chunk_rows
                )
            ]
            assert all(0 < len(chunk) <= chunk_rows for chunk in chunks)
            assert [row for chunk in chunks for row in chunk] == serial

    def test_serial_page_pulls_one_chunk_of_a_big_branch(self, monkeypatch):
        """A first page must not drain the branch it starts in: constant
        delay means a page costs O(page), not O(branch)."""
        pulled = {}

        def counting_branch(pipeline, branch_index, **options):
            for answer in enumerate_branch(pipeline, branch_index, **options):
                pulled[branch_index] = pulled.get(branch_index, 0) + 1
                yield answer

        monkeypatch.setattr(executor, "enumerate_branch", counting_branch)
        chunk_rows = 100
        structure = random_colored_graph(200, max_degree=3, seed=5)
        with Database(structure) as db:
            query = db.query(EXAMPLE, backend="serial", chunk_rows=chunk_rows)
            sizes = [
                sum(1 for _ in enumerate_branch(query.pipeline, index))
                for index in range(query.pipeline.branch_count)
            ]
            big = [index for index, size in enumerate(sizes) if size > 10 * chunk_rows]
            assert big, "the workload needs a branch of more than 10 chunks"
            page = query.answers().page(0, 100)
        assert page == list(enumerate_answers(query.pipeline))[:100]
        for index in big:
            assert pulled.get(index, 0) <= chunk_rows


    @pytest.mark.skipif(not mailbox_available(), reason="shared memory unavailable")
    def test_drain_error_without_a_pool_does_not_hang(self):
        """An error in the parent's drain must abandon every ring before
        the call-scoped pool joins its workers: a worker blocked on a full
        ring only returns once its ring is abandoned."""

        class FailingStats(TransferStats):
            def record(self, nbytes, rows, source=None):
                super().record(nbytes, rows, source)
                raise RuntimeError("accounting failed")

        pipeline = plan(random_colored_graph(400, max_degree=3, seed=5), EXAMPLE)
        outcome = []

        def drain():
            try:
                for _ in run_branches(
                    pipeline, workers=2, mode="process", chunk_rows=16,
                    transfer_stats=FailingStats(),
                ):
                    pass
            except RuntimeError as error:
                outcome.append(error)

        thread = threading.Thread(target=drain, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "the pool join hung on a full ring"
        assert [str(error) for error in outcome] == ["accounting failed"]


class TestFailureRecovery:
    def test_retry_after_worker_failure_is_complete(self, medium_db):
        """Regression: a failed pull must not leave partial answers that a
        retry would serve as the complete result set."""
        query = medium_db.query(EXAMPLE)
        handle = query.answers()
        want = list(enumerate_answers(query.pipeline))

        def broken_source():
            yield want[:2]
            raise RuntimeError("worker died")

        handle._source = broken_source()
        with pytest.raises(RuntimeError):
            handle.all()
        # The retry rebuilds a fresh source and returns everything.
        assert handle.all() == want


class TestBudgetPropagation:
    def test_rebuild_spec_carries_budget(self, small_colored):
        from repro.fo.localize import LocalizationBudget

        budget = LocalizationBudget(max_derived=10_000)
        pipeline = plan(small_colored, EXAMPLE, budget=budget)
        spec = pipeline.rebuild_spec()
        assert spec[3] is budget
        from repro.engine.executor import _default_spec_key

        keyed = _default_spec_key(pipeline)
        default = _default_spec_key(plan(small_colored, EXAMPLE))
        assert keyed != default, "budget must distinguish worker memo keys"


class TestParallelEnumerateEdgeCases:
    def test_empty_answer_set(self, small_colored):
        pipeline = plan(small_colored, "B(x) & R(x) & ~(x = x)")
        assert list(parallel_enumerate(pipeline, workers=2)) == []

    def test_negative_budget_on_a_trivial_pipeline(self, small_colored):
        pipeline = plan(small_colored, "B(x) | ~B(x)", order=(Var("x"),))
        with pytest.raises(EngineError):
            list(parallel_enumerate(pipeline, row_budget=-1))

    def test_workers_validation(self, small_colored):
        pipeline = plan(small_colored, EXAMPLE)
        with pytest.raises(EngineError):
            list(parallel_enumerate(pipeline, workers=0))

    def test_session_rejects_bad_workers_eagerly(self, small_colored):
        with pytest.raises(EngineError):
            Database(small_colored, workers=0)


class TestTriviallyTrue:
    """A query that localization collapses to ``true`` still has free
    variables: every tuple of the domain is an answer, through every
    entry point of the engine."""

    @pytest.fixture(scope="class")
    def structure(self):
        return random_colored_graph(20, seed=1)

    @pytest.fixture(scope="class")
    def expected(self, structure):
        return [(element,) for element in structure.domain]

    def query(self, db):
        return db.query("B(x) | ~B(x)", order=(Var("x"),))

    def test_run_branches_yields_every_tuple(self, structure, expected):
        with Database(structure) as db:
            pipeline = self.query(db).pipeline
            assert pipeline.trivial is True
            codec = ColumnarCodec(pipeline.intern_table)
            for mode in (None, "serial", "process"):
                chunks = [
                    codec.decode(buf)
                    for buf in run_branches(pipeline, workers=2, mode=mode, chunk_rows=7)
                ]
                assert all(0 < len(chunk) <= 7 for chunk in chunks), mode
                assert [row for chunk in chunks for row in chunk] == expected, mode

    def test_auto_backend_and_handles(self, structure, expected):
        with Database(structure) as db:
            query = self.query(db)
            plan_ = ExecutionPlan(query.pipeline, chunk_rows=6)
            assert list(AUTO.run(plan_)) == expected
            assert plan_.used_mode == "serial"
            assert AUTO.count(ExecutionPlan(query.pipeline)) == len(expected)
            handle = query.answers()
            assert handle.all() == expected
            assert handle.backend_used == "serial"
            assert query.count() == len(expected)
            assert query.answers(limit=3).all() == expected[:3]
            assert query.answers(project=(0, 0)).page(0, 2) == [
                row + row for row in expected[:2]
            ]
            assert query.explain().backend == "serial"

    def test_budgets_and_encoded_chunks(self, structure, expected):
        with Database(structure) as db:
            pipeline = self.query(db).pipeline
            assert list(parallel_enumerate(pipeline, row_budget=5)) == expected[:5]
            assert list(parallel_enumerate(pipeline, row_budget=0)) == []
            codec = ColumnarCodec(pipeline.intern_table)
            buffers = list(run_branches(pipeline, chunk_rows=8))
            assert len(buffers) == 3
            assert [row for buf in buffers for row in codec.decode(buf)] == expected
            with pytest.raises(EngineError):
                run_branches(pipeline, chunk_rows=0)

    def test_encoded_handle_accounts_serial_chunks(self, structure, expected):
        with Database(structure) as db:
            encoded = self.query(db).answers_encoded(chunk_rows=8)
            codec = ColumnarCodec(InternTable(encoded.intern_elements))
            rows = [row for buf in encoded.chunks() for row in codec.decode(buf)]
            assert rows == expected
            stats = encoded.transport_stats
            assert (stats.chunks, stats.rows) == (3, 0)
            assert not encoded.pinned

    def test_sharded_query(self, structure, expected):
        with ShardedDatabase(structure.copy(), shards=2) as sdb:
            query = sdb.query("B(x) | ~B(x)", order=(Var("x"),))
            assert query.answers().all() == expected
            assert query.count() == len(expected)
            assert query.answers(limit=4).all() == expected[:4]
