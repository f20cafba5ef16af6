"""Tests for RAM step accounting and the execution-mode heuristics."""

from repro.storage.cost_model import (
    COLUMNAR_BYTES_PER_VALUE,
    MAX_CHUNK_ROWS,
    MIN_CHUNK_ROWS,
    CostMeter,
    choose_execution_mode,
    default_chunk_rows,
    estimate_transfer_work,
    tick,
)


class TestCostMeter:
    def test_tick_accumulates(self):
        meter = CostMeter()
        meter.tick("a")
        meter.tick("a", count=2)
        meter.tick("b")
        assert meter.steps == 4
        assert meter.by_label == {"a": 3, "b": 1}

    def test_marks_and_deltas(self):
        meter = CostMeter()
        meter.tick(count=5)
        meter.mark()
        meter.tick(count=3)
        meter.mark()
        meter.tick(count=7)
        meter.mark()
        assert meter.deltas() == [3, 7]
        assert meter.max_delta == 7

    def test_no_marks_means_no_deltas(self):
        meter = CostMeter()
        meter.tick()
        assert meter.deltas() == []
        assert meter.max_delta == 0

    def test_reset(self):
        meter = CostMeter()
        meter.tick()
        meter.mark()
        meter.reset()
        assert meter.steps == 0
        assert meter.by_label == {}
        assert meter.deltas() == []

    def test_snapshot_is_a_copy(self):
        meter = CostMeter()
        meter.tick("x")
        snap = meter.snapshot()
        meter.tick("x")
        assert snap == {"x": 1}

    def test_module_tick_with_none_is_noop(self):
        tick(None, "x")  # must not raise

    def test_module_tick_forwards(self):
        meter = CostMeter()
        tick(meter, "y", count=4)
        assert meter.steps == 4


class TestTransferTerm:
    def test_transfer_work_scales_with_rows_and_width(self):
        thin = estimate_transfer_work([100, 100], 2, COLUMNAR_BYTES_PER_VALUE)
        wide = estimate_transfer_work([100, 100], 3, COLUMNAR_BYTES_PER_VALUE)
        fat = estimate_transfer_work([100, 100], 2, 3 * COLUMNAR_BYTES_PER_VALUE)
        assert 0 < thin < wide
        assert thin < fat

    def test_transfer_work_zero_for_empty_branch(self):
        assert estimate_transfer_work([100, 0], 2, 4) == 0

    def test_no_transfer_term_keeps_legacy_choice(self):
        assert choose_execution_mode([10**6, 10**6], workers=4) == "process"

    def test_cheap_transfer_keeps_process(self):
        works = [10**6, 10**6]
        assert (
            choose_execution_mode(works, workers=4, transfer_work=10**5)
            == "process"
        )

    def test_dominant_transfer_declines_process(self):
        """When shipping the answers costs more than half the compute,
        the multi-core speedup is gone — stay serial (zero-copy)."""
        works = [10**6, 10**6]
        assert (
            choose_execution_mode(works, workers=4, transfer_work=2 * 10**6)
            == "serial"
        )

    def test_medium_work_stays_serial_whatever_the_transfer(self):
        for transfer_work in (None, 0, 10**9):
            assert (
                choose_execution_mode([50_000], workers=4, transfer_work=transfer_work)
                == "serial"
            )

    def test_lanes_overlap_lowers_the_estimate(self):
        serialized = estimate_transfer_work([1000, 100], 2, 4)
        overlapped = estimate_transfer_work([1000, 100], 2, 4, lanes=4)
        assert 0 < overlapped < serialized

    def test_lanes_follow_the_critical_path(self):
        # rows=1000 in 4 equal shares of 250: the overlapped bound is one
        # share plus the other three amortized across the lanes —
        # 250 + (3 * 250) // 4 = 437 rows of the serialized 1000.
        assert estimate_transfer_work([1000], 1, 8) == 1000
        assert estimate_transfer_work([1000], 1, 8, lanes=4) == 437

    def test_one_lane_is_serialized(self):
        serialized = estimate_transfer_work([1000], 2, 4)
        assert estimate_transfer_work([1000], 2, 4, lanes=1) == serialized


class TestDefaultChunkRows:
    def test_clamped_to_bounds(self):
        assert default_chunk_rows(1, 1) == MAX_CHUNK_ROWS
        assert default_chunk_rows(512, 8) == MIN_CHUNK_ROWS

    def test_shrinks_as_rows_widen(self):
        assert default_chunk_rows(2, 1) >= default_chunk_rows(8, 4)
        assert default_chunk_rows(3, 2) >= 1
