"""Tests for the benchmark harness helpers (benchmarks/workloads.py)."""

import math
import os
import sys

import pytest

BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if BENCHMARKS not in sys.path:  # benchmarks/ is a script directory
    sys.path.insert(0, BENCHMARKS)

from workloads import (  # noqa: E402
    EXAMPLE_23,
    colored_graph,
    consume,
    fitted_exponent,
    query,
    three_colored_graph,
)


class TestCaching:
    def test_colored_graph_cached(self):
        assert colored_graph(64, 3) is colored_graph(64, 3)

    def test_different_parameters_not_shared(self):
        assert colored_graph(64, 3) is not colored_graph(64, 4)

    def test_query_cached(self):
        assert query(EXAMPLE_23) is query(EXAMPLE_23)

    def test_three_colored_has_green(self):
        db = three_colored_graph(32, 3)
        assert "G" in db.signature


class TestConsume:
    def test_consumes_up_to_limit(self):
        assert consume(iter(range(100)), 7) == 7

    def test_short_iterator(self):
        assert consume(iter(range(3)), 10) == 3

    def test_zero_limit(self):
        assert consume(iter(range(3)), 0) == 0


class TestFittedExponent:
    def test_linear_data(self):
        xs = [1, 2, 4, 8]
        ys = [10, 20, 40, 80]
        assert fitted_exponent(xs, ys) == pytest.approx(1.0)

    def test_quadratic_data(self):
        xs = [1, 2, 4, 8]
        ys = [x * x for x in xs]
        assert fitted_exponent(xs, ys) == pytest.approx(2.0)

    def test_constant_data_is_zero(self):
        assert fitted_exponent([1, 2, 4], [5, 5, 5]) == pytest.approx(0.0)

    def test_noisy_near_linear(self):
        xs = [512, 1024, 2048, 4096]
        ys = [0.9 * x ** 1.1 for x in xs]
        assert fitted_exponent(xs, ys) == pytest.approx(1.1, abs=1e-6)

    def test_insufficient_points(self):
        assert math.isnan(fitted_exponent([1], [1]))

    def test_zero_values_skipped(self):
        assert fitted_exponent([1, 2, 4], [0, 2, 4]) == pytest.approx(1.0)
