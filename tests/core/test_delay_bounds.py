"""Regression guard for Theorem 2.7: constant delay, independent of n.

``skip_mode="precompute"`` is the paper's strict regime — every reach set
and skip cell is materialized during preprocessing, so the work between
two consecutive outputs is a fixed number of table lookups.  The
CostMeter counts those RAM steps exactly; this test pins the per-answer
maximum across a size sweep and fails if it ever starts growing with
``n`` (which would mean delay leaked back into the enumeration phase).

Empirically the max delta plateaus at 9 steps/answer for the running
example; the absolute ceiling below leaves headroom for legitimate
instrumentation changes while still catching any O(n) regression (at
n = 512 a linear leak would show up as hundreds of steps).
"""

from __future__ import annotations

import pytest

from repro.core.enumeration import enumerate_answers
from repro.storage.cost_model import CostMeter
from repro.structures.random_gen import random_colored_graph

from planning import plan

SIZES = [64, 128, 256, 512]
DEGREE = 4
# Absolute per-answer step ceiling: ~4x the observed plateau.
MAX_DELAY_STEPS = 32


def max_delay(db, query: str) -> int:
    pipeline = plan(db, query)
    meter = CostMeter()
    produced = 0
    for _ in enumerate_answers(pipeline, meter=meter, skip_mode="precompute"):
        meter.mark()
        produced += 1
    assert produced > 0, "sweep structure produced no answers"
    return meter.max_delta


class TestConstantDelay:
    @pytest.mark.parametrize("query", [
        "B(x) & R(y) & ~E(x,y)",   # Example 2.3 (two big blocks)
        "B(x) & R(y) & E(x,y)",    # connected pair (single-cluster branch)
    ])
    def test_delay_bounded_across_size_sweep(self, query):
        delays = [
            max_delay(random_colored_graph(n, max_degree=DEGREE, seed=17), query)
            for n in SIZES
        ]
        # Constant bound: never above the absolute ceiling.
        assert max(delays) <= MAX_DELAY_STEPS, (
            f"per-answer delay {delays} exceeds {MAX_DELAY_STEPS} steps"
        )
        # No growth with n: the largest structure may not be worse than
        # the plateau established by the smaller ones (+2 steps slack for
        # branch-boundary jitter).
        assert delays[-1] <= max(delays[:-1]) + 2, (
            f"per-answer delay grows with n: {dict(zip(SIZES, delays))}"
        )

    def test_quantified_query_delay_bounded(self):
        query = "B(x) & exists z. (R(z) & ~E(x,z))"
        delays = [
            max_delay(random_colored_graph(n, max_degree=3, seed=23), query)
            for n in SIZES[:3]
        ]
        assert max(delays) <= MAX_DELAY_STEPS
        assert delays[-1] <= max(delays[:-1]) + 2
