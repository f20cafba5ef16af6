"""Order statistics for the ledger.

A percentile is reported only when at least ten samples lie beyond it
(p50 needs 20 samples, p90 needs 100, p99 needs 1000), and every
reported percentile carries the sample count it rests on.  The
end-to-end latencies are the fastest sample per class of operation
(:func:`mix_min`).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

MIN_BEYOND = 10


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-th
    percentile taken by nearest rank."""
    if count <= 0:
        return 0
    rank = max(1, math.ceil(q / 100.0 * count))
    return count - rank


def supported(count: int, q: float) -> bool:
    """True when ``count`` samples leave at least ten beyond the ``q``-th
    percentile."""
    return beyond(count, q) >= MIN_BEYOND


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q``-th percentile, or None when fewer than ten
    samples lie beyond it."""
    count = len(samples)
    if not supported(count, q):
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * count))
    return ordered[rank - 1]


def summary(samples: Sequence[float], q: float, scale: float = 1.0) -> Dict[str, object]:
    """``{"value", "samples"}`` for one percentile; value None when the
    sample does not support it."""
    value = percentile(samples, q)
    return {
        "value": None if value is None else value * scale,
        "samples": len(samples),
    }


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, computed the way
    ``statistics.quantiles(values, n=4)`` places the quartiles."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(median)


def best_busy(by_class: Dict[str, Sequence[float]]) -> float:
    """The time the samples would have taken had each repetition of a
    class cost the fastest one: the sum over the classes of the class's
    sample count times its minimum."""
    return sum(len(values) * min(values) for values in by_class.values() if values)


def mix_min(by_class: Dict[str, Sequence[float]]) -> Optional[float]:
    """The fastest sample of each class, averaged over the classes with
    each class weighted by its share of the samples; None without
    samples.

    A class is one repeated, deterministic operation (one query's count,
    one page position of one drain, one commit of the commit cycle).
    Load from elsewhere on the host only ever adds to a sample, so the
    fastest repetition of a class is the steadiest estimate of its cost
    (as ``timeit`` takes the best of its repeats); the weighting keeps
    the figure a per-operation average over the workload's mix.
    """
    total = sum(len(values) for values in by_class.values())
    if not total:
        return None
    return best_busy(by_class) / total


def merge_intervals(intervals: Iterable[Sequence[float]]) -> List[List[float]]:
    """Union of closed intervals, sorted and non-overlapping."""
    merged: List[List[float]] = []
    for start, end in sorted((float(a), float(b)) for a, b in intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def covered(start: float, end: float, intervals: Iterable[Sequence[float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = [
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    ]
    return sum(b - a for a, b in merge_intervals(clipped))
