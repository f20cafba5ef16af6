"""Uniform-cost RAM step counting (Section 2.2).

Wall-clock delays in CPython are noisy (allocator, GC, branch caches); the
paper's claims are about *RAM steps*.  :class:`CostMeter` counts abstract
steps at the places the algorithms would issue RAM operations, so the
benchmark harness can demonstrate "constant delay" as a flat *step* count
per output, independent of ``|A|`` — exactly the quantity Theorem 2.7
bounds.

The meter is optional everywhere: passing ``meter=None`` costs one ``if``
per instrumented site.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class CostMeter:
    """Counts abstract RAM steps, grouped by operation label."""

    __slots__ = ("steps", "by_label", "_marks")

    def __init__(self) -> None:
        self.steps = 0
        self.by_label: Dict[str, int] = {}
        self._marks: List[int] = []

    def tick(self, label: str = "step", count: int = 1) -> None:
        """Record ``count`` RAM steps attributed to ``label``."""
        self.steps += count
        self.by_label[label] = self.by_label.get(label, 0) + count

    def mark(self) -> None:
        """Remember the current step count (e.g. at each enumeration output)."""
        self._marks.append(self.steps)

    def deltas(self) -> List[int]:
        """Step counts between consecutive marks: the per-output delays."""
        return [
            later - earlier
            for earlier, later in zip(self._marks, self._marks[1:])
        ]

    @property
    def max_delta(self) -> int:
        gaps = self.deltas()
        return max(gaps) if gaps else 0

    def reset(self) -> None:
        self.steps = 0
        self.by_label.clear()
        self._marks.clear()

    def snapshot(self) -> Dict[str, int]:
        return dict(self.by_label)

    def __repr__(self) -> str:
        return f"CostMeter(steps={self.steps}, labels={len(self.by_label)})"


def tick(meter: Optional[CostMeter], label: str = "step", count: int = 1) -> None:
    """Module-level helper so call sites stay one-liners."""
    if meter is not None:
        meter.tick(label, count)


# ----------------------------------------------------------------------
# Parallel-execution heuristics (used by repro.engine)
# ----------------------------------------------------------------------

# Above this many estimated steps the per-process pipeline rebuild
# amortizes and enumeration goes to worker processes; below it a pool
# costs more than it saves.
PROCESS_WORK_THRESHOLD = 500_000

_WORK_CAP = 10**15

# -- answer-transport cost terms (process mode ships answers back) -----
#
# Ballpark bytes one answer *value* costs on the wire: the columnar
# codec is bounded by the intern-id width (<= 4 bytes for any realistic
# domain) before offset narrowing and compression shrink it further.
# One RAM step per machine word moved keeps the term in the same unit as
# the work estimates.
COLUMNAR_BYTES_PER_VALUE = 4
TRANSFER_BYTES_PER_STEP = 8

# The columnar transport aims chunks at this many bytes: big enough to
# amortize per-chunk headers and the zlib call, small enough that the
# parent's first page never waits on a megabyte of undecoded rows.
TARGET_CHUNK_BYTES = 1 << 16
MIN_CHUNK_ROWS = 64
MAX_CHUNK_ROWS = 8192


def default_chunk_rows(arity: int, id_width: int) -> int:
    """Rows per transport chunk when the caller does not choose.

    Sized off the cost model's byte target: ``chunk_rows`` such that one
    encoded chunk lands near :data:`TARGET_CHUNK_BYTES`, clamped so tiny
    arities do not produce million-row chunks (first-page latency) and
    huge arities still amortize chunk headers.
    """
    row_bytes = max(arity * id_width, 1)
    return max(MIN_CHUNK_ROWS, min(MAX_CHUNK_ROWS, TARGET_CHUNK_BYTES // row_bytes))


def estimate_rows(list_sizes: Sequence[int]) -> int:
    """Pessimistic answer-count bound for one branch: the (capped)
    product of its block-list lengths — the shared input of the work,
    transfer, and explain-report estimates."""
    rows = 1
    for size in list_sizes:
        if size == 0:
            return 0
        rows *= size
        if rows >= _WORK_CAP:
            return _WORK_CAP
    return rows


def estimate_transfer_work(
    list_sizes: Sequence[int],
    arity: int,
    bytes_per_value: int,
    shard_sizes: Optional[Sequence[int]] = None,
) -> int:
    """RAM-step proxy for shipping one branch's answers to the parent.

    The branch's answer count is bounded by :func:`estimate_rows` (the
    same pessimistic bound :func:`estimate_branch_work` uses); each
    answer moves ``arity * bytes_per_value`` bytes across the process
    boundary at :data:`TRANSFER_BYTES_PER_STEP` bytes per step.

    ``shard_sizes`` — per-shard row counts when the branch is split
    across region shards or work-unit slices — switches the estimate
    from serialized to *overlapped* transfer: with the streaming chunk
    mailbox every shard ships while the others still enumerate, so the
    critical path is the largest shard plus the remainder amortized
    across the pipeline, not the plain sum.  Without this, a
    large-but-well-sharded workload ranks as expensive as an unsharded
    one and the mode chooser misranks it against serial execution.
    """
    rows = estimate_rows(list_sizes)
    if shard_sizes:
        per_shard = [max(size, 0) for size in shard_sizes if size > 0]
        if per_shard:
            total = sum(per_shard)
            # Scale the row bound by each shard's share, then take the
            # overlapped critical path: max + (rest / lanes).
            scaled = [rows * size // total for size in per_shard]
            heaviest = max(scaled)
            rows = heaviest + (sum(scaled) - heaviest) // len(scaled)
    return min(rows * arity * bytes_per_value // TRANSFER_BYTES_PER_STEP, _WORK_CAP)


def estimate_branch_work(list_sizes: Sequence[int], graph_degree: int) -> int:
    """A RAM-step proxy for enumerating one branch ``(P, t)``.

    The branch's answer count is bounded by the product of its block-list
    lengths; each output costs a constant number of skip probes whose
    fan-out scales with the colored-graph degree.  The estimate is
    deliberately pessimistic (no credit for skip pruning) — it only needs
    to *rank* branches and workloads, not predict wall-clock.
    """
    work = 1
    for size in list_sizes:
        if size == 0:
            return 0
        work *= size
        if work >= _WORK_CAP:
            return _WORK_CAP
    return min(work * (graph_degree + 1), _WORK_CAP)


def choose_execution_mode(
    branch_works: Sequence[int],
    workers: int,
    process_threshold: int = PROCESS_WORK_THRESHOLD,
    transfer_work: Optional[int] = None,
) -> str:
    """Pick ``"serial"`` or ``"process"`` for a workload.

    * one worker, or small and medium total work (pool setup and the
      per-worker pipeline rebuild dominate): serial;
    * large total work: processes (each worker rebuilds the pipeline from
      the picklable spec once and the CPU-bound enumeration scales past
      the GIL; a *single* heavy branch is still parallel-worthy, since
      the executor shards within branches) — *unless* ``transfer_work``
      (the estimated cost of shipping the answers back,
      :func:`estimate_transfer_work`) would eat the multi-core speedup:
      answers cross the process boundary on the serialized parent side,
      so when moving them costs more than half the compute, serial wins.
    """
    if workers <= 1:
        return "serial"
    total = sum(work for work in branch_works if work > 0)
    if total < process_threshold:
        return "serial"
    if transfer_work is not None and 2 * transfer_work > total:
        return "serial"
    return "process"
