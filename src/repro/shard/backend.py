"""Scatter-gather execution over a sharded plan.

:class:`ShardGatherBackend` implements the session's
:class:`repro.session.backends.ExecutionBackend` protocol on top of a
:class:`repro.shard.database._ShardPlan`: the *scatter* already happened
at plan-build time (one derived pipeline per region), so the backend's
job is the *gather* — producing the exact global answer stream from the
per-shard pieces.

Single-block branches are merged **without ever materializing a
shard**: each shard contributes a lazy iterator over its branch list,
and a ``heapq.merge`` keyed by the domain rank of the node's seed
element interleaves them into precisely the merged pipeline's node
order (seeds are unique to one shard, so there are no cross-shard ties;
within a shard, list order is already nondecreasing in seed rank).
Multi-block branches — whose answers may combine clusters from
*different* shards — run on the merged pipeline, which exists for
exactly this purpose.  Counting uses the same split: per-shard branch
counts sum exactly for single-block branches (the lists partition),
merged counts cover the rest.

The output is byte-identical to the unsharded serial enumeration; the
differential suite in ``tests/shard`` enforces it configuration by
configuration.  When the plan is no longer canonical (its shard graphs
went stale after an in-place maintenance pass) or was never sharded (a
trivial pipeline has no graph to shard) the merged pipeline — which
*is* maintained — goes to the cost-model-driven ``auto`` backend.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterator, List, Tuple

from repro.core.counting import count_branch_at
from repro.core.enumeration import enumerate_branch
from repro.engine.executor import resolve_chunk_rows
from repro.session.backends import AUTO, ExecutionPlan

Element = Hashable
Answer = Tuple[Element, ...]

# Sentinel shard index for rows produced by the merged pipeline
# (multi-block branches, whose answers span shards).
MERGED = -1


class ShardGatherBackend:
    """Gather per-shard branch streams into the global answer order."""

    name = "shard-stream"

    def __init__(self, state, rank):
        self._state = state
        self._rank = rank

    # -- protocol ------------------------------------------------------

    def run(self, plan: ExecutionPlan) -> Iterator[List[Answer]]:
        if not self._streamable(plan):
            return AUTO.run(plan)
        plan.used_mode = "shard-stream"
        plan.used_transport = "none"
        return self._stream(plan)

    def count(self, plan: ExecutionPlan) -> int:
        if not self._streamable(plan):
            return AUTO.count(plan)
        plan.used_count_mode = "shard-sum"
        merged = self._state.merged
        shards = self._state.shards
        total = 0
        for index, branch in enumerate(merged.branches):
            if len(branch.lists) == 1:
                total += sum(
                    count_branch_at(shard, index) for shard in shards
                )
            else:
                total += count_branch_at(merged, index)
        return total

    # -- internals -----------------------------------------------------

    def _streamable(self, plan: ExecutionPlan) -> bool:
        state = self._state
        if state.shards is None or not state.canonical:
            return False
        # The plan the session built must be over our merged pipeline;
        # anything else (a foreign pipeline) goes through the engine.
        return plan.pipeline is state.merged

    def _stream(self, plan: ExecutionPlan) -> Iterator[List[Answer]]:
        merged = self._state.merged
        chunk_rows = resolve_chunk_rows(merged, plan.chunk_rows)
        columns = plan.project_columns
        budget = plan.row_budget
        stats = plan.transfer_stats
        produced = 0
        for index in range(len(merged.branches)):
            chunk: List[Answer] = []
            shard_rows: Dict[int, int] = {}
            for answer, shard_index in self._branch_stream(index):
                if columns is not None:
                    answer = tuple(answer[i] for i in columns)
                chunk.append(answer)
                shard_rows[shard_index] = shard_rows.get(shard_index, 0) + 1
                produced += 1
                if len(chunk) >= chunk_rows:
                    self._account(stats, shard_rows)
                    yield chunk
                    chunk = []
                    shard_rows = {}
                if budget is not None and produced >= budget:
                    if chunk:
                        self._account(stats, shard_rows)
                        yield chunk
                    return
            if chunk:
                self._account(stats, shard_rows)
                yield chunk

    @staticmethod
    def _account(stats, shard_rows: Dict[int, int]) -> None:
        if stats is None:
            return
        for shard_index, rows in shard_rows.items():
            source = (
                "merged" if shard_index == MERGED else f"shard{shard_index}"
            )
            stats.record(0, rows, source=source)

    def _branch_stream(self, index: int) -> Iterator[Tuple[Answer, int]]:
        """One branch's answers in global order, tagged with their shard.

        Single-block branches merge per-shard streams lazily; branches
        with zero or several blocks (the empty answer tuple, or answers
        combining far-apart clusters that may live in different shards)
        enumerate from the merged pipeline.
        """
        merged = self._state.merged
        if len(merged.branches[index].lists) != 1:
            for answer in enumerate_branch(merged, index):
                yield answer, MERGED
            return
        rank = self._rank

        def source(shard_index: int, shard) -> Iterator[Tuple[int, int, Answer]]:
            branch = shard.branches[index]
            nodes = shard.graph.nodes
            plan_index = branch.plan.index
            for node_id in branch.lists[0]:
                yield (
                    rank(nodes[node_id].elements[0]),
                    shard_index,
                    shard.decode(plan_index, (node_id,)),
                )

        streams = [
            source(shard_index, shard)
            for shard_index, shard in enumerate(self._state.shards)
        ]
        for _, shard_index, answer in heapq.merge(
            *streams, key=lambda entry: entry[0]
        ):
            yield answer, shard_index
