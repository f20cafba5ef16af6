"""repro.shard — region-sharded structures with scatter-gather execution.

The sharding subsystem exploits the paper's own locality machinery for
data placement: connected components of the Gaifman graph are
interaction-free, so a structure splits into per-region substructures
whose derived pipelines jointly reproduce the global pipeline exactly.

Public surface:

* :class:`RegionPartitioner` / :class:`ShardLayout` — deterministic
  component packing (:mod:`repro.shard.partition`);
* :class:`ShardedDatabase` / :class:`ShardedQuery` — the session-style
  front-end with transactional, ownership-split updates
  (:mod:`repro.shard.database`);
* :class:`ShardGatherBackend` — the order-exact stream gather
  (:mod:`repro.shard.backend`);
* :func:`shard_blockers` — why a query must stay unsharded.
"""

from repro.shard.backend import ShardGatherBackend
from repro.shard.database import ShardedDatabase, ShardedQuery, shard_blockers
from repro.shard.partition import RegionPartitioner, ShardLayout, merge_shards

__all__ = [
    "RegionPartitioner",
    "ShardLayout",
    "merge_shards",
    "ShardGatherBackend",
    "ShardedDatabase",
    "ShardedQuery",
    "shard_blockers",
]
