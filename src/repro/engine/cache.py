"""Pipeline caching for the batch engine.

Preprocessing (Proposition 3.4) is the expensive half of every query; a
service answering heavy traffic sees the same (structure, query) pairs
over and over.  :class:`PipelineCache` memoizes built pipelines under the
key

    (structure fingerprint, normalized formula text, variable order)

* the *fingerprint* (:func:`repro.structures.serialize.fingerprint`) is a
  content hash, so any fact insertion/deletion changes the key and stale
  pipelines simply stop being hit;
* the *normalized formula* runs the query text through the parser and
  :func:`repro.fo.normalize.simplify`, so trivially different spellings
  (``B(x) & R(y)`` vs ``(B(x)) & (R(y))``) share one entry;
* *order* completes the key because it fixes the pipeline's answer
  order.

Eviction is LRU with a fixed capacity; hits/misses/evictions are counted
for observability.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.pipeline import Pipeline
from repro.fo import coerce_formula
from repro.fo.normalize import simplify
from repro.fo.syntax import Formula, Var
from repro.structures.serialize import fingerprint
from repro.structures.structure import Structure

CacheKey = Tuple[str, str, Optional[Tuple[str, ...]]]


def coerce_order(
    order: Optional[Sequence[Union[Var, str]]]
) -> Optional[Tuple[Var, ...]]:
    if order is None:
        return None
    return tuple(var if isinstance(var, Var) else Var(var) for var in order)


def normalize_formula(query: Formula) -> str:
    """The formula's cache-key text: simplified, canonically printed."""
    return str(simplify(query))


def cache_key(
    structure_fingerprint: str,
    query: Formula,
    order: Optional[Tuple[Var, ...]],
) -> CacheKey:
    order_names = tuple(var.name for var in order) if order is not None else None
    return (structure_fingerprint, normalize_formula(query), order_names)


class PipelineCache:
    """LRU cache of built :class:`Pipeline` objects."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, Pipeline]" = OrderedDict()
        # fingerprint tag -> pin count: entries under a retained tag are
        # never LRU-evicted (live snapshots/answer handles may still
        # plan against them); the cache may exceed capacity by the
        # number of retained *entries* — the capacity budget applies to
        # the unpinned population.
        self._retained: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def get(self, key: CacheKey) -> Optional[Pipeline]:
        pipeline = self._entries.get(key)
        if pipeline is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return pipeline

    def put(self, key: CacheKey, pipeline: Pipeline) -> None:
        self._entries[key] = pipeline
        self._entries.move_to_end(key)
        if len(self._entries) <= self.capacity:
            return
        if not self._retained:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return
        # Pinned entries ride *above* capacity: the budget applies to the
        # unpinned population, so a pile of retained snapshot versions
        # can never starve head caching (evicting the entry just
        # inserted would silently disable caching and maintenance).
        retained_entries = sum(
            1 for k in self._entries if k[0] in self._retained
        )
        allowed = self.capacity + retained_entries
        if len(self._entries) <= allowed:
            return
        # Evict oldest-first among the unpinned entries only.
        for candidate in [k for k in self._entries if k[0] not in self._retained]:
            if len(self._entries) <= allowed:
                return
            del self._entries[candidate]
            self.evictions += 1

    # -- snapshot retention --------------------------------------------

    def retain(self, structure_fingerprint: str) -> None:
        """Protect one fingerprint's entries from LRU eviction."""
        self._retained[structure_fingerprint] = (
            self._retained.get(structure_fingerprint, 0) + 1
        )

    def release(self, structure_fingerprint: str) -> None:
        """Drop one retention pin (a no-op for unretained fingerprints)."""
        count = self._retained.get(structure_fingerprint, 0) - 1
        if count > 0:
            self._retained[structure_fingerprint] = count
        else:
            self._retained.pop(structure_fingerprint, None)

    def retained(self, structure_fingerprint: str) -> bool:
        return structure_fingerprint in self._retained

    def get_or_build(
        self,
        structure: Structure,
        query: Union[Formula, str],
        order: Optional[Sequence[Union[Var, str]]] = None,
        structure_fingerprint: Optional[str] = None,
        graph_factory=None,
    ) -> Tuple[Pipeline, CacheKey]:
        """Return the cached pipeline for the key, building on a miss."""
        formula = coerce_formula(query)
        variable_order = coerce_order(order)
        if structure_fingerprint is None:
            structure_fingerprint = fingerprint(structure)
        key = cache_key(structure_fingerprint, formula, variable_order)
        pipeline = self.get(key)
        if pipeline is None:
            pipeline = Pipeline(
                structure,
                formula,
                order=variable_order,
                graph_factory=graph_factory,
            )
            self.put(key, pipeline)
        return pipeline, key

    def rekey(self, old_fingerprint: str, new_fingerprint: str, keep) -> int:
        """Targeted invalidation after an in-session dynamic update.

        Entries whose full key is in ``keep`` (their pipelines were
        maintained in place) move from ``old_fingerprint`` to
        ``new_fingerprint`` and stay hits; every other entry under the
        old fingerprint is dropped.  Returns how many entries moved.
        LRU recency is preserved for the movers.
        """
        moved = 0
        for key in [k for k in self._entries if k[0] == old_fingerprint]:
            pipeline = self._entries.pop(key)
            if key in keep:
                self._entries[(new_fingerprint,) + key[1:]] = pipeline
                moved += 1
        return moved

    def discard(self, key: CacheKey) -> None:
        """Drop one entry (a no-op when absent)."""
        self._entries.pop(key, None)

    def entries_for(self, structure_fingerprint: str):
        """All ``(key, pipeline)`` pairs under one fingerprint tag.

        LRU order (oldest first), recency untouched.  The session layer
        uses this to spill the current head's warm pipelines to disk at
        checkpoint time and to rekey after a lineage restore.
        """
        return [
            (key, pipeline)
            for key, pipeline in self._entries.items()
            if key[0] == structure_fingerprint
        ]

    def invalidate(self, structure_fingerprint: Optional[str] = None) -> int:
        """Drop entries for one fingerprint (or everything); return count."""
        if structure_fingerprint is None:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped
        stale = [
            key for key in self._entries if key[0] == structure_fingerprint
        ]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "retained_fingerprints": len(self._retained),
        }
