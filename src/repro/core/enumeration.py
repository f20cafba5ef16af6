"""Constant-delay enumeration (Proposition 3.10, Theorem 2.7).

Each branch ``(P, t)`` asks for tuples choosing one node per block from the
branch's lists, pairwise non-adjacent in the colored graph.  Enumeration
follows the paper's two key devices:

* **The skip function** (the "main technical originality" of the paper):
  when iterating a block list in the fixed linear order, ``skip(y, V)``
  jumps in constant time from a blocked candidate ``y`` to the next list
  element not adjacent to any node in ``V``, where ``V`` is the subset of
  the current prefix that is ``E_l``-related to ``y``.  The relations
  ``E_1 subset E_2 subset ...`` are the paper's next-pointer closures: they
  ensure the restriction of the prefix to ``V`` loses no adjacency
  information along the skip chain.

* **The big/small block dichotomy** (the paper's intro: components close
  to each other admit few answers which can be precomputed; far components
  are handled by skipping).  Blocks whose list is short (at most
  ``(l-1) * max_degree(G)``) are ground to an explicit table of jointly
  compatible assignments during preprocessing; the remaining *big* lists
  can never be exhausted by at most ``l-1`` placed blockers, so every
  prefix extends to a full answer and the nested iteration never stalls.
  This replaces the paper's re-invocation of the full quantifier
  elimination on the prefix query ``theta'`` (their induction on arity)
  with an equivalent extendability guarantee.

``skip_mode`` selects how skip values are produced:

* ``"lazy"`` (default): computed on first use and memoized — identical
  output, amortized-constant delay; avoids the paper's
  ``d-hat^(3 k^2)``-sized precomputation.
* ``"precompute"``: the paper's strict worst-case-constant-delay variant;
  all reach sets and skip cells are filled during preprocessing (guarded
  by a budget — this is exactly the "huge constants" regime).

Strict mode is core-only: the engine, session and shard layers always
enumerate lazily, and ``precompute`` is reached only through this
module (:func:`enumerate_answers`, :func:`enumerate_branch`,
:func:`arm_enumerator`, :class:`BranchEnumerator`), as the paper's
reference.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, FrozenSet, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.core.colored_graph import ColoredGraph
from repro.core.pipeline import Branch, Pipeline
from repro.errors import EvaluationError, UnsupportedQueryError
from repro.storage.cost_model import CostMeter, tick

Element = Hashable


class SkipList:
    """The skip machinery for one block list (the paper's list ``P(G)``).

    ``arity`` is the number of blocks ``l`` of the branch: prefixes have at
    most ``l - 1`` nodes, so the relevant closure is ``E_l``.
    """

    def __init__(self, graph: ColoredGraph, nodes: Sequence[int], arity: int):
        self.graph = graph
        self.nodes = list(nodes)
        self.arity = arity
        self._index: Dict[int, int] = {
            node: position for position, node in enumerate(self.nodes)
        }
        self._reach: Dict[int, FrozenSet[int]] = {}
        self._skip: Dict[Tuple[int, FrozenSet[int]], Optional[int]] = {}

    # -- list order ------------------------------------------------------

    def first(self) -> Optional[int]:
        return self.nodes[0] if self.nodes else None

    def next(self, node: int) -> Optional[int]:
        position = self._index[node] + 1
        if position >= len(self.nodes):
            return None
        return self.nodes[position]

    def __len__(self) -> int:
        return len(self.nodes)

    # -- E_l closure -------------------------------------------------------

    def reach(self, node: int) -> FrozenSet[int]:
        """``{u : (u, node) in E_l}``: the paper's inductive closure.

        ``E_1(u, y) = E'(u, y)``;
        ``E_{i+1}(u, y) = E_i(u, y) or exists z, z', v:
        E'(z, u) and next(z', z) and E'(v, z') and E_i(v, y)``.
        """
        cached = self._reach.get(node)
        if cached is not None:
            return cached
        current = set(self.graph.neighbors(node))
        for _ in range(self.arity - 1):
            addition: set = set()
            for v in current:
                for z_prime in self.graph.neighbors(v):
                    if z_prime not in self._index:
                        continue
                    z = self.next(z_prime)
                    if z is None:
                        continue
                    addition |= self.graph.neighbors(z)
            if addition <= current:
                break
            current |= addition
        result = frozenset(current)
        self._reach[node] = result
        return result

    def relevant(self, prefix: Sequence[int], node: int) -> FrozenSet[int]:
        """``V``: the prefix nodes ``E_l``-related to ``node``."""
        reachable = self.reach(node)
        return frozenset(v for v in prefix if v in reachable)

    # -- skip ---------------------------------------------------------------

    def skip(
        self, node: int, blockers: FrozenSet[int], meter: Optional[CostMeter] = None
    ) -> Optional[int]:
        """Smallest list element >= ``node`` not adjacent to any blocker."""
        key = (node, blockers)
        if key in self._skip:
            tick(meter, "enum.skip_hit")
            return self._skip[key]
        current: Optional[int] = node
        while current is not None:
            tick(meter, "enum.skip_walk")
            neighbors = self.graph.adjacency[current]
            if not any(blocker in neighbors for blocker in blockers):
                break
            current = self.next(current)
        self._skip[key] = current
        return current

    def precompute(self, max_cells: int) -> int:
        """Fill every reach set and skip cell (the paper's strict mode).

        Returns the number of skip cells materialized; raises
        :class:`UnsupportedQueryError` when the budget is exceeded — that
        is the ``d-hat^(3k^2)`` constant the paper itself flags.
        """
        cells = 0
        for node in self.nodes:
            reachable = sorted(self.reach(node))
            for size in range(0, self.arity):
                for subset in combinations(reachable, size):
                    cells += 1
                    if cells > max_cells:
                        raise UnsupportedQueryError(
                            f"strict skip precomputation exceeds {max_cells} "
                            "cells; use skip_mode='lazy'"
                        )
                    self.skip(node, frozenset(subset))
        return cells


class BranchEnumerator:
    """Constant-delay enumeration of one branch."""

    def __init__(
        self,
        pipeline: Pipeline,
        branch: Branch,
        skip_mode: str = "lazy",
        max_small_table: int = 2_000_000,
        max_skip_cells: int = 2_000_000,
    ):
        if skip_mode not in ("lazy", "precompute"):
            raise ValueError(f"unknown skip_mode {skip_mode!r}")
        assert pipeline.graph is not None
        self.graph: ColoredGraph = pipeline.graph
        self.branch = branch
        self.block_count = len(branch.lists)
        # A block can be starved only by nodes placed for *other* blocks;
        # each placed node excludes at most its own degree of candidates.
        max_degree_of = [
            max(
                (len(self.graph.adjacency[node]) for node in node_list),
                default=0,
            )
            for node_list in branch.lists
        ]
        total_degree = sum(max_degree_of)
        self.small_blocks = [
            j
            for j, node_list in enumerate(branch.lists)
            if len(node_list) <= total_degree - max_degree_of[j]
        ]
        # Enumerate small blocks shortest-list-first: dead subtrees are
        # pruned as early as possible.
        self.small_blocks.sort(key=lambda j: len(branch.lists[j]))
        self.big_blocks = [
            j for j in range(self.block_count) if j not in self.small_blocks
        ]
        self.skip_lists: Dict[int, SkipList] = {
            j: SkipList(self.graph, branch.lists[j], self.block_count)
            for j in self.big_blocks
        }
        self.skip_cells = 0
        self.small_table: Optional[List[Tuple[int, ...]]] = None
        if skip_mode == "precompute":
            for skip_list in self.skip_lists.values():
                self.skip_cells += skip_list.precompute(max_skip_cells)
            self.small_table = self._materialize_small_table(max_small_table)

    # ------------------------------------------------------------------

    def _small_assignments(
        self,
        meter: Optional[CostMeter] = None,
        first_slice: Optional[Tuple[int, Optional[int]]] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """Jointly compatible assignments of the small blocks, by DFS.

        Every small list has at most ``sum of other blocks' max degrees``
        entries, so the DFS subtree between two valid leaves has size
        bounded by ``(k * d-hat)^k`` — a constant of the same order as the
        paper's skip-table, independent of ``n``.  Lazy enumeration keeps
        memory bounded (the eager table can reach the budget on 3-ary
        branches).

        ``first_slice=(start, stop)`` restricts the *first* (outermost)
        small block's candidate list — shards rooted at disjoint list
        slices walk disjoint DFS subtrees, so sharded enumeration does no
        redundant work and slice-order concatenation is exact.
        """
        if not self.small_blocks:
            yield ()
            return
        lists = [self.branch.lists[j] for j in self.small_blocks]
        if first_slice is not None:
            start, stop = first_slice
            lists[0] = lists[0][start:stop]
        chosen: List[int] = []

        def extend(depth: int) -> Iterator[Tuple[int, ...]]:
            if depth == len(lists):
                yield tuple(chosen)
                return
            for candidate in lists[depth]:
                tick(meter, "enum.small_dfs")
                neighbors = self.graph.adjacency[candidate]
                if any(previous in neighbors for previous in chosen):
                    continue
                chosen.append(candidate)
                yield from extend(depth + 1)
                chosen.pop()

        yield from extend(0)

    def _materialize_small_table(self, max_small_table: int) -> List[Tuple[int, ...]]:
        """Strict mode: ground the small-block table during preprocessing."""
        table: List[Tuple[int, ...]] = []
        for assignment in self._small_assignments():
            table.append(assignment)
            if len(table) > max_small_table:
                raise UnsupportedQueryError(
                    "small-block table exceeds budget "
                    f"(> {max_small_table}); use skip_mode='lazy'"
                )
        return table

    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return self.enumerate()

    def outer_size(self) -> int:
        """Length of the outermost iteration (the sharding granularity).

        Small-block branches are sharded on the first small block's
        candidate list (disjoint DFS subtrees); branches without small
        blocks on the first big block's list.  A 0-block branch has the
        single empty assignment.
        """
        if self.small_blocks:
            return len(self.branch.lists[self.small_blocks[0]])
        if self.big_blocks:
            return len(self.skip_lists[self.big_blocks[0]])
        return 1

    def enumerate(
        self,
        meter: Optional[CostMeter] = None,
        outer_slice: Optional[Tuple[int, Optional[int]]] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """Yield block assignments (node id per block, in block order).

        ``outer_slice=(start, stop)`` restricts the outermost iteration
        to positions ``[start, stop)`` — the engine's intra-branch
        sharding hook.  Shards are independent (no shared cursor), and
        concatenating them in slice order reproduces the unrestricted
        enumeration exactly, because the outermost loop advances in a
        fixed order regardless of what the inner levels produce.
        """
        start, stop = outer_slice if outer_slice is not None else (0, None)
        assignment: List[Optional[int]] = [None] * self.block_count
        if self.small_blocks:
            if self.small_table is not None:
                if outer_slice is None:
                    small_source: Iterator[Tuple[int, ...]] = iter(self.small_table)
                else:
                    # Table rows are in DFS order, grouped by the first
                    # block's candidate; keeping the slice's candidates
                    # selects a contiguous row range.
                    allowed = set(
                        self.branch.lists[self.small_blocks[0]][start:stop]
                    )
                    small_source = iter(
                        [row for row in self.small_table if row[0] in allowed]
                    )
            else:
                small_source = self._small_assignments(
                    meter, first_slice=outer_slice
                )
            for small_assignment in small_source:
                tick(meter, "enum.small_advance")
                for block, node in zip(self.small_blocks, small_assignment):
                    assignment[block] = node
                yield from self._extend(
                    0, assignment, list(small_assignment), meter
                )
            return
        if not self.big_blocks:
            # 0 blocks: the empty tuple is the single answer.
            if start == 0:
                tick(meter, "enum.output")
                yield tuple(assignment)  # type: ignore[arg-type]
            return
        # No small blocks: the outermost level is the first big block's
        # list, walked in list order (the prefix is empty there, so the
        # skip function degenerates to the identity and a contiguous
        # slice of the list is a contiguous slice of the iteration).
        block = self.big_blocks[0]
        skip_list = self.skip_lists[block]
        for current in skip_list.nodes[start:stop]:
            tick(meter, "enum.relevant", count=1)
            candidate = skip_list.skip(current, frozenset(), meter)
            assignment[block] = candidate
            yield from self._extend(1, assignment, [candidate], meter)
            assignment[block] = None

    def _extend(
        self,
        big_index: int,
        assignment: List[Optional[int]],
        prefix: List[int],
        meter: Optional[CostMeter],
    ) -> Iterator[Tuple[int, ...]]:
        if big_index == len(self.big_blocks):
            tick(meter, "enum.output")
            yield tuple(assignment)  # type: ignore[arg-type]
            return
        block = self.big_blocks[big_index]
        skip_list = self.skip_lists[block]
        current = skip_list.first()
        while current is not None:
            blockers = skip_list.relevant(prefix, current)
            tick(meter, "enum.relevant", count=len(prefix) + 1)
            candidate = skip_list.skip(current, blockers, meter)
            if candidate is None:
                return
            assignment[block] = candidate
            prefix.append(candidate)
            yield from self._extend(big_index + 1, assignment, prefix, meter)
            prefix.pop()
            assignment[block] = None
            current = skip_list.next(candidate)


def arm_enumerator(
    pipeline: Pipeline, branch_index: int, skip_mode: str = "lazy"
) -> BranchEnumerator:
    """Build (and cache on the pipeline) the enumerator of one branch.

    Arming is preprocessing work: it grounds the small-block tables and,
    in strict mode, fills the skip cells.  Enumerators are stateless
    between runs (their skip/reach memos are functional caches), so they
    are shared by every subsequent enumeration call.  Per-branch caching
    is the engine's splitting hook: parallel workers arm only the
    branches assigned to them.
    """
    cache = getattr(pipeline, "_armed_branches", None)
    if cache is None:
        cache = {}
        pipeline._armed_branches = cache  # type: ignore[attr-defined]
    key = (skip_mode, branch_index)
    enumerator = cache.get(key)
    if enumerator is None:
        enumerator = BranchEnumerator(
            pipeline, pipeline.branches[branch_index], skip_mode=skip_mode
        )
        cache[key] = enumerator
    return enumerator


def arm_enumerators(pipeline: Pipeline, skip_mode: str = "lazy") -> List[BranchEnumerator]:
    """Arm every branch (the serial path's preprocessing step)."""
    return [
        arm_enumerator(pipeline, branch_index, skip_mode)
        for branch_index in range(len(pipeline.branches))
    ]


def trivial_answers(pipeline: Pipeline) -> Iterator[Tuple[Element, ...]]:
    """The answers of a pipeline whose localized formula is constant."""
    if not pipeline.trivial:
        return
    if pipeline.arity == 0:
        yield ()
        return
    yield from product(pipeline.structure.domain, repeat=pipeline.arity)


def enumerate_branch(
    pipeline: Pipeline,
    branch_index: int,
    meter: Optional[CostMeter] = None,
    skip_mode: str = "lazy",
    validate: bool = False,
    outer_slice: Optional[Tuple[int, Optional[int]]] = None,
) -> Iterator[Tuple[Element, ...]]:
    """Enumerate the answers of one branch ``(P, t)``, decoded.

    Branches are mutually exclusive, so the branch answer sets partition
    ``q(A)``; concatenating them in branch-index order reproduces
    :func:`enumerate_answers` exactly.  This is the unit of work
    :mod:`repro.engine` distributes across a pool; ``outer_slice``
    additionally shards *within* the branch (see
    :meth:`BranchEnumerator.enumerate`) so one heavy branch can feed
    many workers.
    """
    assert pipeline.graph is not None
    enumerator = arm_enumerator(pipeline, branch_index, skip_mode)
    plan_index = enumerator.branch.plan.index
    for node_ids in enumerator.enumerate(meter, outer_slice=outer_slice):
        if validate:
            _validate_assignment(pipeline.graph, node_ids)
        yield pipeline.decode(plan_index, node_ids)


def enumerate_answers(
    pipeline: Pipeline,
    meter: Optional[CostMeter] = None,
    skip_mode: str = "lazy",
    validate: bool = False,
) -> Iterator[Tuple[Element, ...]]:
    """Enumerate ``q(A)`` with constant delay after preprocessing.

    Yields answer tuples with no repetition.  ``validate=True`` re-checks
    the skip-function invariant (chosen nodes pairwise non-adjacent) on
    every output — used by the test suite.
    """
    if pipeline.trivial is not None:
        yield from trivial_answers(pipeline)
        return
    for branch_index in range(len(pipeline.branches)):
        yield from enumerate_branch(
            pipeline,
            branch_index,
            meter=meter,
            skip_mode=skip_mode,
            validate=validate,
        )


def _validate_assignment(graph: ColoredGraph, node_ids: Tuple[int, ...]) -> None:
    for i, left in enumerate(node_ids):
        for right in node_ids[i + 1 :]:
            if graph.adjacent(left, right):
                raise EvaluationError(
                    f"skip invariant violated: nodes {left} and {right} "
                    "are adjacent"
                )
