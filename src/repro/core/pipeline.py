"""The quantifier-elimination pipeline of Proposition 3.4.

Given a structure ``A`` and an FO query ``phi(x-bar)``, the pipeline
produces everything the counting / testing / enumeration algorithms
need:

1. **Localization** (Step 1): :func:`repro.fo.localize.localize` rewrites
   ``phi`` into an r-local formula ``phi'`` equivalent on ``A`` (global
   content evaluated against ``A``, derived unary predicates materialized).
2. **Partition decomposition + Feferman-Vaught** (Step 2): for each
   partition ``P`` of the positions, ``phi'`` is *separated* under the
   assumption that blocks are pairwise at distance > ``2r+1``; the result
   is a boolean combination of single-block *units*, expanded into
   mutually exclusive clauses (the paper's index set ``T_P``).
3. **Colored graph** (Steps 3-4): nodes are connected cluster tuples
   tagged with position sets; per-node *unit vectors* play the role of the
   colors ``C_{P,j,t}``; edges witness cluster proximity.
4. **Answer encoder** ``f`` (Step 5): a tuple's induced partition plus
   per-block node lookups, both constant-time after preprocessing.

An answer of ``phi`` then corresponds, under exactly one *branch*
``(P, t)``, to a choice of one node per block from the branch's per-block
node lists such that no two chosen nodes are adjacent — the
quantifier-free form ``psi = psi_1 and psi_2`` of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.errors import EvaluationError, QueryError, UnsupportedQueryError
from repro.fo.localize import (
    LocalEvaluator,
    LocalizationBudget,
    LocalizedQuery,
    localize,
    separate,
)
from repro.fo.normalize import boolean_atoms, exclusive_dnf, simplify
from repro.fo.semantics import free_tuple
from repro.fo.syntax import FalseF, Formula, TrueF, Var
from repro.core.colored_graph import (
    BOTTOM,
    NO_COLORS,
    ColoredGraph,
    Colors,
    build_colored_graph,
)
from repro.core.partitions import (
    Partition,
    all_partitions,
    assemble,
    block_subtuple,
    partition_of_tuple,
)
from repro.structures.structure import Structure

Element = Hashable
SignVector = Tuple[bool, ...]


@dataclass
class PartitionPlan:
    """The Feferman-Vaught data for one partition ``P``.

    ``units`` are the maximal single-block subformulas of the separated
    formula; ``unit_block[i]`` names the block of ``units[i]``;
    ``clauses`` are the satisfying sign vectors over the units — mutually
    exclusive by construction (each is a *total* assignment).
    ``constant`` replaces the clause machinery when separation collapsed
    the formula to a constant (then every/no block assignment satisfies).
    """

    index: int
    partition: Partition
    units: List[Formula]
    unit_block: List[int]
    clauses: List[SignVector]
    clause_set: Set[SignVector]
    block_units: List[List[int]]
    constant: Optional[bool] = None


@dataclass
class Branch:
    """One mutually exclusive enumeration branch ``(P, t)``.

    ``lists[j]`` holds the node ids eligible for block ``j`` — the paper's
    color list for position ``j`` — sorted by node id (the linear order of
    ``G`` used by the skip function).
    """

    plan: PartitionPlan
    signs: SignVector
    lists: List[List[int]]


def supports_query(
    structure: Structure,
    query: Formula,
    order: Optional[Sequence[Var]] = None,
    budget: Optional[LocalizationBudget] = None,
    max_units: int = 16,
) -> bool:
    """True when ``(structure, query)`` fits the clause-expansion budget.

    Runs the graph-free front half of pipeline construction —
    localization plus per-partition separation — and applies exactly the
    checks that make ``Pipeline(...)`` raise
    :class:`UnsupportedQueryError`, without paying for colored-graph
    construction.  Unit counts are structure-dependent (localization
    evaluates global content against ``structure``), so there is no
    purely syntactic version of this check.
    """
    try:
        localized = localize(query, structure, budget)
    except UnsupportedQueryError:
        return False
    formula = localized.formula
    if isinstance(formula, (TrueF, FalseF)):
        return True
    variables = free_tuple(query, order)
    if not variables:
        return True
    link_radius = 2 * localized.radius + 1
    for partition in all_partitions(len(variables)):
        sides = {
            variables[position]: block_index
            for block_index, block in enumerate(partition)
            for position in block
        }
        try:
            separated = simplify(
                separate(formula, sides, link_radius, localized.localizer)
            )
        except UnsupportedQueryError:
            return False
        if isinstance(separated, (TrueF, FalseF)):
            continue
        if len(boolean_atoms(separated)) > max_units:
            return False
    return True


class Pipeline:
    """Preprocessing output of Proposition 3.4 for one (A, phi)."""

    def __init__(
        self,
        structure: Structure,
        query: Formula,
        order: Optional[Sequence[Var]] = None,
        budget: Optional[LocalizationBudget] = None,
        max_nodes: int = 5_000_000,
        max_units: int = 16,
        graph_factory=None,
        intern=None,
        build_graph: bool = True,
    ):
        self.structure = structure
        self.query = query
        self.budget = budget
        # Dense element<->id table for the columnar answer transport;
        # built lazily from the domain order, or adopted from a rebuild
        # spec so worker processes share the parent's table verbatim.
        self._intern = intern
        self.variables: Tuple[Var, ...] = free_tuple(query, order)
        self.arity = len(self.variables)

        self.localized: LocalizedQuery = localize(query, structure, budget)
        self.evaluator = self.localized.evaluator
        self.radius = self.localized.radius
        self.link_radius = 2 * self.radius + 1

        formula = self.localized.formula
        self.trivial: Optional[bool] = None
        if isinstance(formula, TrueF):
            self.trivial = True
        elif isinstance(formula, FalseF):
            self.trivial = False
        elif self.arity == 0:
            raise EvaluationError(
                "localization of a sentence must produce a constant, got "
                f"{formula}"
            )

        self.plans: List[PartitionPlan] = []
        self.branches: List[Branch] = []
        self.graph: Optional[ColoredGraph] = None
        self._partition_index: Dict[Partition, int] = {}
        if self.trivial is None:
            self._build_plans(max_units)
            # ``build_graph=False`` stops after localization + separation:
            # the result is a *template* pipeline (shared plans, no colored
            # graph) that :meth:`derive` specializes per substructure —
            # the repro.shard scatter path, where the graph is built per
            # shard but the localization must be computed ONCE against the
            # full structure (sentence truth values and derived predicates
            # are global content).
            if not build_graph:
                return
            # ``graph_factory`` is the engine's preprocessing-sharing hook:
            # a session can hand out clones of one cached graph instead
            # of re-enumerating cluster tuples per query (see
            # repro.session.Database).
            factory = graph_factory or build_colored_graph
            self.graph = factory(
                structure,
                self.evaluator,
                self.arity,
                self.link_radius,
                max_nodes=max_nodes,
            )
            self._attach_unit_vectors()
            self._build_branches()

    # ------------------------------------------------------------------
    # Step 2: separation per partition
    # ------------------------------------------------------------------

    def _build_plans(self, max_units: int) -> None:
        formula = self.localized.formula
        for index, partition in enumerate(all_partitions(self.arity)):
            sides = {
                self.variables[position]: block_index
                for block_index, block in enumerate(partition)
                for position in block
            }
            separated = simplify(
                separate(formula, sides, self.link_radius, self.localized.localizer)
            )
            self._partition_index[partition] = index
            if isinstance(separated, TrueF) or isinstance(separated, FalseF):
                constant = isinstance(separated, TrueF)
                plan = PartitionPlan(
                    index, partition, [], [], [()], {()}, [[] for _ in partition],
                    constant=constant,
                )
                if not constant:
                    plan.clauses = []
                    plan.clause_set = set()
                self.plans.append(plan)
                continue
            units = boolean_atoms(separated)
            if len(units) > max_units:
                raise UnsupportedQueryError(
                    f"partition {partition} yields {len(units)} units "
                    f"(> {max_units}); the clause expansion 2^{len(units)} "
                    "is too large"
                )
            unit_block: List[int] = []
            var_block = {var: side for var, side in sides.items()}
            for unit in units:
                blocks = {var_block[var] for var in unit.free}
                if len(blocks) != 1:
                    raise EvaluationError(
                        f"separated unit {unit} spans blocks {blocks}"
                    )
                unit_block.append(next(iter(blocks)))
            clauses = [
                tuple(sign for _, sign in clause)
                for clause in exclusive_dnf(separated)
            ]
            block_units = [
                [i for i, block in enumerate(unit_block) if block == j]
                for j in range(len(partition))
            ]
            self.plans.append(
                PartitionPlan(
                    index,
                    partition,
                    units,
                    unit_block,
                    clauses,
                    set(clauses),
                    block_units,
                )
            )

    # ------------------------------------------------------------------
    # Steps 3-4: colors (unit vectors per node)
    # ------------------------------------------------------------------

    @cached_property
    def block_usage(self) -> Dict[Tuple[int, ...], List[Tuple[PartitionPlan, int]]]:
        """Block (as a position tuple) -> every ``(plan, block_index)``
        whose partition has that block."""
        usage: Dict[Tuple[int, ...], List[Tuple[PartitionPlan, int]]] = {}
        for plan in self.plans:
            for block_index, block in enumerate(plan.partition):
                usage.setdefault(block, []).append((plan, block_index))
        return usage

    def node_colors(self, node) -> Colors:
        """Every colour of ``node``: plan index -> the truth values of the
        units of the plan's block equal to ``node.positions``, at the
        node's cluster."""
        usages = self.block_usage.get(node.positions)
        if not usages:
            return NO_COLORS
        assignment = {
            self.variables[position]: element
            for position, element in zip(node.positions, node.elements)
        }
        holds = self.evaluator.holds
        return {
            plan.index: ()
            if plan.constant is not None
            else tuple(
                holds(plan.units[unit_index], assignment)
                for unit_index in plan.block_units[block_index]
            )
            for plan, block_index in usages
        }

    def _attach_unit_vectors(self) -> None:
        graph = self.graph
        assert graph is not None
        for node in graph.nodes[1:]:
            colors = self.node_colors(node)
            if colors:
                graph.set_colors(node.node_id, colors)

    # ------------------------------------------------------------------
    # Branches (the mutually exclusive (P, t) pairs)
    # ------------------------------------------------------------------

    def _build_branches(self) -> None:
        assert self.graph is not None
        # Index nodes by (plan, block position tuple, unit vector).
        by_block_vector: Dict[Tuple[int, Tuple[int, ...], SignVector], List[int]] = {}
        for node in self.graph.nodes[1:]:
            for plan_index, vector in node.unit_values.items():
                key = (plan_index, node.positions, vector)
                by_block_vector.setdefault(key, []).append(node.node_id)
        for node_list in by_block_vector.values():
            node_list.sort()
        self.block_vector_index = by_block_vector
        self._wire_branches()

    def _wire_branches(self) -> None:
        """One branch per (plan, clause) whose lists ARE the index buckets
        (shared, so :mod:`repro.core.dynamic` patches both at once)."""
        index = self.block_vector_index
        self.branches = []
        for plan in self.plans:
            if plan.constant is False:
                continue
            clauses = [()] if plan.constant is True else plan.clauses
            for signs in clauses:
                lists: List[List[int]] = []
                for block_index, block in enumerate(plan.partition):
                    required = tuple(
                        signs[unit_index]
                        for unit_index in plan.block_units[block_index]
                    )
                    key = (plan.index, block, required)
                    lists.append(index.setdefault(key, []))
                self.branches.append(Branch(plan, signs, lists))

    @property
    def branch_count(self) -> int:
        """How many mutually exclusive ``(P, t)`` branches exist.

        Branches partition the answer set, so this is the engine's unit
        of parallel work: each branch can be enumerated independently and
        the results concatenated in branch order reproduce the serial
        answer order exactly.
        """
        return len(self.branches)

    @property
    def intern_table(self):
        """The dense element<->id table of the columnar answer transport.

        Derived from the domain's fixed linear order, so independently
        rebuilt pipelines over the same structure agree on every id; a
        worker process adopts the parent's table from the rebuild spec
        instead of rebuilding it.
        """
        if self._intern is None:
            from repro.engine.transport import InternTable

            self._intern = InternTable(self.structure.domain)
        return self._intern

    def rebuild_spec(self):
        """The picklable recipe ``(structure, query, order, budget,
        intern_table_or_None)``.

        Everything a worker process needs to reconstruct an equivalent
        pipeline; the heavy derived state (graph, plans, enumerators) is
        recomputed worker-side and memoized per process.  The intern
        table ships *when already built* (the columnar transport forces
        it before specs are cut), so both transport sides share one
        table; paths that never move answers (counting, warming, pickle
        transport) ship ``None`` and a worker that does need the table
        derives the identical one from the domain order.
        """
        return (
            self.structure,
            self.query,
            self.variables,
            self.budget,
            self._intern,
        )

    def __getstate__(self):
        # Branch-arming memos (attached lazily by repro.core.enumeration
        # under ``_armed_branches``) hold skip-function state that is
        # cheap to rebuild and useless in another process; drop them so
        # pipelines pickle cleanly (the warm-cache spill of
        # repro.storage.wal relies on this).
        state = self.__dict__.copy()
        state.pop("_armed_branches", None)
        return state

    def fork(self, structure: Structure) -> "Pipeline":
        """A warm copy of this pipeline bound to ``structure`` — a
        copy-on-write fork of ``self.structure`` with identical content.

        Shares everything immutable (plans, partition index, intern
        table, the localized formula) and the colored graph itself
        through :meth:`ColoredGraph.clone`, which copies containers only
        — node list, key map, ball table and the outer containment dict,
        no adjacency, since the graph stores none: nodes, balls and
        containment lists stay shared until maintenance on either side
        replaces or copies them.  The
        block-vector index buckets and the branch objects are copied,
        preserving the invariant that branch lists ARE the index buckets,
        so :class:`repro.core.dynamic.PipelineMaintainer` can patch both
        sides independently.  A fresh evaluator binds to the fork so
        ball caches never read the old head; it starts with this
        pipeline's unary sets, immutable frozensets over content that is
        identical at fork time (:func:`repro.core.dynamic.maintain`
        drops the ones a commit changes).  The session layer
        uses this so a commit that overlaps a live pin keeps both heads'
        plans warm instead of rebuilding the new head cold.
        """
        twin = self._derive_header(structure, self._intern)
        twin.evaluator._unary_cache.update(self.evaluator._unary_cache)
        if self.graph is not None:
            twin.graph = self.graph.clone()
            twin.graph.structure = structure
            twin.block_vector_index = {
                key: list(bucket)
                for key, bucket in self.block_vector_index.items()
            }
            twin._wire_branches()
        return twin

    def _derive_header(self, structure: Structure, intern) -> "Pipeline":
        """Shared scaffolding of :meth:`fork` / :meth:`derive` /
        :meth:`merge`: a pipeline bound to ``structure`` that reuses this
        template's localization, plans, and partition index (all
        structure-independent once the global content is baked in), with
        a fresh evaluator."""
        twin = Pipeline.__new__(Pipeline)
        twin.structure = structure
        twin.query = self.query
        twin.budget = self.budget
        twin._intern = intern
        twin.variables = self.variables
        twin.arity = self.arity
        evaluator = LocalEvaluator(structure, self.localized.extra_unary)
        twin.localized = replace(
            self.localized, structure=structure, evaluator=evaluator
        )
        twin.evaluator = evaluator
        twin.radius = self.radius
        twin.link_radius = self.link_radius
        twin.trivial = self.trivial
        twin.plans = self.plans
        twin._partition_index = self._partition_index
        twin.branches = []
        twin.graph = None
        return twin

    def derive(
        self, substructure: Structure, max_nodes: int = 5_000_000
    ) -> "Pipeline":
        """Specialize this template to a substructure: the scatter half of
        :mod:`repro.shard`.

        Localization is NOT re-run — sentence truth values, derived unary
        predicates, and counting totals were evaluated against the full
        structure when the template was built and carry over verbatim.
        Only the structure-shaped tail is rebuilt: the colored graph over
        the substructure's domain, its unit-vector colors, and the branch
        lists.  Because the shard layer hands in unions of whole Gaifman
        components, every ball (hence every node, edge, and color) agrees
        with the full structure's, so the shard graph is the exact
        restriction of the global one.
        """
        twin = self._derive_header(substructure, intern=None)
        if twin.trivial is None:
            twin.graph = build_colored_graph(
                substructure,
                twin.evaluator,
                twin.arity,
                twin.link_radius,
                max_nodes=max_nodes,
            )
            twin._attach_unit_vectors()
            twin._build_branches()
        return twin

    def merge(
        self, structure: Structure, shards: Sequence["Pipeline"]
    ) -> "Pipeline":
        """Assemble shard pipelines into one global-equivalent pipeline:
        the gather half of :mod:`repro.shard`.

        ``shards`` must be :meth:`derive` products over disjoint unions of
        whole Gaifman components of ``structure`` that together cover its
        domain.  Node ids are renumbered in global seed order: each
        shard's nodes arrive grouped per seed in the shard's (= global,
        restricted) domain order, so a single ordered merge keyed by the
        seed's global rank reproduces exactly the node sequence a cold
        ``Pipeline(structure, ...)`` build would create — per-seed node
        blocks are contiguous and internally deterministic, and a seed
        lives in exactly one shard, so the key never ties across shards.
        The shards' balls are joined (balls never leave a component, so
        no edge crosses shards); colors are copied (unit formulas are
        r-local, hence shard-computable), and the branch lists are
        rebuilt over the renumbered ids.  The result is
        indistinguishable from the cold global build — same node ids,
        same branch lists, same enumeration byte order — at the cost of a
        merge instead of a global graph construction.
        """
        from heapq import merge as heap_merge

        merged = self._derive_header(structure, intern=self._intern)
        if merged.trivial is not None:
            return merged
        rank = structure.order.rank
        graph = ColoredGraph(structure, self.link_radius, self.arity)

        def source(shard: "Pipeline"):
            # A helper (not an inline genexp) so ``shard`` binds per shard
            # instead of to the comprehension's last iteration.
            return ((rank(node.elements[0]), node) for node in shard.graph.nodes[1:])

        sources = [source(shard) for shard in shards]
        for _, node in heap_merge(*sources, key=lambda entry: entry[0]):
            new_id = graph.add_node(node.elements, node.positions)
            graph.set_colors(new_id, node.unit_values)
        for shard in shards:
            graph.balls.update(shard.graph.balls)
        merged.graph = graph
        merged._build_branches()
        return merged

    # ------------------------------------------------------------------
    # Step 5: the encoder f and its inverse
    # ------------------------------------------------------------------

    def linked(self, left: Element, right: Element) -> bool:
        """``dist(left, right) <= 2r + 1`` via cached balls (the paper's
        relation R, Step 5)."""
        return right in self.evaluator.ball(left, self.link_radius)

    def encode(self, elements: Sequence[Element]):
        """``f(a-bar)``: the induced partition index and per-block node ids.

        Returns ``(plan_index, node_ids)``; raises :class:`QueryError` on
        arity mismatch or elements outside the domain.
        """
        if len(elements) != self.arity:
            raise QueryError(
                f"expected a {self.arity}-tuple, got {len(elements)}-tuple"
            )
        for element in elements:
            if element not in self.structure:
                raise QueryError(f"element {element!r} is not in the domain")
        partition = partition_of_tuple(tuple(elements), self.linked)
        plan_index = self._partition_index[partition]
        assert self.graph is not None
        node_ids = []
        for block in partition:
            node_id = self.graph.node_id(
                block_subtuple(elements, block), block
            )
            if node_id is None:
                raise EvaluationError(
                    f"missing colored-graph node for cluster {block}; "
                    "the graph construction is incomplete"
                )
            node_ids.append(node_id)
        return plan_index, tuple(node_ids)

    def decode(self, plan_index: int, node_ids: Sequence[int]) -> Tuple[Element, ...]:
        """``f^{-1}``: rebuild the answer tuple from branch node choices."""
        assert self.graph is not None
        plan = self.plans[plan_index]
        clusters = [self.graph.node(node_id).elements for node_id in node_ids]
        return assemble(self.arity, plan.partition, clusters)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "arity": self.arity,
            "radius": self.radius,
            "link_radius": self.link_radius,
            "trivial": self.trivial,
            "derived_predicates": len(self.localized.derived_formulas),
            "partitions": len(self.plans),
            "branches": len(self.branches),
            "graph_nodes": self.graph.node_count if self.graph else 0,
            "graph_max_degree": self.graph.max_degree if self.graph else 0,
            "structure_degree": self.structure.degree,
            "structure_size": self.structure.cardinality,
        }
