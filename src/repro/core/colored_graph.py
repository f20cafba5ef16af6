"""The colored graph ``G`` of Proposition 3.4 (Steps 3-4).

Nodes of ``G`` are

* the dummy node ``v_bot`` (id 0), and
* one node ``v_(b-bar, S)`` for every tuple ``b-bar`` of at most ``k``
  elements that is *connected at the linking radius* ``2r + 1`` (i.e. the
  graph on its components with edges "distance <= 2r+1" is connected) and
  every set ``S`` of ``|b-bar|`` query positions.

``S`` plays the role of the paper's injection ``iota``: the paper creates a
node per *arbitrary* injection, but only the monotone injections
``iota_Pj`` (mapping the i-th cluster position to the i-th smallest member
of a block) are ever in the image of the answer encoder ``f``, so we index
nodes by the position *set* directly.

Edges connect nodes whose component tuples come within the linking radius
of each other — so the quantifier-free condition "no two distinct answer
positions are E-adjacent in G" (``psi_1``) holds exactly when the clusters
of the original tuple are pairwise far apart (``delta_P``).

The per-node color data (evaluations of the per-cluster formulas
``theta_{P,j,t}``) is attached by :mod:`repro.core.pipeline`.

**Copy-on-write.**  Node existence, ids and edges depend only on
``(structure, k, 2r+1)``, so one graph is shared by every query of the
same shape and by both sides of a warm fork.  One rule makes that safe:
a published :class:`VNode` never changes (a colour change replaces the
node through :meth:`ColoredGraph.set_colors`), and an adjacency entry
is copied into a private ``set`` the first time a graph writes it.
:meth:`ColoredGraph.clone` therefore copies containers only — the
path-copying discipline of Driscoll, Sarnak, Sleator and Tarjan
("Making data structures persistent", JCSS 1989), and the per-node
analogue of :meth:`repro.structures.structure.Structure.fork`.

**Surgery.**  :mod:`repro.core.dynamic` edits a graph by difference: a
node whose key survives a commit keeps its id, and
:meth:`ColoredGraph.connect_node` writes only the edges that changed.
A removed node's id goes on a free list and the next new key reuses it,
so the id space stays within the largest live graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import AbstractSet, Dict, Hashable, Iterable, Iterator, List, Mapping, Set, Tuple

from repro.errors import EvaluationError, UnsupportedQueryError
from repro.fo.localize import LocalEvaluator
from repro.structures.structure import Structure
from repro.util.itertools2 import connected_subsets

Element = Hashable
PositionSet = Tuple[int, ...]

BOTTOM = 0

Colors = Mapping[int, Tuple[bool, ...]]
NO_COLORS: Colors = {}  # shared by colourless nodes, never mutated
_NO_EDGES: AbstractSet[int] = frozenset()


@dataclass(frozen=True)
class VNode:
    """One node of the colored graph; immutable once published.

    ``elements`` is the cluster tuple ``b-bar`` (possibly with repeated
    elements — answer tuples may repeat an element); ``positions`` is the
    sorted tuple of query positions the components stand for.  The dummy
    node has empty ``elements`` and ``positions``.  ``unit_values`` maps
    a partition index to the unit vector of the block equal to
    ``positions`` (one boolean per unit); it is set by
    :meth:`ColoredGraph.set_colors` and never mutated in place.
    """

    node_id: int
    elements: Tuple[Element, ...]
    positions: PositionSet
    unit_values: Colors


class ColoredGraph:
    """The graph ``G`` with adjacency and the encoder-lookup table.

    ``adjacency[i]`` is a shared frozenset or a private ``set`` (kept in
    ``_private``); every write goes through :meth:`_write_each`.
    """

    def __init__(self, structure: Structure, link_radius: int, k: int):
        self.structure = structure
        self.link_radius = link_radius
        self.k = k
        self.nodes: List[VNode] = [VNode(BOTTOM, (), (), NO_COLORS)]
        self._by_key: Dict[Tuple[Tuple[Element, ...], PositionSet], int] = {
            ((), ()): BOTTOM
        }
        self.adjacency: List[AbstractSet[int]] = []
        self._private: Dict[int, Set[int]] = {}
        self._containing: Dict[Element, List[int]] = {}
        self._free: List[int] = []  # ids of removed nodes, reused first

    # -- construction ---------------------------------------------------

    def add_node(self, elements: Tuple[Element, ...], positions: PositionSet) -> int:
        key = (elements, positions)
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        if self._free:
            node_id = self._free.pop()
            self.nodes[node_id] = VNode(node_id, elements, positions, NO_COLORS)
        else:
            node_id = len(self.nodes)
            self.nodes.append(VNode(node_id, elements, positions, NO_COLORS))
        self._by_key[key] = node_id
        for element in set(elements):
            self._containing.setdefault(element, []).append(node_id)
        return node_id

    def set_colors(self, node_id: int, unit_values: Colors) -> None:
        """Attach colours by replacing the node (nodes are shared)."""
        node = self.nodes[node_id]
        self.nodes[node_id] = VNode(node_id, node.elements, node.positions, unit_values)

    def _neighbors_of(self, node_id: int, evaluator: LocalEvaluator) -> Set[int]:
        neighbors: Set[int] = set()
        for component in set(self.nodes[node_id].elements):
            for other_element in evaluator.ball(component, self.link_radius):
                neighbors.update(self._containing.get(other_element, ()))
        neighbors.discard(node_id)
        return neighbors

    def finalize_edges(self, evaluator: LocalEvaluator) -> None:
        """Compute adjacency: nodes are linked iff some components are
        within the linking radius (Step 4's E-relation)."""
        adjacency: List[Set[int]] = [set()] + [
            self._neighbors_of(node_id, evaluator)
            for node_id in range(1, len(self.nodes))
        ]
        # Symmetrize (ball membership is symmetric, but repeated elements
        # and caching make an explicit pass cheap insurance).
        for node_id, neighbors in enumerate(adjacency):
            for other_id in neighbors:
                adjacency[other_id].add(node_id)
        self.adjacency = [frozenset(neighbors) for neighbors in adjacency]

    def clone(self) -> "ColoredGraph":
        """A copy-on-write twin sharing every node and adjacency entry.

        Copies containers only.  Both sides forget which entries they
        owned, so the first write to a shared entry on *either* side
        copies it (see :meth:`_write_each`).  Colours are shared too: template
        clones start colourless, warm forks keep theirs.
        """
        twin = ColoredGraph(self.structure, self.link_radius, self.k)
        twin.nodes = list(self.nodes)
        twin._by_key = dict(self._by_key)
        twin.adjacency = list(self.adjacency)
        self._private = {}
        twin._containing = {element: list(ids) for element, ids in self._containing.items()}
        twin._free = list(self._free)
        return twin

    # -- dynamic surgery (used by repro.core.dynamic) ---------------------

    def _write_each(self, node_ids: Iterable[int], write, node_id: int) -> None:
        """``write(entry, node_id)`` on each of ``node_ids``' adjacency
        entries, copying a shared entry into a private ``set`` first."""
        private = self._private
        adjacency = self.adjacency
        for other in node_ids:
            entry = private.get(other)
            if entry is None:
                entry = private[other] = adjacency[other] = set(adjacency[other])
            write(entry, node_id)

    def remove_nodes(self, node_ids: AbstractSet[int]) -> None:
        """Detach nodes: key map, containment index, and adjacency.

        Each id stays a colourless tombstone in ``nodes`` until
        :meth:`add_node` reuses it; callers must have removed the ids
        from their own lists.  Only the surviving neighbours' entries
        are written.
        """
        for node_id in node_ids:
            node = self.nodes[node_id]
            self._by_key.pop((node.elements, node.positions), None)
            for element in set(node.elements):
                bucket = self._containing.get(element)
                if bucket is not None and node_id in bucket:
                    bucket.remove(node_id)
            self._write_each(self.adjacency[node_id] - node_ids, set.discard, node_id)
            self.adjacency[node_id] = _NO_EDGES
            self._private.pop(node_id, None)
            self.set_colors(node_id, NO_COLORS)
        self._free.extend(sorted(node_ids, reverse=True))

    def connect_node(self, node_id: int, evaluator: LocalEvaluator) -> bool:
        """(Re)compute one node's edges and write only the symmetric
        difference, on both sides; returns whether an edge changed.
        Grows the adjacency table for freshly appended nodes."""
        self.adjacency.extend([_NO_EDGES] * (len(self.nodes) - len(self.adjacency)))
        old = self.adjacency[node_id]
        neighbors = self._neighbors_of(node_id, evaluator)
        if neighbors == old:
            return False
        self._write_each(neighbors - old, set.add, node_id)
        self._write_each(old - neighbors, set.discard, node_id)
        self.adjacency[node_id] = self._private[node_id] = neighbors
        return True

    def nodes_containing(self, element: Element):
        """Ids of live nodes having ``element`` as a component."""
        return tuple(self._containing.get(element, ()))

    # -- accessors --------------------------------------------------------

    def node_id(self, elements: Tuple[Element, ...], positions: PositionSet):
        """Lookup ``v_(b-bar, S)``; None when absent (tuple not connected)."""
        return self._by_key.get((elements, positions))

    def node(self, node_id: int) -> VNode:
        return self.nodes[node_id]

    def adjacent(self, left: int, right: int) -> bool:
        return right in self.adjacency[left]

    def neighbors(self, node_id: int) -> AbstractSet[int]:
        return self.adjacency[node_id]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def max_degree(self) -> int:
        if not self.adjacency:
            raise EvaluationError("finalize_edges() has not run")
        return max((len(neighbors) for neighbors in self.adjacency), default=0)

    def edge_count(self) -> int:
        return sum(len(neighbors) for neighbors in self.adjacency) // 2


def cluster_keys(
    structure: Structure,
    evaluator: LocalEvaluator,
    k: int,
    link_radius: int,
    seeds: Iterable[Element],
    region: AbstractSet[Element] | None = None,
) -> Iterator[Tuple[Tuple[Element, ...], PositionSet]]:
    """Step 3 of Proposition 3.4: the key ``(b-bar, S)`` of every node
    seeded at ``seeds``, in their order (only clusters meeting
    ``region``, when given).

    For every seed ``a`` we enumerate the connected vertex sets of the
    "distance <= link_radius" graph that contain ``a`` and have at most
    ``k >= 1`` members, then every tuple over such a set that uses all
    its members and starts at ``a``, then every position set of the
    right size.  Every iteration over set-typed intermediates is sorted
    by the domain order, so the key order depends only on the
    structure's content — never on the process's hash seed.
    """
    rank = structure.order.rank
    sorted_ball: Dict[Element, Tuple[Element, ...]] = {}

    def link_neighbors(element: Element):
        cached = sorted_ball.get(element)
        if cached is None:
            ball = evaluator.ball(element, link_radius)
            cached = sorted_ball[element] = tuple(
                sorted((other for other in ball if other != element), key=rank)
            )
        return cached

    position_sets: Dict[int, List[PositionSet]] = {
        size: list(combinations(range(k), size)) for size in range(1, k + 1)
    }
    for seed in seeds:
        for members in connected_subsets(seed, link_neighbors, k):
            if region is not None and not (members & region):
                continue
            ordered_members = tuple(sorted(members, key=rank))
            # Tuples of every length >= |members| that use all members and
            # start at the seed.
            for length in range(len(members), k + 1):
                for rest in product(ordered_members, repeat=length - 1):
                    if set(rest) | {seed} != members:
                        continue
                    elements = (seed,) + rest
                    for positions in position_sets[length]:
                        yield elements, positions


def build_colored_graph(
    structure: Structure,
    evaluator: LocalEvaluator,
    k: int,
    link_radius: int,
    max_nodes: int = 5_000_000,
) -> ColoredGraph:
    """Steps 3-4 of Proposition 3.4: enumerate cluster tuples (seeded in
    domain order, :func:`cluster_keys`) and edges.  Total cost
    ``O(n * d^{h(k, r)})`` as in the paper.

    Node ids depend only on the structure's content.  The engine's
    process mode relies on this: workers rebuild the graph
    independently and shard branch lists by *position*, which is only
    sound if every rebuild agrees on the order.
    """
    graph = ColoredGraph(structure, link_radius, k)
    if k:
        for elements, positions in cluster_keys(
            structure, evaluator, k, link_radius, structure.domain
        ):
            graph.add_node(elements, positions)
            if graph.node_count > max_nodes:
                raise UnsupportedQueryError(
                    f"colored graph exceeds {max_nodes} nodes; "
                    "reduce the query arity/radius or the degree"
                )
    graph.finalize_edges(evaluator)
    return graph
