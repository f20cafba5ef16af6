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
of the original tuple are pairwise far apart (``delta_P``).  Step 4
*defines* that relation, so the graph does not store it: it keeps every
element's link-radius ball, reads adjacency and neighbour sets off the
balls on demand, and stores one exact degree per node.  Stored size is
O(nodes + sum of ball sizes), never O(edges).

The per-node color data (evaluations of the per-cluster formulas
``theta_{P,j,t}``) is attached by :mod:`repro.core.pipeline`.

**Copy-on-write.**  Node existence, ids, balls and degrees depend only
on ``(structure, k, 2r+1)``, so one graph is shared by every query of
the same shape and by both sides of a warm fork.  One rule makes that
safe: a published :class:`VNode` never changes (a colour change
replaces the node through :meth:`ColoredGraph.set_colors`), and a ball
is an immutable ``frozenset`` that a rewire replaces, never edits.
:meth:`ColoredGraph.clone` therefore copies containers only — the node
list, key map, containment lists, degrees and ball table; there is no
adjacency to copy.  This is the path-copying discipline of Driscoll,
Sarnak, Sleator and Tarjan ("Making data structures persistent", JCSS
1989), and the per-node analogue of
:meth:`repro.structures.structure.Structure.fork`.

**Surgery.**  :mod:`repro.core.dynamic` edits a graph by difference: a
node whose key survives a commit keeps its id, and
:meth:`ColoredGraph.rewire` installs the balls that changed, sets the
degree of each node that was added or has a component whose ball
changed from its new neighbour set, and moves every other node's degree
by one per edge that appeared or vanished.  A removed node's id goes on
a free list and the next new key reuses it, so the id space stays
within the largest live graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import UnsupportedQueryError
from repro.fo.localize import LocalEvaluator
from repro.structures.structure import Structure
from repro.util.itertools2 import connected_subsets

Element = Hashable
PositionSet = Tuple[int, ...]

BOTTOM = 0

Colors = Mapping[int, Tuple[bool, ...]]
NO_COLORS: Colors = {}  # shared by colourless nodes, never mutated
_NO_IDS: AbstractSet[int] = frozenset()
_NO_ELEMENTS: AbstractSet[Element] = frozenset()


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
    """The graph ``G``: its nodes, the encoder-lookup table, and one
    exact degree per node.

    ``E`` is not stored.  ``balls`` maps every element to its
    ``link_radius`` ball, as the structure was when the graph was built
    or last rewired, and :meth:`adjacent` / :meth:`neighbors` read the
    edges off it and ``_containing`` (Step 4's definition).
    ``degrees[i]`` is node ``i``'s degree (0 for a tombstone); the
    small/big block split of :mod:`repro.core.enumeration` reads it.
    """

    def __init__(self, structure: Structure, link_radius: int, k: int):
        self.structure = structure
        self.link_radius = link_radius
        self.k = k
        self.nodes: List[VNode] = [VNode(BOTTOM, (), (), NO_COLORS)]
        self._by_key: Dict[Tuple[Tuple[Element, ...], PositionSet], int] = {
            ((), ()): BOTTOM
        }
        self._containing: Dict[Element, List[int]] = {}
        self._free: List[int] = []  # ids of removed nodes, reused first
        self.degrees: List[int] = [0]
        self.balls: Dict[Element, FrozenSet[Element]] = {}

    # -- construction ---------------------------------------------------

    def add_node(self, elements: Tuple[Element, ...], positions: PositionSet) -> int:
        """Add (or look up) a node.  A fresh id's degree starts at 0; a
        reused id keeps its old one until :meth:`rewire` settles it."""
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
            self.degrees.append(0)
        self._by_key[key] = node_id
        for element in set(elements):
            self._containing.setdefault(element, []).append(node_id)
        return node_id

    def set_colors(self, node_id: int, unit_values: Colors) -> None:
        """Attach colours by replacing the node (nodes are shared)."""
        node = self.nodes[node_id]
        self.nodes[node_id] = VNode(node_id, node.elements, node.positions, unit_values)

    def _count_degrees(self) -> None:
        """Set every node's degree, from one transient neighbour set per
        distinct component set: the nodes over one set of elements all
        have the same neighbours, themselves included."""
        sizes: Dict[FrozenSet[Element], int] = {}
        for node in self.nodes[1:]:
            members = frozenset(node.elements)
            size = sizes.get(members)
            if size is None:
                around = self._around(node.node_id, self._containing)
                size = sizes[members] = len(around)
            self.degrees[node.node_id] = size - 1

    def clone(self) -> "ColoredGraph":
        """A copy-on-write twin sharing every node and ball.

        Copies containers only: the node list, the key map, the
        containment lists, the degrees and the ball table.  Colours are
        shared too: template clones start colourless, warm forks keep
        theirs.
        """
        twin = ColoredGraph(self.structure, self.link_radius, self.k)
        twin.nodes = list(self.nodes)
        twin._by_key = dict(self._by_key)
        twin._containing = {element: list(ids) for element, ids in self._containing.items()}
        twin._free = list(self._free)
        twin.degrees = list(self.degrees)
        twin.balls = dict(self.balls)
        return twin

    # -- dynamic surgery (used by repro.core.dynamic) ---------------------

    def remove_nodes(self, node_ids: AbstractSet[int]) -> None:
        """Detach nodes from the key map and the containment index.

        Each id stays a colourless tombstone in ``nodes`` until
        :meth:`add_node` reuses it; callers must have removed the ids
        from their own lists, and :meth:`rewire` settles the degrees.
        """
        for node_id in node_ids:
            node = self.nodes[node_id]
            self._by_key.pop((node.elements, node.positions), None)
            for element in set(node.elements):
                bucket = self._containing.get(element)
                if bucket is not None and node_id in bucket:
                    bucket.remove(node_id)
            self.set_colors(node_id, NO_COLORS)
        self._free.extend(sorted(node_ids, reverse=True))

    def neighbor_sets(self, node_ids: Iterable[int]) -> Dict[int, Set[int]]:
        """Each node's current neighbour set (the input of :meth:`rewire`);
        nodes over one set of elements share one computation."""
        shared: Dict[FrozenSet[Element], Set[int]] = {}
        sets: Dict[int, Set[int]] = {}
        for node_id in node_ids:
            members = frozenset(self.nodes[node_id].elements)
            around = shared.get(members)
            if around is None:
                around = shared[members] = self._around(node_id, self._containing)
            sets[node_id] = around - {node_id}
        return sets

    def rewire(
        self,
        before: Mapping[int, AbstractSet[int]],
        balls: Mapping[Element, FrozenSet[Element]],
        born: Iterable[int],
    ) -> bool:
        """Install changed balls and settle every degree a change moved.

        ``balls`` are the new balls of the elements whose ball changed,
        and ``born`` the ids just added.  ``before`` maps each node that
        was removed or has a component in ``balls`` to its neighbour set
        before the change, taken before any surgery.  An edge can only
        appear or vanish at such a node or a born one (adjacency is read
        off the balls of either end), so each of those that is live now
        gets its degree from its new neighbour set, each removed one
        gets 0, and every other node moves by one per edge to them that
        appeared or vanished.  Returns whether an edge changed.
        """
        self.balls.update(balls)
        after = self.neighbor_sets(
            {
                node_id
                for element in balls
                for node_id in self._containing.get(element, ())
            }.union(born)
        )
        moved = before.keys() | after.keys()
        degrees = self.degrees
        changed = False
        for node_id in moved:
            old = before.get(node_id, _NO_IDS)
            new = after.get(node_id, _NO_IDS)
            if old == new:
                continue
            changed = True
            degrees[node_id] = len(new)
            for other in new - old:
                if other not in moved:
                    degrees[other] += 1
            for other in old - new:
                if other not in moved:
                    degrees[other] -= 1
        return changed

    def nodes_containing(self, element: Element):
        """Ids of live nodes having ``element`` as a component."""
        return tuple(self._containing.get(element, ()))

    # -- accessors --------------------------------------------------------

    def node_id(self, elements: Tuple[Element, ...], positions: PositionSet):
        """Lookup ``v_(b-bar, S)``; None when absent (tuple not connected)."""
        return self._by_key.get((elements, positions))

    def node(self, node_id: int) -> VNode:
        return self.nodes[node_id]

    def ball_union(self, node_id: int) -> AbstractSet[Element]:
        """The elements within the linking radius of some component of
        the node: a node is adjacent to exactly the other nodes with a
        component in this set."""
        elements = self.nodes[node_id].elements
        if not elements:
            return _NO_ELEMENTS
        balls = self.balls
        first = balls[elements[0]]
        if len(elements) == 1:
            return first
        union = set(first)
        for element in elements[1:]:
            union |= balls[element]
        return union

    def near(self, node_ids: Iterable[int]) -> AbstractSet[Element]:
        """The union of the nodes' ball unions: another node is adjacent
        to one of them iff it has a component in this set."""
        unions = [self.ball_union(node_id) for node_id in node_ids]
        if len(unions) == 1:
            return unions[0]
        return _NO_ELEMENTS.union(*unions)

    def adjacent(self, left: int, right: int) -> bool:
        """Whether some component of ``right`` lies in the ball union of
        ``left`` (at most ``k`` ball lookups)."""
        if left == right:
            return False
        return not self.ball_union(left).isdisjoint(self.nodes[right].elements)

    def _around(self, node_id: int, index: Mapping[Element, Sequence[int]]) -> Set[int]:
        """The ids ``index`` files under an element of the node's ball
        union: its neighbours there, and the node itself if filed."""
        found: Set[int] = set()
        for element in self.ball_union(node_id):
            ids = index.get(element)
            if ids:
                found.update(ids)
        return found

    def neighbors_in(
        self, node_id: int, index: Mapping[Element, Sequence[int]]
    ) -> Set[int]:
        """The node's neighbours among the ids ``index`` files under
        their components (see :meth:`element_index`)."""
        found = self._around(node_id, index)
        found.discard(node_id)
        return found

    def neighbors(self, node_id: int) -> Set[int]:
        """The node's neighbour set, computed on demand."""
        return self.neighbors_in(node_id, self._containing)

    def element_index(self, node_ids: Iterable[int]) -> Dict[Element, List[int]]:
        """``node_ids`` filed under each of their components: the index
        :meth:`neighbors_in` draws one list's candidates from."""
        index: Dict[Element, List[int]] = {}
        nodes = self.nodes
        for node_id in node_ids:
            for element in set(nodes[node_id].elements):
                index.setdefault(element, []).append(node_id)
        return index

    def degree(self, node_id: int) -> int:
        return self.degrees[node_id]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def edge_count(self) -> int:
        return sum(self.degrees) // 2


@lru_cache(maxsize=None)
def _position_sets(k: int) -> Dict[int, Tuple[PositionSet, ...]]:
    """Every set of ``size`` query positions out of ``k``, by size."""
    return {size: tuple(combinations(range(k), size)) for size in range(1, k + 1)}


def member_keys(
    ordered_members: Tuple[Element, ...], seeds: Iterable[Element], k: int
) -> Iterator[Tuple[Tuple[Element, ...], PositionSet]]:
    """Step 3's keys over one connected member set: every tuple of
    length ``|members|..k`` that uses all of ``ordered_members`` (sorted
    by the domain order) and starts at one of ``seeds``, in their order,
    with every position set of its length."""
    size = len(ordered_members)
    position_sets = _position_sets(k)
    for seed in seeds:
        for length in range(size, k + 1):
            for rest in product(ordered_members, repeat=length - 1):
                if len({seed, *rest}) != size:
                    continue
                elements = (seed,) + rest
                for positions in position_sets[length]:
                    yield elements, positions


def cluster_keys(
    structure: Structure,
    evaluator: LocalEvaluator,
    k: int,
    link_radius: int,
    seeds: Iterable[Element],
) -> Iterator[Tuple[Tuple[Element, ...], PositionSet]]:
    """Step 3 of Proposition 3.4: the key ``(b-bar, S)`` of every node
    seeded at ``seeds``, in their order.

    For every seed ``a`` we enumerate the connected vertex sets of the
    "distance <= link_radius" graph that contain ``a`` and have at most
    ``k >= 1`` members, then (:func:`member_keys`) every tuple over such
    a set that uses all its members and starts at ``a``, then every
    position set of the right size.  Every iteration over set-typed
    intermediates is sorted by the domain order, so the key order
    depends only on the structure's content — never on the process's
    hash seed.
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

    for seed in seeds:
        for members in connected_subsets(seed, link_neighbors, k):
            yield from member_keys(tuple(sorted(members, key=rank)), (seed,), k)


def build_colored_graph(
    structure: Structure,
    evaluator: LocalEvaluator,
    k: int,
    link_radius: int,
    max_nodes: int = 5_000_000,
) -> ColoredGraph:
    """Steps 3-4 of Proposition 3.4: enumerate cluster tuples (seeded in
    domain order, :func:`cluster_keys`), keep every element's
    link-radius ball, and count each node's degree.  Total cost
    ``O(n * d^{h(k, r)})`` as in the paper; no edge is stored.

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
        graph.balls = {
            element: evaluator.ball(element, link_radius)
            for element in structure.domain
        }
        graph._count_degrees()
    return graph
