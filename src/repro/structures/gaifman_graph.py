"""Standalone Gaifman-graph computations (Section 2.1).

:class:`repro.structures.structure.Structure` exposes cached adjacency; this
module adds graph-level queries needed throughout the pipeline: bounded
distance, bounded BFS, connectivity of small vertex sets, and degree
histograms for the low-degree diagnostics.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

from repro.structures.structure import Structure

Element = Hashable
INFINITY = float("inf")


def bounded_distance(structure: Structure, source: Element, target: Element, bound: int):
    """Distance between two elements if it is <= ``bound``, else ``None``.

    Runs a BFS from ``source`` cut off at depth ``bound``; cost is
    ``O(d^bound)`` for degree ``d``, independent of ``|A|``.
    """
    if source == target:
        return 0
    if bound <= 0:
        return None
    seen = {source}
    frontier = [source]
    for depth in range(1, bound + 1):
        next_frontier: List[Element] = []
        for element in frontier:
            for neighbor in structure.neighbors(element):
                if neighbor == target:
                    return depth
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
        if not next_frontier:
            return None
        frontier = next_frontier
    return None


def within_distance(
    structure: Structure, source: Element, target: Element, bound: int
) -> bool:
    """True iff ``dist(source, target) <= bound`` in the Gaifman graph."""
    return bounded_distance(structure, source, target, bound) is not None


def ball(structure: Structure, center: Element, radius: int) -> Set[Element]:
    """The r-ball ``N_r(center)``: all elements at distance <= radius."""
    members = {center}
    frontier = [center]
    for _ in range(radius):
        next_frontier: List[Element] = []
        for element in frontier:
            for neighbor in structure.neighbors(element):
                if neighbor not in members:
                    members.add(neighbor)
                    next_frontier.append(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
    return members


def ball_of_set(structure: Structure, centers: Iterable[Element], radius: int) -> Set[Element]:
    """The union of r-balls around all ``centers``."""
    members: Set[Element] = set(centers)
    frontier = list(members)
    for _ in range(radius):
        next_frontier: List[Element] = []
        for element in frontier:
            for neighbor in structure.neighbors(element):
                if neighbor not in members:
                    members.add(neighbor)
                    next_frontier.append(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
    return members


def distances_from(structure: Structure, source: Element, bound: int) -> Dict[Element, int]:
    """Map every element within ``bound`` of ``source`` to its distance."""
    return distances_from_set(structure, (source,), bound)


def distances_from_set(
    structure: Structure, centers: Iterable[Element], bound: int
) -> Dict[Element, int]:
    """Map every element within ``bound`` of some center to its distance
    from the nearest one (one multi-source BFS)."""
    distances = dict.fromkeys(centers, 0)
    queue = deque(distances)
    while queue:
        element = queue.popleft()
        depth = distances[element]
        if depth == bound:
            continue
        for neighbor in structure.neighbors(element):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                queue.append(neighbor)
    return distances


def tuple_is_connected(
    structure: Structure, elements: Sequence[Element], link_radius: int
) -> bool:
    """True iff the graph on ``elements`` with edges ``dist <= link_radius`` is connected.

    This is the paper's ``gamma_Pj`` condition (Section 4, Step 2): the
    r-neighborhood around a cluster tuple is connected exactly when the
    tuple's components form a connected graph at linking distance
    ``2r + 1``.
    """
    if not elements:
        return True
    distinct = list(dict.fromkeys(elements))
    remaining = set(distinct[1:])
    frontier = [distinct[0]]
    while frontier and remaining:
        element = frontier.pop()
        linked = [
            other
            for other in remaining
            if within_distance(structure, element, other, link_radius)
        ]
        for other in linked:
            remaining.discard(other)
            frontier.append(other)
    return not remaining


def connected_components(structure: Structure) -> List[Tuple[Element, ...]]:
    """The Gaifman graph's connected components, deterministically ordered.

    Components are discovered by BFS seeded in domain order (so the list
    order depends only on the structure's content, never on hash seeds)
    and each component is itself sorted by the domain order.  This is
    the partitioning substrate of :mod:`repro.shard`: elements in
    different components are at Gaifman distance infinity, so by locality
    they can never co-occur in one answer cluster or one r-ball — a
    component is the unit that may be moved to a shard wholesale.
    """
    seen: Set[Element] = set()
    components: List[Tuple[Element, ...]] = []
    rank = structure.order.rank
    for element in structure.domain:
        if element in seen:
            continue
        seen.add(element)
        members = [element]
        queue = deque((element,))
        while queue:
            current = queue.popleft()
            for neighbor in structure.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    members.append(neighbor)
                    queue.append(neighbor)
        components.append(tuple(sorted(members, key=rank)))
    return components


def degree_histogram(structure: Structure) -> Dict[int, int]:
    """Map each occurring Gaifman degree to the number of elements having it."""
    histogram: Dict[int, int] = {}
    for element in structure.domain:
        degree = len(structure.neighbors(element))
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def degree_profile(structure: Structure) -> Tuple[int, float]:
    """Return ``(max_degree, average_degree)`` of the Gaifman graph."""
    degrees = [len(structure.neighbors(element)) for element in structure.domain]
    if not degrees:
        return 0, 0.0
    return max(degrees), sum(degrees) / len(degrees)
