"""Seeded input generation: structures, query sets, request plans and
commit streams.

Everything a workload feeds the program is made here from the workload
seed, before any timing starts; the same seed always gives the same
inputs.  Nothing here calls into the program except the structure
generator it is measured on.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

COLOURS = ("B", "R", "G")

# The paper's running example and two sparse relatives; on one structure.
SCAN_MAIN = (
    ("dense", "B(x) & R(y) & ~E(x,y)"),
    ("edge", "B(x) & R(y) & E(x,y)"),
    ("exists", "B(x) & exists z. (R(z) & E(x,z))"),
)
# Wide queries whose preprocessing blows up; each on its own small structure.
SCAN_WIDE = (
    ("ternary", "B(x) & R(y) & G(z) & ~E(x,y) & ~E(y,z)"),
    ("dist", "B(x) & R(y) & dist(x,y) > 2"),
)

# served_mix: 2 binary + 2 unary templates x 3x3 colour pairs x column
# orders (2 for binary, 1 for unary) = 54 plan keys.
SERVE_TEMPLATES = (
    ("{a}(x) & {b}(y) & ~E(x,y)", 2),
    ("{a}(x) & {b}(y) & E(x,y)", 2),
    ("{a}(x) & exists z. ({b}(z) & E(x,z))", 1),
    ("{a}(x) & forall z. (E(x,z) -> {b}(z))", 1),
)
REQUEST_KINDS = (("limit", 0.60), ("count", 0.25), ("cursor", 0.15))
BLOCK = 20
ZIPF_S = 1.1


def colored(n: int, seed: int, max_degree: int = 4, colors=COLOURS, edge_density: float = 0.8):
    """The benchmark's structure family: ``random_colored_graph`` with each
    colour on exactly half the vertices.

    The edges are ``random_graph``'s (a fixed number of them, placed by
    the seed), as in ``random_colored_graph``.  That generator gives each
    vertex each colour with probability 1/2, so a colour class holds a
    binomial number of vertices, and the queries' costs follow the class
    sizes (the dense query has about |B|·|R| answers): from seed to seed
    they moved by about 10%, as much as the host's own noise.  Here the
    seed chooses which half of the vertices gets each colour, so every
    seed gives a structure of the same size and the same cost profile.
    """
    from repro.structures import Structure, random_graph

    base = random_graph(n, max_degree=max_degree, edge_density=edge_density, seed=seed)
    structure = Structure(base.signature.extend({colour: 1 for colour in colors}), base.domain)
    for u, v in base.facts("E"):
        structure.add_fact("E", u, v)
    rng = random.Random(sub_seed(seed, "colours"))
    vertices = sorted(base.domain)
    for colour in colors:
        for vertex in rng.sample(vertices, n // 2):
            structure.add_fact(colour, vertex)
    return structure


def sub_seed(seed: int, label: str) -> int:
    """A stable per-purpose seed derived from the workload seed."""
    value = seed * 1_000_003
    for char in label:
        value = (value * 31 + ord(char)) % (2**61 - 1)
    return value


# -- served_mix request plans --------------------------------------------


def plan_keys() -> List[Tuple[str, Tuple[str, ...]]]:
    """Every (formula, select-list) pair the served mix can ask for."""
    keys = []
    for template, orders in SERVE_TEMPLATES:
        for a in COLOURS:
            for b in COLOURS:
                formula = template.format(a=a, b=b)
                columns = [("x", "y"), ("y", "x")] if orders == 2 else [("x",)]
                for select in columns:
                    keys.append((formula, select))
    return keys


@dataclass(frozen=True)
class Request:
    kind: str        # "limit" | "count" | "cursor"
    key: int         # index into plan_keys()
    text: str        # the qlang statement sent


def select_text(key: Tuple[str, Tuple[str, ...]], limit=None) -> str:
    formula, columns = key
    text = f"SELECT {', '.join(columns)} WHERE {formula}"
    return text if limit is None else f"{text} LIMIT {limit}"


def popularity() -> List[int]:
    """Indices into :func:`plan_keys`, most popular first, the same for
    every seed: which key is popular is part of the mix's definition,
    like its shares.  Ranks cycle through the templates in a fixed order;
    within each template the colour pairs and column orders are in a
    fixed shuffled order.  (Drawn from the seed, the most popular key
    changed with it, and with it the cost of a fifth of the counts: the
    dense template's count costs about twice as much on some keys as on
    others, and `count_ms` spread 0.26 over ten seeds.)"""
    rng = random.Random(sub_seed(0, "popularity"))
    queues = []
    start = 0
    for _, orders in SERVE_TEMPLATES:
        size = len(COLOURS) ** 2 * orders
        members = list(range(start, start + size))
        rng.shuffle(members)
        queues.append(members)
        start += size
    ranking: List[int] = []
    while any(queues):
        for queue in queues:
            if queue:
                ranking.append(queue.pop())
    return ranking


def request_plan(seed: int, clients: int, length: int) -> List[List[Request]]:
    """Per-client request sequences with Zipf(``ZIPF_S``) key popularity.

    Each client's sequence is a run of shuffled blocks of ``BLOCK``
    requests.  A block holds each kind in its exact ``REQUEST_KINDS``
    share, and the ranks of one kind are drawn by systematic sampling of
    the Zipf distribution: over the whole sequence, the ``m`` requests of
    a kind sit at the evenly spaced quantiles ``(k + 1/2) / m``, dealt
    out to the blocks in turn.  Every seed thus asks for the same keys
    (:func:`popularity`) the same number of times, and every stretch of
    the sequence has nearly the mix's expected cost; the seed decides the
    order within each block, and the structure the requests run on.  (With a
    seeded offset per block instead, ten blocks put between one and five
    of their cursor pages on the costly dense template, depending on the
    seed, and `op_ms` moved by 40% from seed to seed.)
    """
    rng = random.Random(sub_seed(seed, "requests"))
    keys = plan_keys()
    ranking = popularity()
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))]
    total = sum(weights)
    cdf = list(itertools.accumulate(weight / total for weight in weights))
    per_block = [(kind, round(share * BLOCK)) for kind, share in REQUEST_KINDS]
    blocks = -(-length // BLOCK)
    plans = []
    for _ in range(clients):
        sequence: List[Request] = []
        for index in range(blocks):
            block = []
            for kind, count in per_block:
                for slot in range(count):
                    # Quantile k of the kind's count * blocks requests, with
                    # k running over the blocks first.
                    quantile = (slot * blocks + index + 0.5) / (count * blocks)
                    rank = min(bisect.bisect_left(cdf, quantile), len(keys) - 1)
                    key = ranking[rank]
                    limit = 10 if kind == "limit" else None
                    block.append(Request(kind, key, select_text(keys[key], limit)))
            rng.shuffle(block)
            sequence.extend(block)
        plans.append(sequence[:length])
    return plans


# -- write_mix commit streams --------------------------------------------

Op = Tuple[bool, str, Tuple[int, ...]]


def commit_stream(
    edges: Sequence[Tuple[int, int]],
    colours: Dict[str, Sequence[int]],
    domain: Sequence[int],
    seed: int,
    length: int,
    block: int = 10,
) -> List[Op]:
    """A cycle of ``length`` single-fact commits, each of which changes the
    structure (simulated against the starting facts, so none is a no-op).

    The first half is seeded: every ``block`` commits hold the same kinds
    in a seeded order, 40% edge inserts, 30% edge removes and colour
    flips spread evenly over the colours, so every stretch of the stream
    costs about the same.  The second half undoes the first, last commit
    first (its blocks hold 30% inserts and 40% removes), so the cycle
    ends on the starting structure and can be replayed from the start
    any number of times.  ``length`` is a multiple of ``2 * block``.
    """
    if length % (2 * block):
        raise ValueError(f"length {length} is not a multiple of {2 * block}")
    rng = random.Random(sub_seed(seed, "commits"))
    edge_list = sorted(edges)
    edge_set = set(edge_list)
    members = {colour: set(values) for colour, values in colours.items()}
    names = sorted(members)
    domain = list(domain)
    inserts = round(0.4 * block)
    removes = round(0.3 * block)
    flips = block - inserts - removes
    kinds = ["insert"] * inserts + ["remove"] * removes
    kinds += [names[i % len(names)] for i in range(flips)]
    ops: List[Op] = []
    while len(ops) < length // 2:
        order = list(kinds)
        rng.shuffle(order)
        for kind in order:
            if kind == "insert" or (kind == "remove" and not edge_list):
                while True:
                    u, v = rng.sample(domain, 2)
                    if (u, v) not in edge_set:
                        break
                edge_set.add((u, v))
                edge_list.append((u, v))
                ops.append((True, "E", (u, v)))
            elif kind == "remove":
                index = rng.randrange(len(edge_list))
                edge = edge_list[index]
                edge_list[index] = edge_list[-1]
                edge_list.pop()
                edge_set.discard(edge)
                ops.append((False, "E", edge))
            else:
                vertex = rng.choice(domain)
                present = vertex in members[kind]
                if present:
                    members[kind].discard(vertex)
                else:
                    members[kind].add(vertex)
                ops.append((not present, kind, (vertex,)))
    return ops + [(not insert, relation, elements) for insert, relation, elements in reversed(ops)]


def probe_tuples(domain: Sequence[int], arity: int, seed: int, label: str, count: int) -> List[tuple]:
    """``count`` seeded tuples over ``domain``."""
    rng = random.Random(sub_seed(seed, label))
    domain = list(domain)
    return [tuple(rng.choice(domain) for _ in range(arity)) for _ in range(count)]
