"""Finite relational structures (databases), Section 2.1 of the paper.

A :class:`Structure` owns a domain with a fixed linear order (the RAM model
of Section 2.2 assumes one), a signature, and one set of tuples per relation
symbol.  The Gaifman graph, degree, and per-element adjacency are computed
lazily and cached; any mutation invalidates the caches.

Size conventions follow the paper:

* ``structure.cardinality`` is ``|A|``, the number of domain elements;
* ``structure.size`` is ``||A||``, i.e.
  ``|sigma| + |dom(A)| + sum_R |R^A| * ar(R)``.
"""

from __future__ import annotations

import hashlib
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import FrozenStructureError, GuardedStructureError, SignatureError
from repro.structures.signature import Signature
from repro.util.orderings import DomainOrder

Element = Hashable
Fact = Tuple[Element, ...]

_FP_BYTES = 32  # sha256 digest size; the rolling accumulator's word width


def _fact_digest(relation: str, fact: Fact) -> int:
    """A 256-bit hash of one fact record, XOR-combinable across facts.

    XOR makes the fact-set accumulator order-independent *and*
    self-inverse: inserting a fact and removing it apply the same
    operation, so a rolling accumulator needs exactly one digest per
    update — the O(1) maintenance :meth:`Structure.content_fingerprint`
    relies on.  Facts are sets (no duplicates), so the pairwise-cancel
    weakness of XOR hashing cannot trigger.
    """
    hasher = hashlib.sha256(relation.encode("utf-8"))
    for element in fact:
        hasher.update(b"\x1f")
        hasher.update(repr(element).encode("utf-8"))
    return int.from_bytes(hasher.digest(), "big")


class Structure:
    """A finite relational structure over a fixed signature."""

    def __init__(
        self,
        signature: Signature,
        domain: Iterable[Element],
        relations: Optional[Mapping[str, Iterable[Sequence[Element]]]] = None,
    ):
        self.signature = signature
        self._domain: list = []
        self._domain_set: Set[Element] = set()
        for element in domain:
            if element not in self._domain_set:
                self._domain_set.add(element)
                self._domain.append(element)
        if not self._domain:
            raise ValueError("structures must have a non-empty domain")
        self._relations: Dict[str, Set[Fact]] = {
            symbol.name: set() for symbol in signature
        }
        self._version = 0
        # Fork-lineage counter: 0 at construction, parent + 1 on every
        # :meth:`fork`.  Together with ``version`` it names a state in the
        # copy-on-write history; the session layer keys its plan cache on
        # it so a restored database can never alias pre-restart entries.
        self._generation = 0
        self._caches_dirty = True
        # Snapshot machinery (repro.session): ``freeze()`` pins the fact
        # set forever; ``fork()`` marks relations as copy-on-write shared
        # with the fork, and the first mutation of a shared relation (on
        # either side) materializes a private set first.
        self._frozen = False
        self._cow_shared: Set[str] = set()
        # When a Database owns this structure it installs a guard message
        # here; direct add_fact/remove_fact then raise
        # GuardedStructureError instead of silently desynchronizing the
        # session's pinned readers and maintained pipelines.
        self._write_guard: Optional[str] = None
        # Rolling content-fingerprint state (initialized lazily by
        # content_fingerprint(); None = not yet demanded).  The header
        # digest covers signature + domain, which never mutate after
        # construction; the accumulator XORs one digest per fact and is
        # maintained in O(1) by add_fact/remove_fact.
        self._fp_header: Optional[bytes] = None
        self._fp_acc: Optional[int] = None
        self._adjacency: Dict[Element, Set[Element]] = {}
        # How many facts witness each Gaifman edge (keyed by the unordered
        # element pair); lets mutations update adjacency incrementally.
        self._edge_support: Dict[FrozenSet[Element], int] = {}
        self._order: Optional[DomainOrder] = None
        if relations:
            for name, facts in relations.items():
                for fact in facts:
                    self.add_fact(name, *fact)

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenStructureError(
                "this structure is frozen (it backs a pinned snapshot); "
                "mutate the live database head instead"
            )
        if self._write_guard is not None:
            raise GuardedStructureError(self._write_guard)

    def _materialize_relation(self, relation: str) -> None:
        """Copy-on-write: give this side a private fact set before writing."""
        if relation in self._cow_shared:
            self._relations[relation] = set(self._relations[relation])
            self._cow_shared.discard(relation)

    def add_fact(self, relation: str, *elements: Element) -> None:
        """Insert the fact ``relation(elements...)``.

        Raises :class:`SignatureError` on arity mismatch or unknown symbol,
        :class:`ValueError` if an element is outside the domain, and
        :class:`FrozenStructureError` on a frozen snapshot structure.
        """
        self._check_mutable()
        symbol = self.signature.symbol(relation)
        if len(elements) != symbol.arity:
            raise SignatureError(
                f"{relation} has arity {symbol.arity}, got {len(elements)} arguments"
            )
        for element in elements:
            if element not in self._domain_set:
                raise ValueError(f"element {element!r} is not in the domain")
        fact = tuple(elements)
        if fact not in self._relations[relation]:
            self._materialize_relation(relation)
            self._relations[relation].add(fact)
            self._version += 1
            if self._fp_acc is not None:
                self._fp_acc ^= _fact_digest(relation, fact)
            if not self._caches_dirty:
                self._support_fact(fact, +1)

    def remove_fact(self, relation: str, *elements: Element) -> None:
        """Remove a fact; silently ignores absent facts."""
        self._check_mutable()
        symbol = self.signature.symbol(relation)
        if len(elements) != symbol.arity:
            raise SignatureError(
                f"{relation} has arity {symbol.arity}, got {len(elements)} arguments"
            )
        fact = tuple(elements)
        if fact in self._relations[relation]:
            self._materialize_relation(relation)
            self._relations[relation].discard(fact)
            self._version += 1
            if self._fp_acc is not None:
                self._fp_acc ^= _fact_digest(relation, fact)
            if not self._caches_dirty:
                self._support_fact(fact, -1)

    def _support_fact(self, fact: Fact, delta: int) -> None:
        """Incrementally maintain the Gaifman adjacency for one fact."""
        distinct = set(fact)
        if len(distinct) < 2:
            return
        ordered = list(distinct)
        for i, left in enumerate(ordered):
            for right in ordered[i + 1 :]:
                key = frozenset((left, right))
                support = self._edge_support.get(key, 0) + delta
                if support <= 0:
                    self._edge_support.pop(key, None)
                    self._adjacency[left].discard(right)
                    self._adjacency[right].discard(left)
                else:
                    self._edge_support[key] = support
                    if delta > 0 and support == 1:
                        self._adjacency[left].add(right)
                        self._adjacency[right].add(left)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def domain(self) -> Sequence[Element]:
        """The domain in its fixed linear order (do not mutate)."""
        return self._domain

    @property
    def order(self) -> DomainOrder:
        """The linear order on the domain (Section 2.2).

        Built once: the domain is fixed after construction, so the order
        is independent of the adjacency caches' dirty bit.
        """
        if self._order is None:
            self._order = DomainOrder(self._domain)
        return self._order

    def __contains__(self, element: Element) -> bool:
        return element in self._domain_set

    @property
    def version(self) -> int:
        """Mutation counter: bumped on every effective fact change.

        Lets long-lived handles (e.g. ``repro.engine`` result handles)
        detect that the structure moved on under them without rehashing
        the whole fact set.
        """
        return self._version

    @property
    def generation(self) -> int:
        """Fork-lineage counter: 0 at construction, parent + 1 per fork."""
        return self._generation

    def _restore_lineage(self, version: int, generation: int) -> None:
        """Adopt a persisted ``(version, generation)`` lineage position.

        Only for deserialization/recovery (:mod:`repro.structures.serialize`,
        :mod:`repro.storage.wal`) and for undoing a failed commit
        (:func:`repro.core.dynamic.maintain_in_place`): a freshly loaded
        structure re-counted its versions while re-adding facts, which
        would let a reopened database alias version pins and
        generation-tagged cache keys from the pre-restart lineage.  The persisted position is authoritative in
        both directions — it may be *below* the re-count (``copy()`` resets
        the counter without clearing facts, so a dumped structure can carry
        more facts than version ticks).
        """
        if version < 0 or generation < 0:
            raise ValueError(
                f"cannot restore a negative lineage ({version}, {generation})"
            )
        self._version = version
        self._generation = generation

    @property
    def cardinality(self) -> int:
        """``|A|``: the number of domain elements."""
        return len(self._domain)

    # ------------------------------------------------------------------
    # Snapshot support: freezing and copy-on-write forking
    # ------------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` pinned this structure's fact set."""
        return self._frozen

    def freeze(self) -> None:
        """Pin the fact set: every later mutation raises
        :class:`~repro.errors.FrozenStructureError`.  Irreversible — a
        frozen structure backs snapshot reads that must stay
        byte-identical forever; evolve the data through :meth:`fork`.
        """
        self._frozen = True

    def fork(self) -> "Structure":
        """A mutable copy-on-write fork sharing this structure's fact sets.

        O(#relations): both sides keep the same per-relation ``set``
        objects, marked shared; the first mutation of a shared relation
        (on either side) copies just that relation.  The domain (fixed
        after construction) and the rolling-fingerprint state are shared
        or copied cheaply, so fingerprinting the fork stays O(1) per
        later update.  The fork continues this structure's version
        lineage — its counter starts where the parent's stands, so every
        post-fork mutation yields a version the parent never had.
        Derived caches (Gaifman adjacency) rebuild lazily on the fork.
        """
        clone = Structure.__new__(Structure)
        clone.signature = self.signature
        clone._domain = self._domain  # fixed after construction; shared
        clone._domain_set = self._domain_set
        clone._relations = dict(self._relations)
        shared = set(self._relations)
        self._cow_shared |= shared
        clone._cow_shared = set(shared)
        clone._version = self._version
        clone._generation = self._generation + 1
        clone._caches_dirty = True
        clone._frozen = False
        # The fork starts unguarded — the session that forked it applies
        # the commit's ops before reinstating the guard on the new head.
        clone._write_guard = None
        clone._fp_header = self._fp_header
        clone._fp_acc = self._fp_acc
        clone._adjacency = {}
        clone._edge_support = {}
        clone._order = self._order
        return clone

    # ------------------------------------------------------------------
    # Content fingerprint (rolling)
    # ------------------------------------------------------------------

    def _header_digest(self) -> bytes:
        if self._fp_header is None:
            hasher = hashlib.sha256()
            for symbol in self.signature:
                hasher.update(f"{symbol.name}/{symbol.arity}".encode("utf-8"))
                hasher.update(b"\x1f")
            hasher.update(b"\x1e")
            for element in self._domain:
                hasher.update(repr(element).encode("utf-8"))
                hasher.update(b"\x1f")
            hasher.update(b"\x1e")
            self._fp_header = hasher.digest()
        return self._fp_header

    def content_fingerprint(self) -> str:
        """Content hash of the structure, maintained in O(1) per update.

        The fact set enters as an XOR accumulator of per-fact digests
        (:func:`_fact_digest`) — insertion-order independent, and updated
        with a single digest by :meth:`add_fact` / :meth:`remove_fact`
        once initialized — combined with a one-time header digest over
        signature and domain (immutable after construction).  The first
        call walks every fact (O(||A||)); every later call is O(1), so
        fingerprint-keyed caches (:mod:`repro.engine.cache`) survive
        tiny-update streams without rehashing the whole structure.
        Equal to :func:`repro.structures.serialize.fingerprint_full` by
        construction — the differential suite enforces it.
        """
        if self._fp_acc is None:
            acc = 0
            for name, facts in self._relations.items():
                for fact in facts:
                    acc ^= _fact_digest(name, fact)
            self._fp_acc = acc
        return hashlib.sha256(
            self._header_digest() + self._fp_acc.to_bytes(_FP_BYTES, "big")
        ).hexdigest()

    @property
    def size(self) -> int:
        """``||A||``: signature + domain + sum of relation sizes times arity."""
        relation_weight = sum(
            len(facts) * self.signature.arity(name)
            for name, facts in self._relations.items()
        )
        return len(self.signature) + len(self._domain) + relation_weight

    def facts(self, relation: str) -> FrozenSet[Fact]:
        """All tuples of the given relation (direct access, Section 2.1)."""
        if relation not in self._relations:
            raise SignatureError(f"unknown relation symbol {relation!r}")
        return frozenset(self._relations[relation])

    def has_fact(self, relation: str, *elements: Element) -> bool:
        """Naive membership test (the Storing-Theorem index is in storage/)."""
        if relation not in self._relations:
            raise SignatureError(f"unknown relation symbol {relation!r}")
        return tuple(elements) in self._relations[relation]

    def relation_names(self) -> Tuple[str, ...]:
        return self.signature.names()

    def iter_facts(self) -> Iterator[Tuple[str, Fact]]:
        """Iterate over all facts as ``(relation_name, tuple)`` pairs."""
        for name in self.signature.names():
            for fact in sorted(self._relations[name], key=self._fact_key):
                yield name, fact

    def _fact_key(self, fact: Fact):
        order = self.order
        return tuple(order.rank(element) for element in fact)

    # ------------------------------------------------------------------
    # Gaifman graph (Section 2.1)
    # ------------------------------------------------------------------

    def _rebuild_adjacency(self) -> None:
        self._adjacency = {element: set() for element in self._domain}
        self._edge_support = {}
        self._caches_dirty = False
        for facts in self._relations.values():
            for fact in facts:
                self._support_fact(fact, +1)

    def neighbors(self, element: Element) -> Set[Element]:
        """Gaifman-graph neighbors of ``element`` (excluding itself).

        The returned set is live — do not mutate it.
        """
        if self._caches_dirty:
            self._rebuild_adjacency()
        return self._adjacency[element]

    @property
    def degree(self) -> int:
        """degree(A): maximum degree of the Gaifman graph."""
        if self._caches_dirty:
            self._rebuild_adjacency()
        return max((len(neighbors) for neighbors in self._adjacency.values()), default=0)

    def adjacency(self) -> Mapping[Element, Set[Element]]:
        """The full Gaifman adjacency map (element -> live neighbor set)."""
        if self._caches_dirty:
            self._rebuild_adjacency()
        return self._adjacency

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------

    def restrict_signature(self, names: Iterable[str]) -> "Structure":
        """The reduct ``A|q``: same domain, only the given relations.

        Used by Lemma 3.1: neighborhoods are computed in the reduct of A to
        the relation symbols occurring in the query.
        """
        wanted = [name for name in names if name in self.signature]
        restricted = Structure(self.signature.restrict(wanted), self._domain)
        for name in wanted:
            restricted._relations[name] = set(self._relations[name])
        restricted._caches_dirty = True
        return restricted

    def induced_substructure(self, elements: Iterable[Element]) -> "Structure":
        """The substructure induced on ``elements`` (kept in domain order)."""
        kept = set(elements)
        for element in kept:
            if element not in self._domain_set:
                raise ValueError(f"element {element!r} is not in the domain")
        ordered = [element for element in self._domain if element in kept]
        sub = Structure(self.signature, ordered)
        for name, facts in self._relations.items():
            sub._relations[name] = {
                fact for fact in facts if all(component in kept for component in fact)
            }
        sub._caches_dirty = True
        return sub

    def copy(self) -> "Structure":
        clone = Structure(self.signature, self._domain)
        for name, facts in self._relations.items():
            clone._relations[name] = set(facts)
        clone._caches_dirty = True
        clone._order = self._order  # same domain, same order
        return clone

    def __repr__(self) -> str:
        fact_count = sum(len(facts) for facts in self._relations.values())
        return (
            f"Structure(|A|={self.cardinality}, facts={fact_count}, "
            f"signature={self.signature!r})"
        )
