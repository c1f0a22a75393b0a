"""Binary-relation algebra over a small fixed entity set.

A relation on n entities is a subset of the n*n ordered pairs, packed into a
Python int: bit h*n + t is set iff the pair (h, t) is in the relation.  The
unary operations are complement and converse (transpose); composition is the
boolean matrix product.  Complement and converse commute and are
involutions, so they generate a four-element group, and closing a base set
under them gives each base relation's orbit: at most 4 relations per base
element.  The closure holds the group's action as one (4, size) table of
relation indices (`RelationAlgebra.images`), which the query families, the
factorized builds and the parity split read.  Relations are stored only as
a saved feature map's base relations, in its sidecar
(`featspace.save_feature_map`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class EntitySet:
    """Ordered, duplicate-free entity labels; indices are positions."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) == 0:
            raise ValueError("entity set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate entity labels")

    @classmethod
    def of_size(cls, n: int) -> "EntitySet":
        return cls(tuple(f"e{i}" for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.labels)

    def pair_bit(self, head: int, tail: int) -> int:
        return head * self.n + tail

    def full_mask(self) -> int:
        return (1 << (self.n * self.n)) - 1


@dataclass(frozen=True)
class Relation:
    """Immutable bitset relation; `name` is metadata and ignored by equality."""

    entity_set: EntitySet
    bits: int
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.entity_set.full_mask():
            raise ValueError("bits outside the n*n range")

    @classmethod
    def from_pairs(cls, entity_set: EntitySet,
                   pairs: Iterable[tuple[int, int]],
                   name: str | None = None) -> "Relation":
        bits = 0
        n = entity_set.n
        for h, t in pairs:
            if not (0 <= h < n and 0 <= t < n):
                raise ValueError(f"pair ({h}, {t}) outside entity range")
            bits |= 1 << (h * n + t)
        return cls(entity_set, bits, name)

    def contains(self, head: int, tail: int) -> bool:
        return bool(self.bits >> self.entity_set.pair_bit(head, tail) & 1)

    def pairs(self) -> Iterator[tuple[int, int]]:
        n = self.entity_set.n
        for h in range(n):
            for t in range(n):
                if self.bits >> (h * n + t) & 1:
                    yield (h, t)

    def row(self, head: int) -> int:
        """Bitset of tails related to `head`."""
        n = self.entity_set.n
        return (self.bits >> (head * n)) & ((1 << n) - 1)

    def is_empty(self) -> bool:
        return self.bits == 0

    def is_full(self) -> bool:
        return self.bits == self.entity_set.full_mask()


def _require_same_entities(r: Relation, s: Relation) -> None:
    if r.entity_set != s.entity_set:
        raise ValueError("relations live on different entity sets")


def negate(r: Relation) -> Relation:
    """Complement within the universal relation."""
    name = None if r.name is None else f"not({r.name})"
    return Relation(r.entity_set, r.bits ^ r.entity_set.full_mask(), name)


def converse(r: Relation) -> Relation:
    """Transpose: (t, h) for every (h, t)."""
    n = r.entity_set.n
    bits = 0
    for h in range(n):
        for t in range(n):
            if r.bits >> (h * n + t) & 1:
                bits |= 1 << (t * n + h)
    name = None if r.name is None else f"conv({r.name})"
    return Relation(r.entity_set, bits, name)


def compose(r: Relation, s: Relation) -> Relation:
    """Boolean matrix product: (h, t) iff some b has (h, b) in r, (b, t) in s.

    Every intermediate b is visited (no early exit), keeping the cost profile
    independent of the data.
    """
    _require_same_entities(r, s)
    n = r.entity_set.n
    bits = 0
    for h in range(n):
        row_r = r.row(h)
        acc = 0
        for b in range(n):
            if row_r >> b & 1:
                acc |= s.row(b)
        bits |= acc << (h * n)
    return Relation(r.entity_set, bits)


@dataclass(frozen=True, eq=False)
class RelationAlgebra:
    """A base set of relations closed under complement and converse.

    `closed` lists the distinct relations in closure order: the base
    relations, then each one's complement and converse, then each one's
    complemented converse, each where it is new.  `images` is the group's
    action, a read-only (4, size) int array: row k holds each relation's
    index under identity, complement, converse and complemented converse,
    the order of `queryspace.LogicalOp`.
    """

    entity_set: EntitySet
    base: tuple[Relation, ...]
    closed: tuple[Relation, ...]
    images: np.ndarray

    @property
    def size(self) -> int:
        return len(self.closed)


def close_unary(base: Iterable[Relation]) -> RelationAlgebra:
    """Close `base` under complement and converse, in breadth-first order."""
    base = tuple(base)
    if not base:
        raise ValueError("base relation set must be nonempty")
    entity_set = base[0].entity_set
    for r in base[1:]:
        if r.entity_set != entity_set:
            raise ValueError("base relations on mixed entity sets")

    closed: list[Relation] = []
    index: dict[int, int] = {}

    def add(r: Relation) -> int:
        if r.bits not in index:
            index[r.bits] = len(closed)
            closed.append(r)
        return index[r.bits]

    # each base relation's orbit, its columns in LogicalOp order
    orbits = np.empty((len(base), 4), dtype=int)
    orbits[:, 0] = [add(r) for r in base]
    for i, r in enumerate(base):
        orbits[i, 1:3] = add(negate(r)), add(converse(r))
    orbits[:, 3] = [add(converse(negate(r))) for r in base]
    # bit 1 of an op complements and bit 2 takes the converse, so op k
    # sends g(r) to (k ^ g)(r)
    ops = np.arange(4)
    images = np.empty((4, len(closed)), dtype=int)
    images[:, orbits] = orbits[:, ops[:, None] ^ ops].transpose(1, 0, 2)
    images.flags.writeable = False
    return RelationAlgebra(entity_set, base, tuple(closed), images)


def all_relations(entity_set: EntitySet) -> Iterator[Relation]:
    """Every relation on the entity set; 2**(n*n) of them, small n only."""
    for bits in range(entity_set.full_mask() + 1):
        yield Relation(entity_set, bits)


def random_relation(entity_set: EntitySet, rng, density: float = 0.5,
                    name: str | None = None) -> Relation:
    n = entity_set.n
    bits = 0
    for p in range(n * n):
        if rng.random() < density:
            bits |= 1 << p
    return Relation(entity_set, bits, name)


def random_base_relations(entity_set: EntitySet, rng, count: int,
                          density: float) -> list[Relation]:
    """Seeded relations r0 .. r(count-1), none of them empty or full.

    A degenerate draw is redrawn once.  A second degenerate draw raises
    ValueError: the entity count and density make a proper relation unlikely.
    """
    relations = []
    for i in range(count):
        rel = random_relation(entity_set, rng, density, name=f"r{i}")
        if rel.is_empty() or rel.is_full():
            rel = random_relation(entity_set, rng, density, name=f"r{i}")
        if rel.is_empty() or rel.is_full():
            raise ValueError(f"relation r{i} degenerate after one redraw; "
                             "adjust density or entity count")
        relations.append(rel)
    return relations
