"""Binary-relation algebra over a small fixed entity set.

A relation on n entities is a subset of the n*n ordered pairs, packed into a
Python int: bit h*n + t is set iff the pair (h, t) is in the relation.  The
unary operations are complement and converse (transpose); composition is the
boolean matrix product.  Closing a base set under the unary operations gives
at most 4 relations per base element, since complement and converse commute
and are involutions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator


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

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown entity label {label!r}") from None

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

    def column(self, tail: int) -> int:
        """Bitset of heads related to `tail`."""
        n = self.entity_set.n
        col = 0
        for h in range(n):
            col |= ((self.bits >> (h * n + tail)) & 1) << h
        return col

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


def witnesses(r: Relation, s: Relation, head: int, tail: int) -> set[int]:
    """All middle entities b with (head, b) in r and (b, tail) in s."""
    _require_same_entities(r, s)
    n = r.entity_set.n
    mask = r.row(head) & s.column(tail)
    return {b for b in range(n) if mask >> b & 1}


@dataclass(frozen=True)
class RelationAlgebra:
    """A base set of relations closed under complement and converse.

    `closed` lists the distinct relations in deterministic closure order
    (base relations first); `negation[i]` and `converse_[i]` index the
    complement and transpose partners of `closed[i]`.
    """

    entity_set: EntitySet
    base: tuple[Relation, ...]
    closed: tuple[Relation, ...]
    negation: tuple[int, ...]
    converse_: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.closed)

    def neg(self, i: int) -> int:
        return self.negation[i]

    def conv(self, i: int) -> int:
        return self.converse_[i]


def close_unary(base: Iterable[Relation]) -> RelationAlgebra:
    """Close `base` under complement and converse (fixed point, BFS order)."""
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

    for r in base:
        add(r)
    frontier = list(closed)
    while frontier:
        nxt: list[Relation] = []
        for r in frontier:
            for image in (negate(r), converse(r)):
                if image.bits not in index:
                    add(image)
                    nxt.append(image)
        frontier = nxt

    negation = tuple(index[r.bits ^ entity_set.full_mask()] for r in closed)
    converse_ = tuple(index[converse(r).bits] for r in closed)
    if len(closed) > 4 * len(base):
        raise AssertionError("closure exceeded the 4x base bound")
    return RelationAlgebra(entity_set, base, tuple(closed), negation, converse_)


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


def load_relations(source: str | Path | dict) -> tuple[EntitySet, list[Relation]]:
    """Read {"entities": [...], "relations": {name: [[h, t], ...]}} JSON.

    Pair entries are entity labels; unknown labels are rejected.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, dict) or "entities" not in doc or "relations" not in doc:
        raise ValueError("expected keys 'entities' and 'relations'")
    entity_set = EntitySet(tuple(str(x) for x in doc["entities"]))
    relations = []
    for name, pairs in doc["relations"].items():
        idx_pairs = []
        for entry in pairs:
            if len(entry) != 2:
                raise ValueError(f"relation {name!r}: pair {entry!r} is not binary")
            h, t = entry
            idx_pairs.append((entity_set.index(str(h)), entity_set.index(str(t))))
        relations.append(Relation.from_pairs(entity_set, idx_pairs, name))
    return entity_set, relations


def dump_relations(entity_set: EntitySet, relations: Iterable[Relation]) -> dict:
    doc: dict = {"entities": list(entity_set.labels), "relations": {}}
    for i, r in enumerate(relations):
        name = r.name or f"r{i}"
        doc["relations"][name] = [[entity_set.labels[h], entity_set.labels[t]]
                                  for h, t in r.pairs()]
    return doc
