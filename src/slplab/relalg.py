"""Binary-relation algebra over a small fixed entity set.

A relation on n entities is a boolean (n, n) matrix, true at [h, t] iff
(h, t) is in the relation, and a stack of relations is a (..., n, n) one.
Complement is logical NOT, converse the transpose and composition the
boolean matrix product (Schmidt & Stroehlein, Relations and Graphs, 1993),
each one array expression, on one relation or elementwise over a stack.
Complement and converse commute and are involutions, so they generate a
four-element group, and closing a base set under them gives each base
relation's orbit: at most 4 relations per base element.  The closure holds
the group's action as one (4, size) table of relation indices
(`RelationAlgebra.images`), which the query families, the factorized builds
and the parity split read.  Relations are stored only as a saved feature
map's base relations, in its sidecar (`featspace.save_feature_map`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class Relation:
    """A relation, or a stack of them: `matrix`, of shape (..., n, n).

    Indexing indexes the stack's leading axes.  A read-only matrix is held
    as it is, so converses and stack members are views; any other is held
    as a read-only copy.  `name` is metadata, ignored by equality and hash.
    """

    entity_set: EntitySet
    matrix: np.ndarray
    name: str | None = None

    def __post_init__(self) -> None:
        matrix, n = np.asarray(self.matrix), self.entity_set.n
        if matrix.dtype != bool or matrix.shape[-2:] != (n, n):
            raise ValueError("matrix must be boolean of shape (..., n, n)")
        if matrix.flags.writeable:
            matrix = matrix.copy()
            matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Relation)
                and self.entity_set == other.entity_set
                and np.array_equal(self.matrix, other.matrix))

    def __hash__(self) -> int:
        return hash((self.entity_set, self.matrix.tobytes()))

    def __getitem__(self, index) -> "Relation":
        return Relation(self.entity_set, self.matrix[index])

    @classmethod
    def from_pairs(cls, entity_set: EntitySet,
                   pairs: Iterable[tuple[int, int]],
                   name: str | None = None) -> "Relation":
        """From (head, tail) pairs of integer indices in range: a float or a
        string is a TypeError, another length or range a ValueError."""
        n = entity_set.n
        matrix = np.zeros((n, n), dtype=bool)
        for h, t in pairs:
            h, t = operator.index(h), operator.index(t)
            if not (0 <= h < n and 0 <= t < n):
                raise ValueError(f"pair ({h}, {t}) outside entity range")
            matrix[h, t] = True
        return cls(entity_set, matrix, name)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The relation's pairs, in (head, tail) order."""
        return map(tuple, np.argwhere(self.matrix).tolist())

    def is_empty(self) -> bool:
        return not self.matrix.any()

    def is_full(self) -> bool:
        return bool(self.matrix.all())


def negate(r: Relation) -> Relation:
    """Complement within the universal relation: logical NOT."""
    name = None if r.name is None else f"not({r.name})"
    return Relation(r.entity_set, ~r.matrix, name)


def converse(r: Relation) -> Relation:
    """Transpose, a view: (t, h) for every (h, t)."""
    name = None if r.name is None else f"conv({r.name})"
    return Relation(r.entity_set, r.matrix.swapaxes(-1, -2), name)


def compose(r: Relation, s: Relation) -> Relation:
    """Boolean matrix product: (h, t) iff some b has (h, b) in r, (b, t) in s.

    Stacks broadcast as in `np.matmul`.  NumPy's boolean product stops at the
    first witness b, so its cost depends on the data.
    """
    if r.entity_set != s.entity_set:
        raise ValueError("relations live on different entity sets")
    return Relation(r.entity_set, r.matrix @ s.matrix)


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
    if any(r.entity_set != entity_set for r in base):
        raise ValueError("base relations on mixed entity sets")

    closed: list[Relation] = []
    index: dict[bytes, int] = {}

    def add(r: Relation) -> int:
        key = r.matrix.tobytes()
        if key not in index:
            index[key] = len(closed)
            closed.append(r)
        return index[key]

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


def all_relations(entity_set: EntitySet) -> Relation:
    """All 2**(n*n) relations, one stack in bit-code order: relation c holds
    (h, t) iff bit h*n + t of c is set.  Small n only."""
    n = entity_set.n
    # np.indices varies its last axis fastest, so reversed, row p is bit p
    bits = np.indices((2,) * (n * n), dtype=bool).reshape(n * n, -1)[::-1]
    return Relation(entity_set, bits.T.reshape(-1, n, n))


# cells drawn by one RNG call: bounds a stack's float64 draw buffer
_BLOCK_CELLS = 2 ** 16


def random_relation(entity_set: EntitySet, rng, density: float = 0.5,
                    name: str | None = None, shape: tuple[int, ...] = ()
                    ) -> Relation:
    """One seeded relation, or a stack of leading shape `shape`: each cell
    is rng.random() < density in C order, drawn _BLOCK_CELLS at a time, so a
    stack holds the relations that one draw per relation would."""
    n = entity_set.n
    matrix = np.empty((*shape, n, n), dtype=bool)
    cells = matrix.reshape(-1)
    for start in range(0, cells.size, _BLOCK_CELLS):
        block = cells[start:start + _BLOCK_CELLS]
        np.less(rng.random(block.size), density, out=block)
    return Relation(entity_set, matrix, name)


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
