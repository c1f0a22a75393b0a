"""Query triples and their symmetry orbits.

A query (h, r, t) asks whether the pair (h, t) is in relation r.  Negating
the relation and reversing the triple generate a four-element group of
logical operations isomorphic to Z2 x Z2; its orbits partition the query
space into logical families whose members carry signs (+1 under identity and
reversal, -1 under negation and negated reversal).  Entity renamings act
separately, by permuting head and tail and optionally negating the relation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .relalg import RelationAlgebra


class Query(NamedTuple):
    head: int
    rel: int
    tail: int


class LogicalOp(Enum):
    ID = "id"
    NEG = "neg"
    REV = "rev"
    NEGREV = "negrev"

    def __mul__(self, other: "LogicalOp") -> "LogicalOp":
        return _COMPOSE[(self, other)]

    @property
    def sign(self) -> int:
        """Character value: -1 for the operations that negate the relation."""
        return -1 if self in (LogicalOp.NEG, LogicalOp.NEGREV) else 1


_COMPOSE = {}
for _a in LogicalOp:
    for _b in LogicalOp:
        _neg = (_a in (LogicalOp.NEG, LogicalOp.NEGREV)) ^ \
               (_b in (LogicalOp.NEG, LogicalOp.NEGREV))
        _rev = (_a in (LogicalOp.REV, LogicalOp.NEGREV)) ^ \
               (_b in (LogicalOp.REV, LogicalOp.NEGREV))
        _COMPOSE[(_a, _b)] = {(False, False): LogicalOp.ID,
                              (True, False): LogicalOp.NEG,
                              (False, True): LogicalOp.REV,
                              (True, True): LogicalOp.NEGREV}[(_neg, _rev)]


def apply_logical(op: LogicalOp, q: Query, algebra: RelationAlgebra) -> Query:
    """Image of q under one of the four logical operations."""
    if op is LogicalOp.ID:
        return q
    if op is LogicalOp.NEG:
        return Query(q.head, algebra.neg(q.rel), q.tail)
    if op is LogicalOp.REV:
        return Query(q.tail, algebra.conv(q.rel), q.head)
    return Query(q.tail, algebra.neg(algebra.conv(q.rel)), q.head)


@dataclass(frozen=True)
class GroupElementH:
    """An entity permutation together with a relation sign.

    (perm, -1) sends (h, r, t) to (perm[h], not r, perm[t]); (perm, +1)
    leaves the relation alone.  The sign component commutes with the
    permutation component, so composition multiplies signs.
    """

    perm: tuple[int, ...]
    sign: int = 1

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm is not a permutation of 0..n-1")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @classmethod
    def identity(cls, n: int) -> "GroupElementH":
        return cls(tuple(range(n)), 1)

    def compose(self, other: "GroupElementH") -> "GroupElementH":
        """self after other."""
        perm = tuple(self.perm[other.perm[i]] for i in range(len(self.perm)))
        return GroupElementH(perm, self.sign * other.sign)

    def inverse(self) -> "GroupElementH":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return GroupElementH(tuple(inv), self.sign)


def apply_renaming(g: GroupElementH, q: Query,
                   algebra: RelationAlgebra) -> Query:
    rel = q.rel if g.sign == 1 else algebra.neg(q.rel)
    return Query(g.perm[q.head], rel, g.perm[q.tail])


def enumerate_queries(algebra: RelationAlgebra) -> tuple[Query, ...]:
    """All queries over the closed relation set, ordered by (head, rel, tail)."""
    n = algebra.entity_set.n
    return tuple(Query(h, r, t)
                 for h in range(n)
                 for r in range(algebra.size)
                 for t in range(n))


@dataclass(frozen=True)
class LogicalFamily:
    """One orbit of the logical four-group with signs against the representative.

    The representative is the lexicographic minimum of the orbit; sign(p) is
    the character value of any group element carrying the representative to p
    (well-defined because the only possible stabilizer element, reversal, has
    sign +1).
    """

    representative: Query
    members: tuple[Query, ...]
    signs: dict[Query, int]

    def __post_init__(self) -> None:
        if len(self.members) not in (2, 4):
            raise ValueError(f"orbit size {len(self.members)} is impossible")


def orbit(q: Query, algebra: RelationAlgebra) -> dict[LogicalOp, Query]:
    return {op: apply_logical(op, q, algebra) for op in LogicalOp}


def make_family(q: Query, algebra: RelationAlgebra) -> LogicalFamily:
    images = orbit(q, algebra)
    rep = min(images.values())
    rep_images = orbit(rep, algebra)
    sign_sets: dict[Query, set[int]] = {}
    for op, p in rep_images.items():
        sign_sets.setdefault(p, set()).add(op.sign)
    for p, signs in sign_sets.items():
        if len(signs) != 1:
            raise AssertionError(f"inconsistent sign for {p} in orbit of {rep}")
    members = tuple(sorted(sign_sets))
    return LogicalFamily(rep, members, {p: signs.pop()
                                        for p, signs in sign_sets.items()})


def compute_families(algebra: RelationAlgebra) -> tuple[LogicalFamily, ...]:
    """Partition of the full query space into logical families."""
    seen: set[Query] = set()
    families: list[LogicalFamily] = []
    for q in enumerate_queries(algebra):
        if q in seen:
            continue
        fam = make_family(q, algebra)
        if seen.intersection(fam.members):
            raise AssertionError("orbits failed to partition the query space")
        seen.update(fam.members)
        families.append(fam)
    families.sort(key=lambda f: f.representative)
    total = sum(len(f.members) for f in families)
    if total != algebra.entity_set.n ** 2 * algebra.size:
        raise AssertionError("family partition does not cover the query space")
    return tuple(families)


def family_index(families: Iterable[LogicalFamily]) -> dict[Query, int]:
    idx: dict[Query, int] = {}
    for i, fam in enumerate(families):
        for q in fam.members:
            idx[q] = i
    return idx


def symmetric_group(n: int) -> list[tuple[int, ...]]:
    """All entity permutations, materialized; n <= 5 only.

    Above n = 5 the group is too large for the exhaustive sweeps that use it.
    """
    if n > 5:
        raise ValueError("symmetric_group materializes Sym(n); n <= 5 only")
    return [tuple(p) for p in itertools.permutations(range(n))]


def families_to_json(families: Iterable[LogicalFamily]) -> list[dict]:
    """The partition in its serialization shape: representative + signed members."""
    return [{"representative": list(f.representative),
             "members": [{"query": list(q), "sign": f.signs[q]}
                         for q in f.members]}
            for f in families]
