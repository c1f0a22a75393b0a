"""Query triples and their symmetry orbits.

A query (h, r, t) asks whether the pair (h, t) is in relation r.  Negating
the relation and reversing the triple generate a four-element group of
logical operations isomorphic to Z2 x Z2; its orbits partition the query
space into logical families whose members carry signs (+1 under identity and
reversal, -1 under negation and negated reversal).  Entity renamings act
separately, by permuting head and tail and optionally negating the relation;
`apply_renaming` acts elementwise, on one triple of ints or on index arrays
covering many queries at once.

The library has one query order, (head, rel, tail): with n entities and
`size` closed relations, (h, r, t) sits at position (h*size + r)*n + t.
The closure holds the group's action on the relations (`images` of
`relalg.RelationAlgebra`, rows in `LogicalOp` order), and `logical_images`
extends it to the whole query space as positions in that order; the family
partition, an (F, 4) int array, the equivariance check, the parity scan and
every per-relation orbit computation read these tables, and `family_count`
counts the families from the closure's table alone.  Reports decode
positions to triples (`decode_queries`), and the `families` report writes
the partition's text straight from the (F, 4) array (`families_text`).
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from .relalg import RelationAlgebra


class Query(NamedTuple):
    head: int
    rel: int
    tail: int


class LogicalOp(Enum):
    """Position bits in enumeration order: 1 negates, 2 reverses."""

    ID = "id"
    NEG = "neg"
    REV = "rev"
    NEGREV = "negrev"

    @property
    def sign(self) -> int:
        """Character value: -1 for the operations that negate the relation."""
        return -1 if self in (LogicalOp.NEG, LogicalOp.NEGREV) else 1


# each LogicalOp's sign, in LogicalOp order: a family member's sign
_SIGNS = np.array([op.sign for op in LogicalOp])
# each LogicalOp's row of the closure's table of relation images
_ROWS = {op: k for k, op in enumerate(LogicalOp)}


def apply_logical(op: LogicalOp, q: Query, algebra: RelationAlgebra) -> Query:
    """Image of q under one of the four logical operations."""
    if op is LogicalOp.ID:
        return q
    rel = int(algebra.images[_ROWS[op], q.rel])
    if op is LogicalOp.NEG:
        return Query(q.head, rel, q.tail)
    return Query(q.tail, rel, q.head)


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


def apply_renaming(g: GroupElementH, q: Query,
                   algebra: RelationAlgebra) -> Query:
    """Image of q under g, elementwise: q holds ints, or index arrays of one
    shape (a whole grid of queries at once), and the image has its shape."""
    perm = np.asarray(g.perm)
    rel = q.rel if g.sign == 1 else algebra.images[1][q.rel]
    return Query(perm[q.head], rel, perm[q.tail])


def logical_images(algebra: RelationAlgebra) -> np.ndarray:
    """Positions of every query's four logical images, shape (4, N).

    Entry [k, i] is the position of the k-th LogicalOp applied to the query
    at position i, where (h, r, t) sits at (h*size + r)*n + t.
    """
    n, size = algebra.entity_set.n, algebra.size
    h, r, t = np.indices((n, size, n)).reshape(3, -1)  # rev swaps h, t
    return ((np.stack([h, h, t, t]) * size + algebra.images[:, r])
            * n + np.stack([t, t, h, h]))


def compute_families(algebra: RelationAlgebra) -> np.ndarray:
    """Partition of the query space into logical families, shape (F, 4).

    Row j is family j's members under (id, neg, rev, negrev), so a member's
    sign is its column's `LogicalOp.sign`: +1, -1, +1, -1.  Column 0, the
    representative, is the lexicographic minimum of its orbit; families come
    in representative order, and a size-2 orbit, whose representative
    reversal fixes, repeats its two members in columns 2-3.
    """
    images = logical_images(algebra)
    n_queries = images.shape[1]
    reps = np.flatnonzero(images.min(axis=0) == np.arange(n_queries))
    families = images[:, reps].T
    ids = np.arange(len(reps))[:, None]
    sign, family = np.zeros(n_queries, dtype=int), np.full(n_queries, -1)
    sign[families], family[families] = _SIGNS, ids
    # a member written twice with different values reads back only one
    if np.any(sign[families] != _SIGNS):
        raise AssertionError("inconsistent signs within an orbit")
    if np.any(family < 0) or np.any(family[families] != ids):
        raise AssertionError("orbits failed to partition the query space")
    return families


def family_count(algebra: RelationAlgebra) -> int:
    """len(compute_families(algebra)), counted by Burnside's lemma.

    The orbit count is the mean fixed-point count of the four LogicalOps.
    The identity fixes all n*size*n queries and negation none; reversal and
    negated reversal fix (h, r, t) exactly when h = t and they fix r.
    """
    n, images = algebra.entity_set.n, algebra.images
    fixed = np.count_nonzero(images[2:] == images[0])
    return n * (n * algebra.size + int(fixed)) // 4


def decode_queries(positions, n: int, size: int) -> list:
    """The [head, rel, tail] lists of positions in the query order, nested
    in the shape of `positions`: how reports and errors name queries."""
    return np.stack(np.unravel_index(positions, (n, size, n)),
                    axis=-1).tolist()


def symmetric_group(n: int) -> list[tuple[int, ...]]:
    """All entity permutations, materialized; n <= 5 only.

    Above n = 5 the group is too large for the exhaustive sweeps that use it.
    """
    if n > 5:
        raise ValueError("symmetric_group materializes Sym(n); n <= 5 only")
    return [tuple(p) for p in itertools.permutations(range(n))]


# families formatted per block of text: bounds the rows held as Python ints
_FAMILY_BLOCK = 2 ** 12


def _family_template(slots: tuple[int, ...], indent: str) -> str:
    """One family's text under json.dumps(indent=2, sort_keys=True), as an
    item of a list whose items' lines start with `indent`: a str.format
    template over the head, rel, tail and sign of each of the family's
    sorted members, that writes the members at `slots`, and member 0,
    the representative."""
    members = [{"query": [f"<{4 * s + i}>" for i in range(3)],
                "sign": f"<{4 * s + 3}>"} for s in slots]
    doc = {"members": members, "representative": ["<0>", "<1>", "<2>"]}
    text = json.dumps(doc, indent=2, sort_keys=True)
    text = re.sub(r'"<(\d+)>"', r"{\1}",
                  text.replace("{", "{{").replace("}", "}}"))
    return indent + text.replace("\n", "\n" + indent)


def families_text(families: np.ndarray, algebra: RelationAlgebra,
                  indent: str = "") -> Iterator[str]:
    """The partition's JSON text, in blocks, from its "[" to its "]".

    It is json.dumps(indent=2, sort_keys=True) of the list holding, per
    family, {"members": [{"query": [h, r, t], "sign": s}, ...],
    "representative": [h, r, t]}, members in query order and each written
    once, laid out as the value of a line that starts with `indent`.  No
    dict is built per family: a block's fields are one int array, and each
    family is formatted into one of two fixed templates.
    """
    n, size = algebra.entity_set.n, algebra.size
    four, two = (_family_template(slots, indent + "  ").format
                 for slots in ((0, 1, 2, 3), (0, 2)))
    yield "[\n"
    for start in range(0, len(families), _FAMILY_BLOCK):
        block = families[start:start + _FAMILY_BLOCK]
        order = np.argsort(block, axis=1, kind="stable")
        members = np.take_along_axis(block, order, axis=1)
        fields = np.stack([*np.unravel_index(members, (n, size, n)),
                           _SIGNS[order]], axis=-1).reshape(len(block), 16)
        # reversal fixes a size-2 orbit's representative; sorted, its
        # members read a, a, b, b
        fixed = (block[:, 2] == block[:, 0]).tolist()
        text = ",\n".join([(two if k else four)(*row)
                           for row, k in zip(fields.tolist(), fixed)])
        yield text if start == 0 else ",\n" + text
    yield "\n" + indent + "]"
