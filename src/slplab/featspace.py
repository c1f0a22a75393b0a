"""Linearized feature geometry over a query space.

A feature map assigns every query a row vector (the score gradient of a
linearized model at its base point).  The checks here are the two halves of
the structured-linear property: logical equivariance (negation flips the
feature, reversal preserves it) and linear independence of one representative
feature per logical family.  On maps with both properties, entity renamings
acting on query coordinates descend to well-defined linear operators on the
feature span: orthogonal matrices in the span coordinates of the map's SVD,
whose feature-coordinate forms vanish off the span.

A FeatureMap holds the relation closure it was built on and a read-only
copy of its matrix, rows in the one query order of `queryspace`.  It caches
the closure's family partition, the (F, 4) position array of
`compute_families`, which every check reads, and two thin SVDs
(`numerics.Spectrum`), each computed on first use: one of its
representative rows, one per family, which the SLP rank check, the build's
redraw decision and the audit's Gram rank read, and one of the whole map,
which `check_slp`'s full rank, the family kernel check's span projector and
every lift read.  The whole map's is derived from the representative rows'
without a second decomposition when the map is their exact signed copy
with four distinct members per family, as every map built by construction
is; any other map, a loaded one off its signed copy or a closure with a
family that reversal fixes, is decomposed itself.  It also caches the flat
(head, rel, tail) index arrays of its query grid, so a lift's query
permutation is one `apply_renaming` on arrays that every lift of the map
shares.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import numerics
from .queryspace import (GroupElementH, LogicalOp, Query, apply_renaming,
                         compute_families, decode_queries, logical_images)
from .relalg import EntitySet, Relation, RelationAlgebra, close_unary
from .reports import Report


class KernelNotInvariantError(RuntimeError):
    """Renaming does not preserve the kernel; no lifted operator exists."""

    def __init__(self, renaming: GroupElementH, deviation: float) -> None:
        super().__init__(f"renaming {renaming} does not preserve the kernel "
                         f"(orthogonality deviation {deviation})")
        self.renaming = renaming
        self.deviation = deviation


@dataclass(frozen=True, init=False, eq=False)
class FeatureMap:
    """Feature rows of the queries over the closure `algebra`, of n entities
    and `size` relations: row (h*size + r)*n + t of `matrix` is query
    (h, r, t)'s.

    Rows in another order come with `queries`, the [head, rel, tail] of
    each: they are checked against the grid and put in grid order by one
    gather, in place of the copy the map makes of a matrix in grid order."""

    algebra: RelationAlgebra = field(repr=False)
    n: int
    size: int
    matrix: np.ndarray

    def __init__(self, algebra: RelationAlgebra, matrix, queries=None) -> None:
        n, size = algebra.entity_set.n, algebra.size
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != n * size * n:
            raise ValueError("matrix shape does not match the query grid")
        if m.shape[1] < 1:
            raise ValueError("feature dimension must be at least 1")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite feature entries")
        # a copy: the caches below depend on it
        m = m.copy() if queries is None else m[_grid_order(queries, n, size)]
        m.flags.writeable = False
        for name, value in (("algebra", algebra), ("n", n), ("size", size),
                            ("matrix", m)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def index(self, head, rel, tail):
        """Row of query (head, rel, tail), elementwise; ValueError off grid."""
        return np.ravel_multi_index((head, rel, tail),
                                    (self.n, self.size, self.n))

    @cached_property
    def spectrum(self) -> numerics.Spectrum:
        """The matrix's SVD, computed on first read.

        Derived when every family has four distinct members whose rows are
        exactly +R, -R, +R, -R for its representative row R, compared one
        member column at a time.  The matrix is then E @ reps, with E the
        N x F signed family incidence, whose columns are orthogonal with
        norm 2, so with reps = U S V^T from `rep_spectrum`,
        M = (E U / 2) (2 S) V^T is a thin SVD of M (Golub & Van Loan §2.4):
        sv = 2 S and u = E U / 2, both exact, and vt = V^T.  u then has
        min(F, dim) columns, not min(N, dim): the singular values past F
        are zero.  The rank thresholds are read off the whole matrix either
        way.  Any other map is decomposed itself.
        """
        m, families = self.matrix, self.families
        reps = m[families[:, 0]]
        # members in LogicalOp order, of signs +1, -1, +1, -1
        if len(m) != 4 * len(families) or not all(
                np.array_equal(m[families[:, j]], -reps if j % 2 else reps)
                for j in (1, 2, 3)):
            return numerics.Spectrum(m)
        rep = self.rep_spectrum
        half = rep.u / 2
        u = np.empty((len(m), half.shape[1]))
        u[families[:, 0::2]] = half[:, None]
        u[families[:, 1::2]] = -half[:, None]
        return numerics.Spectrum(m, (u, 2 * rep.sv, rep.vt))

    @cached_property
    def rep_spectrum(self) -> numerics.Spectrum:
        """The SVD of the representative rows, one per family in family
        order, computed on first read."""
        return numerics.Spectrum(self.matrix[self.families[:, 0]])

    @cached_property
    def families(self) -> np.ndarray:
        """The closure's (F, 4) family partition, computed on first read."""
        return compute_families(self.algebra)

    @cached_property
    def query_grid(self) -> Query:
        """The head, rel and tail of every query as flat read-only index
        arrays in the query order, computed on first read."""
        grid = np.indices((self.n, self.size, self.n)).reshape(3, -1)
        grid.flags.writeable = False
        return Query(*grid)


def _grid_order(queries, n: int, size: int) -> np.ndarray:
    """The argsort of the queries' grid positions, each position once."""
    coords = np.asarray(queries)
    if coords.shape[1:] != (3,) or coords.dtype.kind not in "iu":
        raise ValueError("queries must be [head, rel, tail] integer triples")
    # checked first: a tail of n would alias the next relation's tail 0
    if np.any(coords < 0) or np.any(coords >= (n, size, n)):
        raise ValueError("query coordinates off the closure's grid")
    positions = np.ravel_multi_index(coords.T, (n, size, n))
    if not np.array_equal(np.sort(positions), np.arange(n * size * n)):
        raise ValueError("queries must be each query of the closure once")
    return np.argsort(positions)


@dataclass(frozen=True, eq=False)
class LiftedOperator:
    """A renaming on the feature span: the orthogonal r x r `span` matrix in
    span coordinates, its `deviation` max |span span^T - I| from
    orthogonality, the renaming's query permutation `perm`, and `matrix`,
    the same operator on feature coordinates (zero off the span), computed
    on first read."""

    span: np.ndarray
    deviation: float
    fmap: FeatureMap = field(repr=False)
    perm: np.ndarray = field(repr=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        spec = self.fmap.spectrum
        r = spec.span_rank
        v_rt, s_r = spec.vt[:r], spec.sv[:r]
        return (v_rt.T * s_r) @ self.span @ (v_rt / s_r[:, None])


def check_logical_equivariance(fmap: FeatureMap, tol: float = 0.0) -> Report:
    """Negation flips features, reversal preserves them, family by family.

    `tol` defaults to exact zero, the right bound for maps built by
    construction; loaded or learned maps should pass a scaled tolerance.
    """
    rows, families = fmap.matrix, fmap.families
    _, neg, rev, _ = logical_images(fmap.algebra)  # LogicalOp order
    row_dev = np.maximum(np.max(np.abs(rows[neg] + rows), axis=1),
                         np.max(np.abs(rows[rev] - rows), axis=1))
    fam_dev = np.max(row_dev[families], axis=1)
    worst = float(np.max(fam_dev, initial=0.0))
    return Report(
        check="logical_equivariance",
        passed=worst <= tol,
        max_deviation=worst,
        details={"tol": tol, "n_families": len(families),
                 "families_failing": int(np.sum(fam_dev > tol))},
    )


def check_slp(fmap: FeatureMap) -> Report:
    """Rank of the representative rows must equal the family count.

    The rank is the span rank of the map's cached representative spectrum,
    decided at their own row scale.  Also reports the rank of the full
    orbit matrix (equal under equivariance), read off the map's cached
    spectrum, and the singular values bracketing the rank decision.
    """
    reps = fmap.rep_spectrum
    n_fam = len(reps.matrix)
    return Report(
        check="slp_rank",
        passed=reps.span_rank == n_fam,
        max_deviation=float(n_fam - reps.span_rank),
        details={"rep_rank": reps.span_rank, "n_families": n_fam,
                 "full_rank": fmap.spectrum.span_rank,
                 **reps.span_margin()},
    )


def check_family_kernel_decomposition(fmap: FeatureMap) -> Report:
    """Restricting a kernel vector to one family must keep it in the kernel.

    The kernel of the query -> feature map is the orthogonal complement of
    the range of the span projector P = U_k U_k^T, U_k = u[:, :kernel_rank],
    formed densely (N x N).  A family's coordinate projector maps the kernel
    into itself exactly when it commutes with P, that is when every entry
    P[i, j] with i in the family and j outside it is zero.  The check zeroes
    the within-family entries of |P|, the diagonal among them, and compares
    the largest remaining entry in each family's rows with PROJECTOR_TOL.
    `failing_families` names the representative of each family with a cross
    entry above it, in family order; `kernel_rank` holds the singular values
    on either side of the kernel's rank decision.
    """
    spec, families = fmap.spectrum, fmap.families
    u_k = spec.u[:, :spec.kernel_rank]
    cross = u_k @ u_k.T
    np.abs(cross, out=cross)
    cross[families[:, :, None], families[:, None, :]] = 0.0
    leak = np.max(np.max(cross, axis=1)[families], axis=1)
    tol = numerics.PROJECTOR_TOL
    failing = decode_queries(families[leak > tol, 0], fmap.n, fmap.size)
    return Report(
        check="family_kernel_decomposition",
        passed=not failing,
        max_deviation=float(np.max(leak, initial=0.0)),
        details={"kernel_dim": fmap.matrix.shape[0] - spec.kernel_rank,
                 "violations": len(failing), "tol": tol,
                 "kernel_rank": spec.kernel_margin(),
                 "failing_families": failing},
    )


def _query_permutation(fmap: FeatureMap, g: GroupElementH) -> np.ndarray:
    """index array: position i (query q) maps to position of g applied to q,
    from one renaming of the map's cached (head, rel, tail) index grid."""
    h, r, t = apply_renaming(g, fmap.query_grid, fmap.algebra)
    return (h * fmap.size + r) * fmap.n + t


def lift_renaming(fmap: FeatureMap, g: GroupElementH) -> LiftedOperator:
    """Descend a renaming to the feature span.

    With M = U_r S V_r^T on the span (r = span_rank), the lift is rho =
    U_r[perm]^T U_r in span coordinates and V_r S rho S^-1 V_r^T on feature
    coordinates, so matrix @ row(q) = row(g q).  rho is orthogonal exactly
    when the renaming preserves the kernel; the lift keeps max |rho rho^T -
    I| as its `deviation`, and above PROJECTOR_TOL no lift exists and a
    KernelNotInvariantError names g and the deviation (the usual cause is a
    non-equivariant or rank-deficient map).  A renaming of other than n
    entities is a ValueError.
    """
    if len(g.perm) != fmap.n:
        raise ValueError(f"renaming of {len(g.perm)} entities on a map over "
                         f"{fmap.n} entities")
    perm = _query_permutation(fmap, g)
    spec = fmap.spectrum
    r = spec.span_rank
    u_r = spec.u[:, :r]
    rho = u_r[perm].T @ u_r
    gram = rho @ rho.T
    gram.reshape(-1)[::r + 1] -= 1.0  # minus the identity, in place
    deviation = float(np.abs(gram, out=gram).max(initial=0.0))
    if deviation > numerics.PROJECTOR_TOL:
        raise KernelNotInvariantError(g, deviation)
    return LiftedOperator(span=rho, deviation=deviation, fmap=fmap, perm=perm)


def propagation_audit(fmap: FeatureMap, edited: int, eta: float) -> Report:
    """First-order score responses to a rank-one edit along the representative
    of family number `edited`, in [0, F) for F families.

    The edit moves parameters by eta times the representative's feature; the
    first-order score change of any query is then eta times the inner product
    of its feature with the representative's.  Within the edited family the
    responses must follow the signs exactly; responses on other families are
    reported, along with the representative Gram rank certifying that edits
    can separate families.
    """
    rows, families = fmap.matrix, fmap.families
    if not 0 <= edited < len(families):
        raise ValueError(f"edited must be in [0, {len(families)}), the "
                         f"family count, got {edited}")
    members = families[edited].tolist()  # in LogicalOp order
    delta = eta * rows[members[0]]
    responses = {op.value: float(np.dot(rows[p], delta))
                 for op, p in zip(LogicalOp, members)}
    base = responses["id"]
    neg_dev = abs(responses["neg"] + base)
    rev_dev = abs(responses["rev"] - base)
    negrev_dev = abs(responses["negrev"] + base)
    worst = max(neg_dev, rev_dev, negrev_dev)
    reps = families[:, 0]
    names = decode_queries(reps, fmap.n, fmap.size)
    others = {str(q): float(np.dot(rows[p], delta))
              for i, (q, p) in enumerate(zip(names, reps.tolist()))
              if i != edited}
    return Report(
        check="propagation_audit",
        passed=worst == 0.0,
        max_deviation=worst,
        details={"edited_family": names[edited], "eta": eta,
                 "responses": responses, "other_family_responses": others,
                 "gram_rank": fmap.rep_spectrum.gram_rank(),
                 "n_families": len(families)},
    )


# entries whose text one block holds at once: bounds a save's memory
_BLOCK_ENTRIES = 2 ** 16


def _row_texts(matrix: np.ndarray):
    """The repr texts of each row's entries, row by row, formatted a block
    of rows at a time."""
    step = max(1, _BLOCK_ENTRIES // matrix.shape[1])
    for start in range(0, len(matrix), step):
        # a block's arrays are freed when _block_texts returns, and its rows
        # are lists: a row of the array that the caller still held would
        # keep the whole block alive while the next one is formatted
        yield from _block_texts(matrix[start:start + step]).tolist()


def _block_texts(block: np.ndarray) -> np.ndarray:
    """The repr text of each entry of `block`, as an object array.

    A sign-linked map repeats each magnitude up to sign, so each distinct
    magnitude is formatted once: repr(-x) == "-" + repr(x) for every finite
    float, -0.0 included.
    """
    mags, inverse = np.unique(np.abs(block).ravel(), return_inverse=True)
    texts = list(map(repr, mags.tolist()))
    table = np.array(texts + ["-" + t for t in texts], dtype=object)
    inverse += len(texts) * np.signbit(block).ravel()
    return table[inverse].reshape(block.shape)


def save_feature_map(fmap: FeatureMap, path: str | Path,
                     fmt: str = "json") -> None:
    """Persist matrix + row queries; base relations travel in the sidecar.

    fmt="json" writes one file, json.dumps(doc, sort_keys=True) + "\n";
    fmt="csv" writes the matrix as excel-dialect CSV rows ending in "\r\n"
    and the rest as a sidecar <path>.index.json.  Every float is written as
    its repr, its shortest exact form.  The sidecar stores entity labels and
    base relation pairs so the deterministic closure can be rebuilt on load.
    """
    # base relations are an ordered list: closure order, and with it the
    # relation indices stored in the queries, must survive the round trip
    sidecar = {
        "entities": list(fmap.algebra.entity_set.labels),
        "base_relations": [
            {"name": r.name or f"r{i}", "pairs": [[h, t] for h, t in r.pairs()]}
            for i, r in enumerate(fmap.algebra.base)
        ],
        "queries": decode_queries(np.arange(fmap.matrix.shape[0]), fmap.n,
                                  fmap.size),
    }
    path = Path(path)
    if fmt == "json":
        # json.dumps lays out the document; the matrix is written in the
        # place of a stand-in value, a block of rows at a time
        head, _, tail = json.dumps({**sidecar, "matrix": 0},
                                   sort_keys=True).partition('"matrix": 0')
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head + '"matrix": [')
            fh.writelines(f"{', ' if i else ''}[{', '.join(row)}]"
                          for i, row in enumerate(_row_texts(fmap.matrix)))
            fh.write("]" + tail + "\n")
    elif fmt == "csv":
        # repr never holds a delimiter, quote or line break, so csv.writer
        # would quote nothing
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(",".join(row) + "\r\n" for row in
                          _row_texts(fmap.matrix.astype(float, copy=False)))
        Path(f"{path}.index.json").write_text(
            json.dumps(sidecar, sort_keys=True) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown feature-map format {fmt!r}")


def load_feature_map(path: str | Path, fmt: str = "json") -> FeatureMap:
    path = Path(path)
    if fmt == "json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        matrix = np.asarray(doc["matrix"], dtype=float)
        sidecar = doc
    elif fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            matrix = np.asarray([np.fromiter(map(float, row), float, len(row))
                                 for row in csv.reader(fh)], dtype=float)
        sidecar = json.loads(Path(f"{path}.index.json").read_text(encoding="utf-8"))
    else:
        raise ValueError(f"unknown feature-map format {fmt!r}")

    entity_set = EntitySet(tuple(sidecar["entities"]))
    base = [Relation.from_pairs(entity_set, rec["pairs"], rec["name"])
            for rec in sidecar["base_relations"]]
    return FeatureMap(close_unary(base), matrix, sidecar["queries"])
