"""Linearized feature geometry over a query space.

A feature map assigns every query a row vector (the score gradient of a
linearized model at its base point).  The checks here are the two halves of
the structured-linear property: logical equivariance (negation flips the
feature, reversal preserves it) and linear independence of one representative
feature per logical family.  On maps with both properties, entity renamings
acting on query coordinates descend to well-defined linear operators on the
feature span: orthogonal matrices in the span coordinates of the map's SVD,
whose feature-coordinate forms vanish off the span.

A FeatureMap holds a read-only copy of its matrix and caches its query index
and one SVD (`numerics.Spectrum`), so the kernel, the span basis and every
lift of one map read a single factorization.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import numerics
from .queryspace import (GroupElementH, LogicalFamily, LogicalOp, Query,
                         apply_logical, apply_renaming, enumerate_queries,
                         logical_images)
from .relalg import EntitySet, Relation, RelationAlgebra, close_unary
from .reports import Report


class KernelNotInvariantError(RuntimeError):
    """Renaming does not preserve the kernel; no lifted operator exists."""

    def __init__(self, renaming: GroupElementH, deviation: float) -> None:
        super().__init__(f"renaming {renaming} does not preserve the kernel "
                         f"(orthogonality deviation {deviation})")
        self.renaming = renaming
        self.deviation = deviation


@dataclass(frozen=True)
class FeatureMap:
    """Rows of `matrix` are feature vectors, aligned with `queries`."""

    queries: tuple[Query, ...]
    matrix: np.ndarray
    _index: dict = field(init=False, repr=False, compare=False)
    _spectrum: numerics.Spectrum | None = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix)   # a copy: the caches below depend on it
        if m.ndim != 2 or m.shape[0] != len(self.queries):
            raise ValueError("matrix shape does not match the query index")
        if m.shape[1] < 1:
            raise ValueError("feature dimension must be at least 1")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite feature entries")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_index",
                           {q: i for i, q in enumerate(self.queries)})
        object.__setattr__(self, "_spectrum", None)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def index(self) -> dict[Query, int]:
        """Query -> row position; the cached dict, not to be modified."""
        return self._index

    def spectrum(self) -> numerics.Spectrum:
        """The matrix's SVD, computed on first use."""
        if self._spectrum is None:
            object.__setattr__(self, "_spectrum",
                               numerics.Spectrum(self.matrix))
        return self._spectrum

    def row(self, q: Query) -> np.ndarray:
        return self.matrix[self.index()[q]]


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal kernel vectors (rows) over the query coordinates."""

    basis: np.ndarray
    tol: float

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])


@dataclass(frozen=True)
class LiftedOperator:
    """A renaming on the feature span: the orthogonal r x r `span` matrix in
    span coordinates, and `matrix`, the same operator on feature coordinates
    (zero off the span).  `matrix` and `residual`, max |M matrix^T - M[perm]|
    over the map M, are computed on first read."""

    source: GroupElementH
    span: np.ndarray
    fmap: FeatureMap = field(repr=False)
    perm: np.ndarray = field(repr=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        spec = self.fmap.spectrum()
        r = spec.span_rank
        v_rt, s_r = spec.vt[:r], spec.sv[:r]
        return (v_rt.T * s_r) @ self.span @ (v_rt / s_r[:, None])

    @cached_property
    def residual(self) -> float:
        m = self.fmap.matrix
        return float(np.max(np.abs(m @ self.matrix.T - m[self.perm]),
                            initial=0.0))


def check_logical_equivariance(fmap: FeatureMap,
                               families: Sequence[LogicalFamily],
                               algebra: RelationAlgebra,
                               tol: float = 0.0) -> Report:
    """Negation flips features, reversal preserves them, family by family.

    `tol` defaults to exact zero, the right bound for maps built by
    construction; loaded or learned maps should pass a scaled tolerance.
    `families` must be the partition `compute_families(algebra)`.
    """
    rows = grid_rows(fmap, algebra)
    images = logical_images(algebra)
    _, neg, rev, _ = images  # rows follow LogicalOp order
    row_dev = np.maximum(np.max(np.abs(rows[neg] + rows), axis=1),
                         np.max(np.abs(rows[rev] - rows), axis=1))
    n, size = algebra.entity_set.n, algebra.size
    reps = [(h * size + r) * n + t for h, r, t in
            (f.representative for f in families)]
    fam_dev = np.max(row_dev[images[:, reps]], axis=0)
    worst = float(np.max(fam_dev, initial=0.0))
    return Report(
        check="logical_equivariance",
        passed=worst <= tol,
        max_deviation=worst,
        details={"tol": tol, "n_families": len(families),
                 "families_failing": int(np.sum(fam_dev > tol))},
    )


def grid_rows(fmap: FeatureMap, algebra: RelationAlgebra) -> np.ndarray:
    """The map's rows in `enumerate_queries(algebra)` order."""
    return fmap.matrix[list(map(fmap.index().__getitem__,
                                enumerate_queries(algebra)))]


def representative_matrix(fmap: FeatureMap,
                          families: Sequence[LogicalFamily]) -> np.ndarray:
    idx = fmap.index()
    return fmap.matrix[[idx[f.representative] for f in families]]


def check_slp(fmap: FeatureMap, families: Sequence[LogicalFamily]) -> Report:
    """Rank of the representative submatrix must equal the family count.

    Also reports the rank of the full orbit matrix (equal under equivariance)
    and the singular values bracketing the rank decision.
    """
    reps = representative_matrix(fmap, families)
    sv = numerics.singular_values(reps)
    threshold = numerics.rank_threshold(reps)
    rep_rank = int(np.sum(sv > threshold))
    full_rank = numerics.rank(fmap.matrix)
    n_fam = len(families)
    return Report(
        check="slp_rank",
        passed=rep_rank == n_fam,
        max_deviation=float(n_fam - rep_rank),
        details={"rep_rank": rep_rank, "n_families": n_fam,
                 "full_rank": full_rank,
                 **numerics.rank_margin(sv, threshold)},
    )


def kernel(fmap: FeatureMap) -> KernelBasis:
    """Null space of the map from query coordinates to feature space.

    The map sends the unit vector of q to row(q); its matrix is the transpose
    of the feature matrix, so kernel vectors are coefficient vectors over
    queries whose weighted feature sum vanishes.
    """
    spec = fmap.spectrum()
    basis, tol = spec.kernel_basis, spec.span_threshold
    if np.any(spec.kernel_residuals > tol):
        raise AssertionError("kernel basis vector fails the residual bound")
    return KernelBasis(basis, tol)


def check_family_kernel_decomposition(fmap: FeatureMap,
                                      families: Sequence[LogicalFamily]) -> Report:
    """Each kernel vector's restriction to a single family must stay in the kernel.

    Restrictions that are all zero are skipped; the rest are checked one
    family at a time, all kernel vectors in one matmul.  `kernel_rank` holds
    the singular values on either side of the kernel's rank decision.
    """
    idx = fmap.index()
    ker = kernel(fmap)
    tol = ker.tol
    worst = 0.0
    violations = 0
    for fam in families:
        rows = [idx[q] for q in fam.members]
        restricted = ker.basis[:, rows]
        devs = np.linalg.norm(restricted @ fmap.matrix[rows], axis=1)
        devs = devs[np.any(restricted != 0.0, axis=1)]
        if devs.size:
            worst = max(worst, float(np.max(devs)))
        violations += int(np.sum(devs > tol))
    return Report(
        check="family_kernel_decomposition",
        passed=violations == 0,
        max_deviation=worst,
        details={"kernel_dim": ker.dim, "violations": violations, "tol": tol,
                 "kernel_rank": fmap.spectrum().kernel_margin()},
    )


def _query_permutation(fmap: FeatureMap, g: GroupElementH,
                       algebra: RelationAlgebra) -> np.ndarray:
    """index array: position i (query q) maps to position of g applied to q."""
    idx = fmap.index()
    out = np.empty(len(fmap.queries), dtype=int)
    for i, q in enumerate(fmap.queries):
        out[i] = idx[apply_renaming(g, q, algebra)]
    return out


def lift_renaming(fmap: FeatureMap, g: GroupElementH,
                  algebra: RelationAlgebra) -> LiftedOperator:
    """Descend a renaming to the feature span.

    With M = U_r S V_r^T on the span (r = span_rank), the lift is rho =
    U_r[perm]^T U_r in span coordinates and V_r S rho S^-1 V_r^T on feature
    coordinates, so matrix @ row(q) = row(g q).  rho is orthogonal exactly
    when the renaming preserves the kernel; otherwise no lift exists and a
    KernelNotInvariantError names g and max |rho rho^T - I| (the usual cause
    is a non-equivariant or rank-deficient map).
    """
    perm = _query_permutation(fmap, g, algebra)
    spec = fmap.spectrum()
    r = spec.span_rank
    u_r = spec.u[:, :r]
    rho = u_r[perm].T @ u_r
    deviation = float(np.max(np.abs(rho @ rho.T - np.eye(r)), initial=0.0))
    if deviation > numerics.PROJECTOR_TOL:
        raise KernelNotInvariantError(g, deviation)
    return LiftedOperator(source=g, span=rho, fmap=fmap, perm=perm)


def propagation_audit(fmap: FeatureMap, families: Sequence[LogicalFamily],
                      algebra: RelationAlgebra, family_index: int,
                      eta: float) -> Report:
    """First-order score responses to a rank-one edit along one representative.

    The edit moves parameters by eta times the representative's feature; the
    first-order score change of any query is then eta times the inner product
    of its feature with the representative's.  Within the edited family the
    responses must follow the signs exactly; responses on other families are
    reported, along with the representative Gram rank certifying that edits
    can separate families.
    """
    fam = families[family_index]
    rep = fam.representative
    delta = eta * fmap.row(rep)
    responses = {}
    for op in LogicalOp:
        q = apply_logical(op, rep, algebra)
        responses[op.value] = float(np.dot(fmap.row(q), delta))
    base = responses["id"]
    neg_dev = abs(responses["neg"] + base)
    rev_dev = abs(responses["rev"] - base)
    negrev_dev = abs(responses["negrev"] + base)
    worst = max(neg_dev, rev_dev, negrev_dev)
    others = {}
    for i, other in enumerate(families):
        if i == family_index:
            continue
        others[str(list(other.representative))] = float(
            np.dot(fmap.row(other.representative), delta))
    reps = representative_matrix(fmap, families)
    gram_rank = numerics.rank(reps @ reps.T)
    return Report(
        check="propagation_audit",
        passed=worst == 0.0,
        max_deviation=worst,
        details={"edited_family": list(rep), "eta": eta,
                 "responses": responses, "other_family_responses": others,
                 "gram_rank": gram_rank, "n_families": len(families)},
    )


def save_feature_map(fmap: FeatureMap, algebra: RelationAlgebra,
                     path: str | Path, fmt: str = "json") -> None:
    """Persist matrix + query index; base relations travel in the sidecar.

    fmt="json" writes one file; fmt="csv" writes the matrix as CSV and the
    index as a sidecar <path>.index.json.  The index stores entity labels and
    base relation pairs so the deterministic closure can be rebuilt on load.
    """
    # base relations are an ordered list: closure order, and with it the
    # relation indices stored in the queries, must survive the round trip
    sidecar = {
        "entities": list(algebra.entity_set.labels),
        "base_relations": [
            {"name": r.name or f"r{i}", "pairs": [[h, t] for h, t in r.pairs()]}
            for i, r in enumerate(algebra.base)
        ],
        "queries": [[q.head, q.rel, q.tail] for q in fmap.queries],
    }
    path = Path(path)
    if fmt == "json":
        doc = dict(sidecar)
        doc["matrix"] = fmap.matrix.tolist()
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    elif fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for row in fmap.matrix:
                # repr of a Python float is its shortest exact form
                writer.writerow([repr(float(x)) for x in row])
        Path(f"{path}.index.json").write_text(
            json.dumps(sidecar, sort_keys=True) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown feature-map format {fmt!r}")


def load_feature_map(path: str | Path,
                     fmt: str = "json") -> tuple[FeatureMap, RelationAlgebra]:
    path = Path(path)
    if fmt == "json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        matrix = np.asarray(doc["matrix"], dtype=float)
        sidecar = doc
    elif fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            matrix = np.asarray([[float(x) for x in row]
                                 for row in csv.reader(fh)], dtype=float)
        sidecar = json.loads(Path(f"{path}.index.json").read_text(encoding="utf-8"))
    else:
        raise ValueError(f"unknown feature-map format {fmt!r}")

    entity_set = EntitySet(tuple(sidecar["entities"]))
    base = [Relation.from_pairs(entity_set,
                                [(h, t) for h, t in rec["pairs"]], rec["name"])
            for rec in sidecar["base_relations"]]
    algebra = close_unary(base)
    queries = tuple(Query(*q) for q in sidecar["queries"])
    if sorted(queries) != list(enumerate_queries(algebra)):
        raise ValueError("queries must be each query of the closure once")
    return FeatureMap(queries, matrix), algebra
