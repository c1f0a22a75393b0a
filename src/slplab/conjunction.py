"""Conjunctive compounds over atomic queries, and the collapse mechanism.

A compound query has one normal form, a sorted tuple of distinct literals
(negated, atom), which hard-codes the lattice laws: conjunction is the union
of literal sets (associative, commutative, and idempotent, so p AND p
normalizes to p), and negation flips the sign of one literal, so double
negation is eliminated.  Negation applies to literals only, so the closure
of a set of atoms is every nonempty set of its literals and stabilizes at
depth 2.  Inside a check, each literal of the support gets one bit, and the
conjunction of two support elements is the bitwise OR of their codes.

Conjunction with a context is well defined on features only if it maps the
kernel of the support -> feature map into itself, i.e. if the substituted
feature matrix keeps its columns in the span of the feature matrix's
columns (`check_kernel_stability`).  Then it is a symmetric bilinear
operator F with F(feature(p), feature(q)) = feature(p AND q) on realized
pairs.  Fitting F is a linear least-squares problem; idempotence makes
F(u, u) = u for every literal feature u, and if negation also flips feature
signs then F(u, u) must simultaneously equal u and -u, which is impossible
unless u = 0.  The collapse certificate measures exactly that obstruction:
the minimum total squared violation is 2 * sum of squared feature norms,
attained at F = 0.  A possible-worlds assignment (0/1 truth values per
world, conjunction = elementwise product, negation = 1 - x) satisfies
consistency without sign equivariance and keeps the feasible regime honest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import numerics
from .queryspace import Query
from .relalg import RelationAlgebra, witnesses
from .reports import Report


@dataclass(frozen=True, order=True)
class Compound:
    """A literal or a conjunction, as a sorted tuple of distinct literals.

    A literal is (negated, query).  The field order makes the dataclass
    order put atoms before negated atoms, literals before conjunctions, and
    conjunctions in lexicographic order of their literals.
    """

    is_conj: bool
    literals: tuple[tuple[bool, Query], ...]


def atom(q: Query) -> Compound:
    return Compound(False, ((False, q),))


def neg(x: Compound) -> Compound:
    """Flip the sign of a literal; negating twice gives the literal back."""
    if x.is_conj:
        raise ValueError("negation applies to literals only")
    ((negated, q),) = x.literals
    return Compound(False, ((not negated, q),))


def conj(*items: Compound) -> Compound:
    """Normalized conjunction: the sorted union of the inputs' literals."""
    literals = tuple(sorted({lit for x in items for lit in x.literals}))
    if not literals:
        raise ValueError("conjunction needs at least one conjunct")
    return Compound(len(literals) > 1, literals)


def is_literal(x: Compound) -> bool:
    return not x.is_conj


def close_conjunction(atoms: Sequence[Query], depth: int = 2) -> tuple[Compound, ...]:
    """Normal-form closure of the atoms under negation and conjunction.

    Level 1 holds the literals (atoms and negated atoms); level 2 holds all
    conjunctions of two or more distinct literals.  Because a conjunction of
    conjunctions is again a literal set, any depth bound >= 2 closes to the
    same set; the bound is still honored literally for depth 1.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    literals = sorted({(negated, q) for q in atoms for negated in (False, True)})
    out = [Compound(False, (lit,)) for lit in literals]
    if depth >= 2:
        out += [Compound(True, combo) for size in range(2, len(literals) + 1)
                for combo in itertools.combinations(literals, size)]
    out.sort()
    return tuple(out)


def unique_witness_reduce(algebra: RelationAlgebra, rel_r: int, rel_s: int,
                          head: int, tail: int) -> tuple[Compound | None, int]:
    """Rewrite a composed query as a conjunction when the witness is unique.

    (head, r;s, tail) holds through a middle entity b; with exactly one such
    b the composition collapses to (head, r, b) AND (b, s, tail).  Returns
    (compound, witness count); the compound is None unless the count is 1.
    """
    mids = witnesses(algebra.closed[rel_r], algebra.closed[rel_s], head, tail)
    if len(mids) != 1:
        return None, len(mids)
    b = next(iter(mids))
    return conj(atom(Query(head, rel_r, b)), atom(Query(b, rel_s, tail))), 1


def _pair_images(codes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Support index of conj(order[a], order[b]), or -1 outside the support.

    `codes` is `ConjFeatureAssignment.codes`: a conjunction is the bitwise
    OR of two codes, looked up by binary search.
    """
    sorter = np.argsort(codes)
    want = codes[a] | codes[b]
    pos = np.minimum(np.searchsorted(codes, want, sorter=sorter), len(codes) - 1)
    found = sorter[pos]
    return np.where(codes[found] == want, found, -1)


@dataclass(frozen=True)
class ConjFeatureAssignment:
    """Feature vectors over a finite set of normal-form compounds."""

    features: dict
    dim: int

    @classmethod
    def build(cls, features: Mapping) -> "ConjFeatureAssignment":
        if not features:
            raise ValueError("empty assignment")
        dims = {np.asarray(v).shape for v in features.values()}
        if len(dims) != 1 or len(next(iter(dims))) != 1:
            raise ValueError("features must be vectors of one common dimension")
        clean = {k: np.asarray(v, dtype=float) for k, v in features.items()}
        for k, v in clean.items():
            if not np.all(np.isfinite(v)):
                raise ValueError(f"non-finite feature for {k}")
        if len({lit for x in clean for lit in x.literals}) > 63:
            raise ValueError("a support holds at most 63 distinct literals")
        return cls(clean, next(iter(dims))[0])

    @cached_property
    def order(self) -> tuple[Compound, ...]:
        return tuple(sorted(self.features))

    @cached_property
    def codes(self) -> np.ndarray:
        """One int64 per support element, the OR of one bit per literal."""
        literals = sorted({lit for x in self.order for lit in x.literals})
        bits = {lit: 1 << i for i, lit in enumerate(literals)}
        return np.array([sum(bits[lit] for lit in x.literals)
                         for x in self.order], dtype=np.int64)

    def matrix(self) -> np.ndarray:
        return np.stack([self.features[p] for p in self.order])


def check_kernel_stability(assignment: ConjFeatureAssignment) -> Report:
    """Conjunction-with-a-context must map the kernel into the kernel.

    Every support element serves as a context.  For context c, the
    substitution operator S_c sends the unit vector of p to the unit vector
    of normalize(p AND c).  A context is skipped when any support element's
    image leaves the truncated support (the skip is reported, never silently
    ignored).  The kernel of the support -> feature map is the orthogonal
    complement of col(matrix), so S_c preserves it exactly when every column
    of G = matrix[images[c]] lies in col(matrix).  One thin SVD gives the
    span basis B at the kernel threshold rank_threshold(matrix.T), whose
    margin is `kernel_rank`; a context's deviation is the largest column
    norm of G - B (B.T G).  `pairs_checked` counts kernel vectors times
    checked contexts.
    """
    order = assignment.order
    matrix = assignment.matrix()
    u, sv, _ = np.linalg.svd(matrix, full_matrices=False)
    threshold = numerics.rank_threshold(matrix.T)
    basis = u[:, :int(np.sum(sv > threshold))]
    kernel_dim = len(order) - basis.shape[1]
    tol = numerics.rank_threshold(matrix)
    index = np.arange(len(order))
    images = _pair_images(assignment.codes, index[:, None], index)
    missing = np.count_nonzero(images < 0, axis=1)
    worst = 0.0
    violations = []
    for c in np.flatnonzero(missing == 0):
        gathered = matrix[images[c]]  # S_c applied as a row gather
        outside = gathered - basis @ (basis.T @ gathered)
        dev = float(np.max(np.linalg.norm(outside, axis=0), initial=0.0))
        worst = max(worst, dev)
        if dev > tol:
            violations.append({"context": repr(order[c]), "residual": dev})
    contexts_checked = int(np.count_nonzero(missing == 0))
    return Report(
        check="kernel_stability",
        passed=not violations,
        max_deviation=worst,
        details={"kernel_dim": kernel_dim,
                 "kernel_rank": numerics.rank_margin(sv, threshold),
                 "contexts_checked": contexts_checked,
                 "contexts_skipped": len(order) - contexts_checked,
                 "pairs_skipped": int(missing.sum()),
                 "pairs_checked": kernel_dim * contexts_checked,
                 "violations": violations, "tol": tol},
    )


@dataclass(frozen=True)
class BilinearOperator:
    """Symmetric-in-inputs bilinear map, stored as a (d, d, d) tensor."""

    tensor: np.ndarray

    def apply(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("cab,a,b->c", self.tensor, u, v)


def _triangle_design(outer: np.ndarray) -> np.ndarray:
    """Rows of the least-squares system for a symmetric bilinear unknown.

    Unknowns are the upper-triangle tensor entries T[c, a, b] with a <= b;
    given outer products u v^T, the coefficient of T[., a, b] in F(u, v) is
    u_a v_b + u_b v_a off the diagonal and u_a v_a on it.
    """
    rows_idx, cols_idx = np.triu_indices(outer.shape[1])
    design = outer[:, rows_idx, cols_idx] + outer[:, cols_idx, rows_idx]
    design[:, rows_idx == cols_idx] /= 2.0
    return design


def _triangle_tensor(x: np.ndarray, d: int) -> np.ndarray:
    rows_idx, cols_idx = np.triu_indices(d)
    tensor = np.zeros((d, d, d))
    tensor[:, rows_idx, cols_idx] = x.T
    tensor[:, cols_idx, rows_idx] = x.T
    return tensor


@dataclass(frozen=True)
class FitResult:
    operator: BilinearOperator
    max_residual: float
    uniqueness_gap: float
    n_constraints: int
    n_pairs_skipped: int


def fit_bilinear(assignment: ConjFeatureAssignment) -> FitResult:
    """Least-squares symmetric bilinear operator matching realized pairs.

    Constraints run over unordered support pairs (p, q) whose normalized
    conjunction stays in the support (p = q included, which encodes
    idempotence).  One outer product u v^T per pair feeds the triangle
    design and an independent second fit over all d*d coefficients.  The
    operator is only determined on the realized span, so `uniqueness_gap`
    compares the two fits there: both are read through the triangle design,
    the second after symmetrizing.
    """
    order = assignment.order
    matrix = assignment.matrix()
    aa, bb = np.triu_indices(len(order))
    images = _pair_images(assignment.codes, aa, bb)
    realized = images >= 0
    ii, jj, kk = aa[realized], bb[realized], images[realized]
    skipped = len(aa) - len(ii)
    if not ii.size:
        raise ValueError("no realized conjunction pairs inside the support")
    ws = matrix[kk]
    d = assignment.dim
    outer = matrix[ii][:, :, None] * matrix[jj][:, None, :]

    design = _triangle_design(outer)
    x = numerics.minnorm_lstsq(design, ws)
    operator = BilinearOperator(_triangle_tensor(x, d))
    predicted = design @ x
    max_residual = float(np.max(np.abs(predicted - ws)))

    x_full = numerics.minnorm_lstsq(outer.reshape(len(ii), d * d), ws)
    tensor_full = x_full.T.reshape(d, d, d)
    rows_idx, cols_idx = np.triu_indices(d)
    x_other = (tensor_full[:, rows_idx, cols_idx] +
               tensor_full[:, cols_idx, rows_idx]).T / 2.0
    gap = float(np.max(np.abs(predicted - design @ x_other)))
    return FitResult(operator, max_residual, gap, len(ii), skipped)


@dataclass(frozen=True)
class CollapseCertificate:
    """Least-squares obstruction to idempotence under sign-flip negation."""

    residual: float
    residual_sq: float
    verdict: str
    margin: float
    feature_norms: tuple[float, ...]
    enforce_neg_equiv: bool
    tolerance: float

    def to_dict(self) -> dict:
        return {"residual": self.residual, "residual_sq": self.residual_sq,
                "verdict": self.verdict, "margin": self.margin,
                "feature_norms": list(self.feature_norms),
                "enforce_neg_equiv": self.enforce_neg_equiv,
                "tolerance": self.tolerance}


def collapse_certificate(atom_features: Sequence[np.ndarray],
                         enforce_neg_equiv: bool = True,
                         tolerance: float = 1e-8) -> CollapseCertificate:
    """Minimum violation of {F(u,u) = u} (+ {F(-u,-u) = -u} under the flag).

    Bilinearity makes F(-u,-u) = F(u,u), so the flagged system wants F(u,u)
    to equal both u and -u; the best compromise is F(u,u) = 0 with squared
    residual 2|u|^2 per atom, and the least-squares solve reproduces that
    analytic floor.  Without the flag the system is feasible for any features
    a diagonal operator can fix, e.g. 0/1 truth vectors.
    """
    feats = [np.asarray(u, dtype=float) for u in atom_features]
    if not feats:
        raise ValueError("need at least one atom feature")
    d = feats[0].shape[0]
    if any(u.shape != (d,) for u in feats):
        raise ValueError("atom features must share one dimension")
    us = np.stack(feats)
    design_rows = _triangle_design(us[:, :, None] * us[:, None, :])
    targets = us
    if enforce_neg_equiv:
        design_rows = np.concatenate([design_rows, design_rows], axis=0)
        targets = np.concatenate([us, -us], axis=0)
    x = numerics.minnorm_lstsq(design_rows, targets)
    residual_sq = float(np.sum((design_rows @ x - targets) ** 2))
    residual = float(np.sqrt(residual_sq))
    feasible = residual <= tolerance
    return CollapseCertificate(
        residual=residual, residual_sq=residual_sq,
        verdict="feasible" if feasible else "infeasible",
        margin=0.0 if feasible else residual,
        feature_norms=tuple(float(np.linalg.norm(u)) for u in feats),
        enforce_neg_equiv=enforce_neg_equiv, tolerance=tolerance,
    )


def possible_worlds_assignment(n_atoms: int, n_worlds: int, seed: int,
                               depth: int = 2) -> tuple[ConjFeatureAssignment,
                                                        tuple[Query, ...]]:
    """Reference model: one 0/1 coordinate per world.

    Conjunction is the elementwise product and negation is 1 - x, so the
    assignment is conjunction-consistent and kernel-stable but deliberately
    not sign-equivariant.  Atoms are synthetic relation slots.
    """
    rng = np.random.default_rng(seed)
    atoms = tuple(Query(0, i, 0) for i in range(n_atoms))
    truth = rng.integers(0, 2, size=(n_atoms, n_worlds)).astype(float)

    def evaluate(x: Compound) -> np.ndarray:
        prod = np.ones(n_worlds)
        for negated, q in x.literals:
            prod = prod * (1.0 - truth[q.rel] if negated else truth[q.rel])
        return prod

    closure = close_conjunction(atoms, depth)
    features = {p: evaluate(p) for p in closure}
    return ConjFeatureAssignment.build(features), atoms
