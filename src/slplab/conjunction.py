"""Conjunctive compounds over atomic queries, and the collapse mechanism.

A compound query has one normal form, a sorted tuple of distinct literals
(negated, atom), which hard-codes the lattice laws: conjunction is the union
of literal sets (associative, commutative, and idempotent, so p AND p
normalizes to p), and negation flips the sign of one literal, so double
negation is eliminated.  Negation applies to literals only, so the closure
of a set of atoms is every nonempty set of its literals and stabilizes at
depth 2.  Inside a check, each literal of the support gets one bit, and the
image of a pair is the support element whose code is the OR of theirs.

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
        if len({lit for x in clean for lit in x.literals}) > 25:
            raise ValueError("a support holds at most 25 distinct literals")
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

    @cached_property
    def lookup(self) -> np.ndarray:
        """Support index of each of the 2^k literal codes (k <= 25), -1
        outside the support; a pair's image is lookup[codes[a] | codes[b]]."""
        table = np.full(int(np.bitwise_or.reduce(self.codes)) + 1, -1)
        table[self.codes] = np.arange(len(self.codes))
        return table

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
    of G = matrix[images] lies in col(matrix).  The matrix's thin SVD
    (`numerics.Spectrum`) gives the span basis B = u[:, :kernel_rank] at the
    kernel threshold rank_threshold(matrix.T), whose margin is `kernel_rank`;
    a context's deviation is the largest column norm of G - B (B.T G),
    compared with the span threshold rank_threshold(matrix).
    `pairs_checked` counts kernel vectors times checked contexts.
    """
    order = assignment.order
    matrix = assignment.matrix()
    spec = numerics.Spectrum(matrix)
    basis = spec.u[:, :spec.kernel_rank]
    kernel_dim = len(order) - spec.kernel_rank
    tol = spec.span_threshold
    worst = 0.0
    violations = []
    missing = []
    for c, code in enumerate(assignment.codes):
        images = assignment.lookup[assignment.codes | code]
        missing.append(int(np.count_nonzero(images < 0)))
        if missing[-1]:
            continue
        gathered = matrix[images]  # S_c applied as a row gather
        outside = gathered - basis @ (basis.T @ gathered)
        dev = float(np.max(np.linalg.norm(outside, axis=0), initial=0.0))
        worst = max(worst, dev)
        if dev > tol:
            violations.append({"context": repr(order[c]), "residual": dev})
    contexts_checked = missing.count(0)
    return Report(
        check="kernel_stability",
        passed=not violations,
        max_deviation=worst,
        details={"kernel_dim": kernel_dim,
                 "kernel_rank": spec.kernel_margin(),
                 "contexts_checked": contexts_checked,
                 "contexts_skipped": len(order) - contexts_checked,
                 "pairs_skipped": sum(missing),
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
    n_groups: int
    worst_pair: tuple[Compound, Compound, Compound]


# Candidate pairs per block of support rows (one row at least, if a row
# holds more): the pair walk's arrays are at most this many pairs long.
PAIR_BLOCK = 1 << 16


def _pair_blocks(assignment: ConjFeatureAssignment):
    """Realized pairs a <= b with their images, in np.triu_indices order.

    Yields (a, b, image, skipped) per block of support rows, where skipped
    counts the block's triangle pairs whose image leaves the support.
    """
    codes = assignment.codes
    n = len(codes)
    step = max(1, PAIR_BLOCK // n)
    cols = np.arange(n)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        images = assignment.lookup[codes[rows, None] | codes]
        aa, bb = np.nonzero((cols >= rows[:, None]) & (images >= 0))
        kk = images[aa, bb]
        yield aa + start, bb, kk, int(np.sum(n - rows)) - len(kk)


def fit_bilinear(assignment: ConjFeatureAssignment) -> FitResult:
    """Least-squares symmetric bilinear operator matching realized pairs.

    Constraints run over unordered support pairs (p, q) whose normalized
    conjunction stays in the support (p = q included, which encodes
    idempotence), each asking F(u, v) = w for the features u, v of p, q
    and w of their image.  Pairs whose feature rows are equal give equal
    design rows, so the solve runs over groups of pairs, never over pairs:
    the rows of `matrix` get ids from np.unique, and one walk over the
    pairs in blocks of support rows (`PAIR_BLOCK`) sums each group's count
    c and targets into direct-address arrays over the m^2 ordered row-id
    pairs.  A group enters as one design row and target mean, both scaled
    by sqrt(c); that changes the pair objective only by a constant, so the
    normal equations, and with them the minimum-norm solution, are the
    pairs' own (weighted least squares).

    The triangle design is symmetric in u and v, so the symmetric fit
    groups unordered row-id pairs (`n_groups`).  An independent second fit
    over all d*d coefficients sees u v^T, which is not symmetric, so it
    groups ordered ones.  The operator is only determined on the realized
    span, so `uniqueness_gap` compares the two fits there: both are read
    through the triangle design, the second after symmetrizing, on every
    distinct triangle row, which is the maximum over all pairs.  A second
    walk takes `max_residual` over every pair, not over group means, and
    `worst_pair` names the first pair (p, q, image) that reaches it.
    """
    order = assignment.order
    matrix = assignment.matrix()
    d = assignment.dim
    values, row_id = np.unique(matrix, axis=0, return_inverse=True)
    row_id = row_id.reshape(-1)
    m = len(values)
    columns = np.ascontiguousarray(matrix.T)  # one gather per world
    counts = np.zeros(m * m, dtype=np.int64)
    sums = np.zeros((d, m * m))
    n_constraints = skipped = 0
    for aa, bb, kk, missed in _pair_blocks(assignment):
        keys = row_id[aa] * m + row_id[bb]
        counts += np.bincount(keys, minlength=m * m)
        for total, column in zip(sums, columns):
            total += np.bincount(keys, weights=column[kk], minlength=m * m)
        n_constraints += len(kk)
        skipped += missed
    if not n_constraints:
        raise ValueError("no realized conjunction pairs inside the support")
    counts = counts.reshape(m, m)
    sums = sums.T.reshape(m, m, d)

    gi, gj = np.nonzero(np.triu(counts + counts.T))
    off = gi != gj  # an off-diagonal group gathers both orders
    weight = np.sqrt(counts[gi, gj] + off * counts[gj, gi])[:, None]
    target_sums = sums[gi, gj] + off[:, None] * sums[gj, gi]
    design = _triangle_design(values[gi][:, :, None] * values[gj][:, None, :])
    x = numerics.minnorm_lstsq(design * weight, target_sums / weight)
    operator = BilinearOperator(_triangle_tensor(x, d))
    predicted = design @ x

    oi, oj = np.nonzero(counts)
    weight_full = np.sqrt(counts[oi, oj])[:, None]
    outer = (values[oi][:, :, None] * values[oj][:, None, :]).reshape(-1, d * d)
    outer *= weight_full
    x_full = numerics.minnorm_lstsq(outer, sums[oi, oj] / weight_full)
    tensor_full = x_full.T.reshape(d, d, d)
    rows_idx, cols_idx = np.triu_indices(d)
    x_other = (tensor_full[:, rows_idx, cols_idx] +
               tensor_full[:, cols_idx, rows_idx]).T / 2.0
    gap = float(np.max(np.abs(predicted - design @ x_other)))

    table = np.zeros((d, m, m))
    table[:, gi, gj] = predicted.T
    table[:, gj, gi] = predicted.T
    table = table.reshape(d, m * m)
    max_residual, worst = -1.0, (0, 0, 0)
    for aa, bb, kk, _ in _pair_blocks(assignment):  # each holds (a, a)
        keys = row_id[aa] * m + row_id[bb]
        residual = np.zeros(len(kk))
        for fitted, column in zip(table, columns):
            np.maximum(residual, np.abs(fitted[keys] - column[kk]),
                       out=residual)
        i = int(np.argmax(residual))
        if residual[i] > max_residual:
            max_residual, worst = float(residual[i]), (aa[i], bb[i], kk[i])
    return FitResult(operator, max_residual, gap, n_constraints, skipped,
                     len(gi), tuple(order[i] for i in worst))


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
