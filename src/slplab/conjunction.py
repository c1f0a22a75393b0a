"""Conjunctive compounds over atomic queries, and the collapse mechanism.

Compound queries are kept in a normal form that hard-codes the lattice laws:
conjunct lists are flattened (associativity), sorted under a fixed total
order (commutativity), deduplicated (idempotence, so p AND p normalizes to
p), and double negation is eliminated.  Negation is enumerated on atoms only;
with flattening, every normal form is a literal or a flat conjunction of
literals, so the closure stabilizes at nesting depth 2.

The central object downstream is a symmetric bilinear conjunction operator F
with F(feature(p), feature(q)) = feature(p AND q) on realized pairs.  Fitting
F is a linear least-squares problem; idempotence makes F(u, u) = u for every
literal feature u, and if negation also flips feature signs then F(u, u)
must simultaneously equal u and -u, which is impossible unless u = 0.  The
collapse certificate measures exactly that obstruction: the minimum total
squared violation is 2 * sum of squared feature norms, attained at F = 0.
A possible-worlds assignment (0/1 truth values per world, conjunction =
elementwise product, negation = 1 - x) satisfies consistency without sign
equivariance and keeps the feasible regime honest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import numerics
from .queryspace import Query
from .relalg import RelationAlgebra, witnesses
from .reports import Report


@dataclass(frozen=True)
class Atom:
    query: Query

    def key(self) -> tuple:
        return (0, self.query.head, self.query.rel, self.query.tail)

    @property
    def depth(self) -> int:
        return 1


@dataclass(frozen=True)
class Neg:
    child: "CompoundQuery"

    def key(self) -> tuple:
        return (1, self.child.key())

    @property
    def depth(self) -> int:
        return self.child.depth


@dataclass(frozen=True)
class Conj:
    children: tuple["CompoundQuery", ...]

    def key(self) -> tuple:
        return (2, tuple(c.key() for c in self.children))

    @property
    def depth(self) -> int:
        return 1 + max(c.depth for c in self.children)


CompoundQuery = Atom | Neg | Conj


def atom(q: Query) -> Atom:
    return Atom(q)


def neg(x: CompoundQuery) -> CompoundQuery:
    """Negation with double-negation elimination."""
    if isinstance(x, Neg):
        return x.child
    return Neg(x)


def conj(*items: CompoundQuery) -> CompoundQuery:
    """Normalized conjunction: flatten, sort, dedup, collapse singletons."""
    flat: list[CompoundQuery] = []
    for item in items:
        if isinstance(item, Conj):
            flat.extend(item.children)
        else:
            flat.append(item)
    if not flat:
        raise ValueError("conjunction needs at least one conjunct")
    unique = {c.key(): c for c in flat}
    ordered = tuple(unique[k] for k in sorted(unique))
    if len(ordered) == 1:
        return ordered[0]
    return Conj(ordered)


def is_literal(x: CompoundQuery) -> bool:
    return isinstance(x, Atom) or (isinstance(x, Neg) and isinstance(x.child, Atom))


def close_conjunction(atoms: Sequence[Query], depth: int = 2) -> tuple[CompoundQuery, ...]:
    """Normal-form closure of the atoms under negation and conjunction.

    Level 1 holds the literals (atoms and negated atoms); level 2 holds all
    flat conjunctions of two or more distinct literals.  Because normal forms
    flatten nested conjunctions, any depth bound >= 2 closes to the same set;
    the bound is still honored literally for depth 1.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    seen_atoms: dict[tuple, Query] = {}
    for q in atoms:
        seen_atoms.setdefault((q.head, q.rel, q.tail), q)
    literals: list[CompoundQuery] = []
    for q in seen_atoms.values():
        literals.append(atom(q))
        literals.append(neg(atom(q)))
    literals.sort(key=lambda x: x.key())
    out = list(literals)
    if depth >= 2:
        for size in range(2, len(literals) + 1):
            for combo in itertools.combinations(literals, size):
                out.append(conj(*combo))
    out.sort(key=lambda x: x.key())
    return tuple(out)


def unique_witness_reduce(algebra: RelationAlgebra, rel_r: int, rel_s: int,
                          head: int, tail: int) -> tuple[CompoundQuery | None, int]:
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
        return cls(clean, next(iter(dims))[0])

    @property
    def order(self) -> tuple[CompoundQuery, ...]:
        return tuple(sorted(self.features, key=lambda x: x.key()))

    def matrix(self) -> np.ndarray:
        return np.stack([self.features[p] for p in self.order])


def assignment_kernel(assignment: ConjFeatureAssignment) -> np.ndarray:
    """Kernel vectors (rows) over the support, coefficients of vanishing sums."""
    return numerics.nullspace(assignment.matrix().T)


def check_kernel_stability(assignment: ConjFeatureAssignment) -> Report:
    """Conjunction-with-a-context must map the kernel into the kernel.

    Every support element serves as a context.  For context q, the
    substitution operator sends the unit vector of p to the unit vector of
    normalize(p AND q).  A context is skipped when any support element's
    image leaves the truncated support (the skip is reported, never silently
    ignored).  For every checked context, every kernel vector's image must
    map to zero features.
    """
    order = assignment.order
    index = {p: i for i, p in enumerate(order)}
    matrix = assignment.matrix()
    kernel = assignment_kernel(assignment)
    tol = numerics.rank_threshold(matrix)
    worst = 0.0
    violations = []
    skipped_contexts = 0
    skipped_pairs = 0
    checked = 0
    for q in order:
        images = np.empty(len(order), dtype=int)
        missing = 0
        for i, p in enumerate(order):
            img = conj(p, q)
            j = index.get(img, -1)
            if j < 0:
                missing += 1
            images[i] = j
        if missing:
            skipped_contexts += 1
            skipped_pairs += missing
            continue
        mapped = np.zeros_like(kernel)
        for i in range(len(order)):
            mapped[:, images[i]] += kernel[:, i]
        residuals = np.linalg.norm(mapped @ matrix, axis=1)
        checked += kernel.shape[0]
        dev = float(np.max(residuals)) if residuals.size else 0.0
        worst = max(worst, dev)
        if dev > tol:
            violations.append({"context": repr(q), "residual": dev})
    return Report(
        check="kernel_stability",
        passed=not violations,
        max_deviation=worst,
        details={"kernel_dim": int(kernel.shape[0]),
                 "contexts_checked": len(order) - skipped_contexts,
                 "contexts_skipped": skipped_contexts,
                 "pairs_skipped": skipped_pairs,
                 "pairs_checked": checked,
                 "violations": violations, "tol": tol},
    )


@dataclass(frozen=True)
class BilinearOperator:
    """Symmetric-in-inputs bilinear map, stored as a (d, d, d) tensor."""

    tensor: np.ndarray

    def apply(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("cab,a,b->c", self.tensor, u, v)

    def apply_batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return np.einsum("cab,pa,pb->pc", self.tensor, us, vs)


def _triangle_design(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Rows of the least-squares system for a symmetric bilinear unknown.

    Unknowns are the upper-triangle tensor entries T[c, a, b] with a <= b;
    the coefficient of T[., a, b] in F(u, v) is u_a v_b + u_b v_a off the
    diagonal and u_a v_a on it.
    """
    d = us.shape[1]
    outer = us[:, :, None] * vs[:, None, :]
    sym = outer + outer.transpose(0, 2, 1)
    rows_idx, cols_idx = np.triu_indices(d)
    design = sym[:, rows_idx, cols_idx]
    design[:, rows_idx == cols_idx] /= 2.0
    return design


def _triangle_tensor(x: np.ndarray, d: int) -> np.ndarray:
    rows_idx, cols_idx = np.triu_indices(d)
    tensor = np.zeros((d, d, d))
    for c in range(d):
        tensor[c, rows_idx, cols_idx] = x[:, c]
        tensor[c, cols_idx, rows_idx] = x[:, c]
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
    idempotence).  The operator is only determined on the realized span;
    uniqueness there is certified by an independently parameterized second
    fit whose predictions must agree on every realized pair.
    """
    order = assignment.order
    index = {p: i for i, p in enumerate(order)}
    matrix = assignment.matrix()
    ii, jj, kk = [], [], []
    skipped = 0
    for a in range(len(order)):
        for b in range(a, len(order)):
            img = conj(order[a], order[b])
            k = index.get(img, -1)
            if k < 0:
                skipped += 1
                continue
            ii.append(a)
            jj.append(b)
            kk.append(k)
    if not ii:
        raise ValueError("no realized conjunction pairs inside the support")
    us, vs, ws = matrix[ii], matrix[jj], matrix[kk]
    d = assignment.dim

    design = _triangle_design(us, vs)
    x = numerics.minnorm_lstsq(design, ws)
    operator = BilinearOperator(_triangle_tensor(x, d))
    max_residual = float(np.max(np.abs(design @ x - ws)))

    # independent parameterization: full d*d coefficients, symmetrized after
    design_full = (us[:, :, None] * vs[:, None, :]).reshape(len(ii), d * d)
    x_full = numerics.minnorm_lstsq(design_full, ws)
    tensor_full = np.stack([x_full[:, c].reshape(d, d) for c in range(d)])
    tensor_full = (tensor_full + tensor_full.transpose(0, 2, 1)) / 2.0
    other = BilinearOperator(tensor_full)
    gap = float(np.max(np.abs(operator.apply_batch(us, vs) -
                              other.apply_batch(us, vs))))
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
    design_rows = _triangle_design(us, us)
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

    def evaluate(x: CompoundQuery) -> np.ndarray:
        if isinstance(x, Atom):
            return truth[x.query.rel]
        if isinstance(x, Neg):
            return 1.0 - evaluate(x.child)
        prod = np.ones(n_worlds)
        for child in x.children:
            prod = prod * evaluate(child)
        return prod

    closure = close_conjunction(atoms, depth)
    features = {p: evaluate(p) for p in closure}
    return ConjFeatureAssignment.build(features), atoms
