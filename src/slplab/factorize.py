"""Context-relation tensor factorization of equivariant feature maps.

Every feature row decomposes blockwise as sum_k u_k(h,t) * v_k(r), with the
relation factors v_k flipping sign under relation complement.  Because the
sign group has only one-dimensional real irreducibles, each relation factor
is a single vector over the closed relations.

Reversal invariance forces matched parity between the two factors: u may be
symmetric in (h,t) while v is converse-even, or antisymmetric while v is
converse-odd, and a generic equivariant map is a sum of one component of each
parity.  The builder therefore realizes an unconstrained term as a matched
pair (u+ x v+) + (u- x v-) derived from one raw sample; each stored term is
then exactly (bitwise) equivariant, and parity-constrained builds keep a
single component.

On the feature span, entity renamings lift to linear operators forming a
representation of the symmetric group; combined with the central sign flip
this gives a product-group action whose isotypic pieces are computed here via
explicit character projectors.  Hom-space dimensions multiply across the two
factors, checked numerically with a commutant null-space solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import characters, numerics
from .featspace import (FeatureMap, LiftedOperator, check_slp,
                        feature_span_basis, grid_rows, lift_renaming)
from .queryspace import (GroupElementH, Query, compute_families,
                         enumerate_queries, logical_images, symmetric_group)
from .relalg import RelationAlgebra
from .reports import Report


class ConverseInvarianceError(RuntimeError):
    """The map is not reversal-invariant; parity decomposition is undefined."""

    def __init__(self, query: Query, deviation: float) -> None:
        super().__init__(f"converse invariance fails at {tuple(query)} "
                         f"with deviation {deviation}")
        self.query = query
        self.deviation = deviation


@dataclass(frozen=True)
class Term:
    """One rank-one factor pair: u indexed (head, tail, component), v by relation.

    parity '+' promises u symmetric / v converse-even, '-' antisymmetric /
    converse-odd; None promises nothing (hand-built terms only — the builder
    always emits tagged terms, and verification treats promises as claims to
    check, not facts).
    """

    u: np.ndarray
    v: np.ndarray
    parity: str | None = None

    def __post_init__(self) -> None:
        if self.u.ndim != 3 or self.u.shape[0] != self.u.shape[1]:
            raise ValueError("u must have shape (n, n, context_dim)")
        if self.v.ndim != 1:
            raise ValueError("v must be a vector over the closed relations")
        if self.parity not in (None, "+", "-"):
            raise ValueError("parity must be '+', '-' or None")


@dataclass(frozen=True)
class TensorBlock:
    context_dim: int
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        for t in self.terms:
            if t.u.shape[2] != self.context_dim:
                raise ValueError("term context dimension mismatch")


@dataclass(frozen=True)
class BlockSpec:
    """Requested block shape: m raw samples, optional parity constraint."""

    context_dim: int
    m: int = 1
    parity: str | None = None


@dataclass(frozen=True)
class FactorizedMap:
    algebra: RelationAlgebra
    blocks: tuple[TensorBlock, ...]
    feature_map: FeatureMap
    redrawn: bool = False

    @property
    def dim(self) -> int:
        return self.feature_map.dim


def _block_rows(block: TensorBlock, queries: Sequence[Query]) -> np.ndarray:
    """Evaluate one block on all queries; term loop order is part of the format."""
    heads = np.fromiter((q.head for q in queries), dtype=int, count=len(queries))
    rels = np.fromiter((q.rel for q in queries), dtype=int, count=len(queries))
    tails = np.fromiter((q.tail for q in queries), dtype=int, count=len(queries))
    acc = np.zeros((len(queries), block.context_dim))
    for term in block.terms:
        acc += term.u[heads, tails, :] * term.v[rels][:, None]
    return acc


def assemble_rows(blocks: Sequence[TensorBlock],
                  queries: Sequence[Query]) -> np.ndarray:
    return np.concatenate([_block_rows(b, queries) for b in blocks], axis=1)


def _sample_v(algebra: RelationAlgebra, parity: str, rng) -> np.ndarray:
    """Relation factor with v(not r) = -v(r) and v(conv r) = (parity) v(r).

    A converse-fixed relation with parity '-' forces its whole orbit to zero;
    that is the correct degenerate case, not an error.
    """
    conv_sign = 1.0 if parity == "+" else -1.0
    v = np.zeros(algebra.size)
    assigned = [False] * algebra.size
    for i in range(algebra.size):
        if assigned[i]:
            continue
        value = rng.uniform(-1.0, 1.0)
        if algebra.conv(i) == i and parity == "-":
            value = 0.0
        # propagate through the orbit with the promised signs
        pending = [(i, value)]
        while pending:
            j, val = pending.pop()
            if assigned[j]:
                if v[j] != val:
                    raise AssertionError("inconsistent sign propagation")
                continue
            v[j] = val
            assigned[j] = True
            pending.append((algebra.neg(j), -val))
            pending.append((algebra.conv(j), conv_sign * val))
    return v


def _sample_block(algebra: RelationAlgebra, spec: BlockSpec, rng) -> TensorBlock:
    n = algebra.entity_set.n
    terms: list[Term] = []
    for _ in range(spec.m):
        raw = rng.uniform(-1.0, 1.0, size=(n, n, spec.context_dim))
        u_plus = (raw + raw.transpose(1, 0, 2)) / 2.0
        u_minus = (raw - raw.transpose(1, 0, 2)) / 2.0
        if spec.parity in (None, "+"):
            terms.append(Term(u_plus, _sample_v(algebra, "+", rng), "+"))
        if spec.parity in (None, "-"):
            terms.append(Term(u_minus, _sample_v(algebra, "-", rng), "-"))
    return TensorBlock(spec.context_dim, tuple(terms))


def build_slp_map(algebra: RelationAlgebra, blocks: Sequence[BlockSpec],
                  seed: int) -> FactorizedMap:
    """Seeded generic build; one redraw on a measure-zero rank failure.

    The map is exactly logically equivariant by construction.  Whether it
    reaches full representative rank depends on the requested shape; a
    genuinely undersized shape will fail check_slp both times, and the
    redrawn flag records that a second draw happened.
    """
    rng = np.random.default_rng(seed)
    queries = enumerate_queries(algebra)
    families = compute_families(algebra)

    def draw() -> tuple[TensorBlock, ...]:
        return tuple(_sample_block(algebra, spec, rng) for spec in blocks)

    built = draw()
    fmap = FeatureMap(queries, assemble_rows(built, queries))
    redrawn = not check_slp(fmap, families).passed
    if redrawn:
        built = draw()
        fmap = FeatureMap(queries, assemble_rows(built, queries))
    return FactorizedMap(algebra, built, fmap, redrawn)


def verify_factorized_form(f: FactorizedMap) -> Report:
    """Recompute rows from factors and audit the negation sign flip.

    Row agreement is exact (same assembly path); the sign law v(not r) =
    -v(r) is checked per term per relation, and failures are located by
    (block, term, relation).
    """
    queries = f.feature_map.queries
    rebuilt = assemble_rows(f.blocks, queries)
    rows_equal = np.array_equal(rebuilt, f.feature_map.matrix)
    row_dev = float(np.max(np.abs(rebuilt - f.feature_map.matrix))) \
        if rebuilt.size else 0.0
    sign_faults = []
    worst_sign = 0.0
    for bi, block in enumerate(f.blocks):
        for ki, term in enumerate(block.terms):
            for r in range(f.algebra.size):
                dev = float(abs(term.v[f.algebra.neg(r)] + term.v[r]))
                if dev != 0.0:
                    sign_faults.append({"block": bi, "term": ki,
                                        "relation": r, "deviation": dev})
                    worst_sign = max(worst_sign, dev)
    dims_ok = all(b.terms == () or
                  all(t.u.shape == (f.algebra.entity_set.n,
                                    f.algebra.entity_set.n, b.context_dim)
                      and t.v.shape == (f.algebra.size,)
                      for t in b.terms)
                  for b in f.blocks)
    passed = rows_equal and not sign_faults and dims_ok
    return Report(
        check="factorized_form",
        passed=passed,
        max_deviation=max(row_dev, worst_sign),
        details={"rows_exact": bool(rows_equal), "row_deviation": row_dev,
                 "sign_faults": sign_faults, "dims_consistent": dims_ok,
                 "n_blocks": len(f.blocks),
                 "n_terms": sum(len(b.terms) for b in f.blocks)},
    )


def involution_split(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenprojectors (I +- M)/2 of an involution, with the identity checked."""
    eye = np.eye(mat.shape[0])
    dev = float(np.max(np.abs(mat @ mat - eye)))
    if dev > numerics.PROJECTOR_TOL:
        raise ValueError(f"matrix is not an involution (deviation {dev})")
    return (eye + mat) / 2.0, (eye - mat) / 2.0


@dataclass(frozen=True)
class NegationSplit:
    """Central sign-flip eigensplit of the feature span."""

    plus_projector: np.ndarray
    minus_projector: np.ndarray
    plus_dim: int
    minus_dim: int
    span_dim: int
    lift: LiftedOperator


def negation_split(f: FactorizedMap) -> NegationSplit:
    """Split the feature span by the lifted relation-complement operator.

    On a structured-linear map the lift is minus the identity on the span,
    so the plus eigenspace is zero; the general construction restricts the
    lift to an orthonormal span basis where it is an exact involution.
    """
    algebra = f.algebra
    n = algebra.entity_set.n
    g = GroupElementH(tuple(range(n)), -1)
    lift = lift_renaming(f.feature_map, g, algebra)
    basis = feature_span_basis(f.feature_map)
    m_span = basis @ lift.matrix @ basis.T
    p_plus_span, p_minus_span = involution_split(m_span)
    p_plus = basis.T @ p_plus_span @ basis
    p_minus = basis.T @ p_minus_span @ basis
    plus_dim = numerics.projector_trace_dim(p_plus_span)
    minus_dim = numerics.projector_trace_dim(p_minus_span)
    if plus_dim + minus_dim != basis.shape[0]:
        raise AssertionError("eigensplit dimensions do not add up to the span")
    return NegationSplit(
        plus_projector=p_plus, minus_projector=p_minus,
        plus_dim=plus_dim, minus_dim=minus_dim,
        span_dim=basis.shape[0], lift=lift,
    )


@dataclass(frozen=True)
class IsotypicProjector:
    irrep: tuple[int, ...]
    irrep_dim: int
    matrix: np.ndarray
    image_dim: int


def isotypic_projectors_from_rep(perms: Sequence[tuple[int, ...]],
                                 mats: Sequence[np.ndarray]) -> list[IsotypicProjector]:
    """Character projectors (dim/|G|) sum chi(s) rho(s) for a full Sym(n) rep.

    `perms` must enumerate all of Sym(n) and `mats[i]` represent `perms[i]`.
    """
    n = len(perms[0])
    if len(perms) != math.factorial(n):
        raise ValueError("need the full symmetric group to form projectors")
    out = []
    for lam in characters.partitions(n):
        dim = characters.irrep_dimension(lam)
        acc = np.zeros_like(np.asarray(mats[0], dtype=float))
        for perm, mat in zip(perms, mats):
            chi = characters.mn_character(lam, characters.cycle_type(perm))
            if chi != 0:
                acc = acc + chi * np.asarray(mat, dtype=float)
        proj = (dim / len(perms)) * acc
        out.append(IsotypicProjector(lam, dim, proj,
                                     numerics.projector_trace_dim(proj)))
    return out


def isotypic_decompose(f: FactorizedMap) -> tuple[list[IsotypicProjector], dict]:
    """Isotypic pieces of the renaming action lifted to the feature span.

    Returns the ambient-coordinate projectors plus a property report dict:
    idempotence, mutual annihilation, completeness on the span, and
    commutation with every lifted renaming, all as max deviations.
    """
    algebra = f.algebra
    n = algebra.entity_set.n
    if n > 5:
        raise ValueError("isotypic decomposition materializes Sym(n); n <= 5 only")
    perms = symmetric_group(n)
    lifts = [lift_renaming(f.feature_map, GroupElementH(p, 1), algebra)
             for p in perms]
    mats = [l.matrix for l in lifts]
    projectors = isotypic_projectors_from_rep(perms, mats)
    basis = feature_span_basis(f.feature_map)
    span_eye = basis @ basis.T  # projector onto the span, ambient coordinates

    idem = max(float(np.max(np.abs(p.matrix @ p.matrix - p.matrix)))
               for p in projectors)
    annih = 0.0
    for i, p in enumerate(projectors):
        for q in projectors[i + 1:]:
            annih = max(annih, float(np.max(np.abs(p.matrix @ q.matrix))))
    total = sum(p.matrix for p in projectors)
    complete = float(np.max(np.abs(total - span_eye)))
    commute = 0.0
    for mat in mats:
        for p in projectors:
            commute = max(commute,
                          float(np.max(np.abs(p.matrix @ mat - mat @ p.matrix))))
    props = {"idempotence": idem, "annihilation": annih,
             "completeness_on_span": complete, "commutation": commute,
             "span_dim": int(basis.shape[0]),
             "image_dims": {str(list(p.irrep)): p.image_dim for p in projectors}}
    return projectors, props


def group_average(mats: Sequence[np.ndarray]) -> np.ndarray:
    """(1/|G|) sum of the representation matrices; the trivial projector."""
    acc = np.zeros_like(np.asarray(mats[0], dtype=float))
    for m in mats:
        acc = acc + np.asarray(m, dtype=float)
    return acc / len(mats)


def pair_space_representation(n: int,
                              perms: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Renaming action on the n^2-dimensional pair space e_(h,t)."""
    return [characters.permutation_matrix(
                tuple(p[h] * n + p[t] for h in range(n) for t in range(n)))
            for p in perms]


def relation_sign_representation(algebra: RelationAlgebra) -> list[np.ndarray]:
    """The two-element sign action on the relation space: identity and complement."""
    return [np.eye(algebra.size),
            characters.permutation_matrix(algebra.negation)]


def pair_swap_matrix(n: int) -> np.ndarray:
    """The involution e_(h,t) -> e_(t,h) on the pair space."""
    return characters.permutation_matrix(
        tuple(t * n + h for h in range(n) for t in range(n)))


def relation_converse_matrix(algebra: RelationAlgebra) -> np.ndarray:
    """The involution e_r -> e_(conv r) on the relation space."""
    return characters.permutation_matrix(algebra.converse_)


@dataclass(frozen=True)
class ParityInvolution:
    """Pair-swap and relation-converse involutions with their eigensplits."""

    pair_swap: np.ndarray
    rel_converse: np.ndarray
    pair_plus: np.ndarray
    pair_minus: np.ndarray
    rel_plus: np.ndarray
    rel_minus: np.ndarray

    @property
    def pair_dims(self) -> tuple[int, int]:
        return (numerics.projector_trace_dim(self.pair_plus),
                numerics.projector_trace_dim(self.pair_minus))

    @property
    def rel_dims(self) -> tuple[int, int]:
        return (numerics.projector_trace_dim(self.rel_plus),
                numerics.projector_trace_dim(self.rel_minus))


def parity_involution(algebra: RelationAlgebra) -> ParityInvolution:
    n = algebra.entity_set.n
    swap = pair_swap_matrix(n)
    conv = relation_converse_matrix(algebra)
    sp, sm = involution_split(swap)
    cp, cm = involution_split(conv)
    return ParityInvolution(swap, conv, sp, sm, cp, cm)


@dataclass(frozen=True)
class ParityTermPair:
    plus: Term
    minus: Term


@dataclass(frozen=True)
class ParityDecomposition:
    blocks: tuple[tuple[ParityTermPair, ...], ...]
    max_cross_residual: float


def parity_decompose(f: FactorizedMap,
                     tol: float = 0.0) -> ParityDecomposition:
    """Split every term into matched-parity components.

    Requires reversal invariance of the assembled map (checked first; the
    first query with the largest deviation is reported otherwise).  Each term
    (u, v) splits into (u+, v+) and (u-, v-); the cross-parity components
    u+ x v- and u- x v+ must cancel blockwise on every query, and their
    residual, assembled as one block of cross terms, is reported.
    """
    fmap = f.feature_map
    algebra = f.algebra
    rows = grid_rows(fmap, algebra)
    _, _, rev, _ = logical_images(algebra)  # rows follow LogicalOp order
    dev = np.max(np.abs(rows[rev] - rows), axis=1)
    worst = int(np.argmax(dev))
    if dev[worst] > tol:
        raise ConverseInvarianceError(enumerate_queries(algebra)[worst],
                                      float(dev[worst]))

    blocks_out = []
    max_cross = 0.0
    for block in f.blocks:
        pairs = []
        cross_terms = []
        for term in block.terms:
            u_plus = (term.u + term.u.transpose(1, 0, 2)) / 2.0
            u_minus = (term.u - term.u.transpose(1, 0, 2)) / 2.0
            v_conv = term.v[list(algebra.converse_)]
            v_plus = (term.v + v_conv) / 2.0
            v_minus = (term.v - v_conv) / 2.0
            pairs.append(ParityTermPair(Term(u_plus, v_plus, "+"),
                                        Term(u_minus, v_minus, "-")))
            cross_terms += [Term(u_plus, v_minus), Term(u_minus, v_plus)]
        cross = _block_rows(TensorBlock(block.context_dim, tuple(cross_terms)),
                            fmap.queries)
        if cross.size:
            max_cross = max(max_cross, float(np.max(np.abs(cross))))
        blocks_out.append(tuple(pairs))
    return ParityDecomposition(tuple(blocks_out), max_cross)


def commutant_hom_dimension(source_mats: Sequence[np.ndarray],
                            target_mats: Sequence[np.ndarray]) -> int:
    """dim Hom_G(source, target): null space of X rho_V(g) - rho_C(g) X.

    Unknown X has shape (dim target, dim source); with row-major vec the
    constraint for g is kron(I, rho_V(g)^T) - kron(rho_C(g), I).
    """
    dv = source_mats[0].shape[0]
    dc = target_mats[0].shape[0]
    rows = []
    for mv, mc in zip(source_mats, target_mats):
        rows.append(np.kron(np.eye(dc), np.asarray(mv, dtype=float).T) -
                    np.kron(np.asarray(mc, dtype=float), np.eye(dv)))
    stacked = np.concatenate(rows, axis=0)
    return stacked.shape[1] - numerics.rank(stacked)


def hom_dimension_check(ctx_rep: Sequence[np.ndarray],
                        ctx_target: Sequence[np.ndarray],
                        rel_rep: Sequence[np.ndarray],
                        rel_target: Sequence[np.ndarray]) -> Report:
    """Hom dimensions multiply across the context and relation factors.

    ctx_* are aligned over the renaming group's elements, rel_* over the
    two-element sign group; the product group's matrices are Kronecker
    products over all element pairs.
    """
    dim_ctx = commutant_hom_dimension(ctx_rep, ctx_target)
    dim_rel = commutant_hom_dimension(rel_rep, rel_target)
    prod_source = [np.kron(a, b) for a in ctx_rep for b in rel_rep]
    prod_target = [np.kron(a, b) for a in ctx_target for b in rel_target]
    dim_prod = commutant_hom_dimension(prod_source, prod_target)
    passed = dim_ctx * dim_rel == dim_prod
    return Report(
        check="hom_dimension_product",
        passed=passed,
        max_deviation=float(abs(dim_ctx * dim_rel - dim_prod)),
        details={"dim_hom_context": dim_ctx, "dim_hom_relation": dim_rel,
                 "dim_hom_product": dim_prod,
                 "product_law": f"{dim_ctx} * {dim_rel} == {dim_prod}"},
    )
