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

On the feature span, entity renamings lift to orthogonal r x r matrices in
the span coordinates of the map's SVD (`featspace.lift_renaming`), forming a
representation of the symmetric group; combined with the central sign flip
this gives a product-group action.  Its negation split and isotypic pieces
are computed here in those coordinates, the latter via character projectors
formed from one sum of lifts per conjugacy class.  Hom-space dimensions
multiply across the two factors.  Each dimension has two witnesses: a
commutant null-space solve, which decides the rank of the stacked constraint
system one connected component of its sparsity graph at a time and never
forms it densely, and the character inner product of the given matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import characters, numerics
from .featspace import (FeatureMap, LiftedOperator, check_slp, grid_rows,
                        lift_renaming)
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
    """Central sign-flip eigensplit of the feature span.

    The projectors are r x r, in the span coordinates the lift acts on.
    """

    plus_projector: np.ndarray
    minus_projector: np.ndarray
    plus_dim: int
    minus_dim: int
    span_dim: int
    lift: LiftedOperator


def negation_split(f: FactorizedMap) -> NegationSplit:
    """Split the feature span by the lifted relation-complement operator.

    In span coordinates the lift is an orthogonal involution; on a
    structured-linear map it is minus the identity, so the plus eigenspace
    is zero.
    """
    n = f.algebra.entity_set.n
    lift = lift_renaming(f.feature_map, GroupElementH(tuple(range(n)), -1),
                         f.algebra)
    p_plus, p_minus = involution_split(lift.span)
    plus_dim = numerics.projector_trace_dim(p_plus)
    minus_dim = numerics.projector_trace_dim(p_minus)
    span_dim = lift.span.shape[0]
    if plus_dim + minus_dim != span_dim:
        raise AssertionError("eigensplit dimensions do not add up to the span")
    return NegationSplit(
        plus_projector=p_plus, minus_projector=p_minus,
        plus_dim=plus_dim, minus_dim=minus_dim,
        span_dim=span_dim, lift=lift,
    )


@dataclass(frozen=True)
class IsotypicProjector:
    """One irrep's projector, r x r in the span coordinates of the lifts."""

    irrep: tuple[int, ...]
    irrep_dim: int
    matrix: np.ndarray
    image_dim: int


def isotypic_decompose(f: FactorizedMap) -> tuple[list[IsotypicProjector], dict]:
    """Isotypic pieces of the renaming action lifted to the feature span.

    In span coordinates every lift rho(g) is orthogonal.  Each irrep's r x r
    projector is (dim / |G|) sum_mu chi(mu) C_mu over the class sums C_mu of
    the lifts (Serre, Linear Representations of Finite Groups, 2.6).  Also
    returns a property dict of max deviations: idempotence, mutual
    annihilation, completeness against I_r, and commutation with and
    orthogonality of every lift.
    """
    n = f.algebra.entity_set.n
    if n > 5:
        raise ValueError("isotypic decomposition materializes Sym(n); n <= 5 only")
    perms = symmetric_group(n)
    rhos = np.stack([lift_renaming(f.feature_map, GroupElementH(p, 1),
                                   f.algebra).span for p in perms])
    class_sums: dict[tuple[int, ...], np.ndarray] = {}
    for perm, rho in zip(perms, rhos):
        mu = characters.cycle_type(perm)
        class_sums[mu] = class_sums.get(mu, 0.0) + rho
    projectors = []
    for lam in characters.partitions(n):
        dim = characters.irrep_dimension(lam)
        proj = (dim / len(perms)) * sum(
            characters.mn_character(lam, mu) * c for mu, c in class_sums.items())
        projectors.append(IsotypicProjector(lam, dim, proj,
                                            numerics.projector_trace_dim(proj)))

    def worst(dev: np.ndarray) -> float:
        return float(np.max(np.abs(dev), initial=0.0))

    mats = np.stack([p.matrix for p in projectors])
    eye = np.eye(rhos.shape[1])
    pairs = mats[:, None] @ mats[None]
    props = {
        "idempotence": worst(pairs[np.diag_indices(len(mats))] - mats),
        "annihilation": worst(pairs[np.triu_indices(len(mats), 1)]),
        "completeness_on_span": worst(mats.sum(axis=0) - eye),
        "commutation": max(worst(mats @ rho - rho @ mats) for rho in rhos),
        "orthogonality": worst(rhos @ rhos.transpose(0, 2, 1) - eye),
        "span_dim": int(eye.shape[0]),
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


def _constraint_triples(mv: np.ndarray, mc: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros (row, col, value) of kron(I, mv^T) - kron(mc, I).

    Row and column (a, b) stand for a * dim(mv) + b.  The two Kronecker
    terms meet only on the diagonal, where the value is the one subtraction
    mv[b, b] - mc[a, a]; off it each term stands alone, so every value is
    bitwise the dense entry.  Exact zeros are dropped.
    """
    dv, dc = mv.shape[0], mc.shape[0]
    cell = np.arange(dc * dv).reshape(dc, dv)
    j, b = np.nonzero(mv)
    off = j != b
    j, b = j[off], b[off]
    a, i = np.nonzero(mc)
    off = a != i
    a, i = a[off], i[off]
    rows = np.concatenate([cell.ravel(), cell[:, b].ravel(),
                           cell[a].ravel()])
    cols = np.concatenate([cell.ravel(), cell[:, j].ravel(),
                           cell[i].ravel()])
    vals = np.concatenate([
        (np.diag(mv)[None, :] - np.diag(mc)[:, None]).ravel(),
        np.broadcast_to(mv[j, b], (dc, len(b))).ravel(),
        np.broadcast_to(-mc[a, i][:, None], (len(a), dv)).ravel()])
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


def _column_components(rows: np.ndarray, cols: np.ndarray,
                       ncols: int) -> np.ndarray:
    """Label each column by the smallest column of its connected component.

    Two columns are connected when one row touches both.  Min-label
    propagation through the rows, with pointer jumping, until a fixpoint.
    """
    label = np.arange(ncols)
    nrows = int(rows.max()) + 1
    while True:
        row_min = np.full(nrows, ncols)
        np.minimum.at(row_min, rows, label[cols])
        new = label.copy()
        np.minimum.at(new, cols, row_min[rows])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def commutant_hom_dimension(source_mats: Sequence[np.ndarray],
                            target_mats: Sequence[np.ndarray]) -> int:
    """dim Hom_G(source, target): null space of X rho_V(g) - rho_C(g) X.

    Unknown X has shape (dim target, dim source); with row-major vec the
    constraint for g is kron(I, rho_V(g)^T) - kron(rho_C(g), I), one block
    per given element.  The stacked system is never formed densely: its
    nonzeros split the columns into connected components, and permuting
    rows and columns makes it block-diagonal with one block per component.
    A block-diagonal matrix's singular values are the union of its blocks',
    so the rank is the sum of the block ranks, each from one SVD at the
    threshold of `numerics.rank` on the whole system (REL_TOL times its
    largest row norm).  A column that no row touches is free.
    """
    dv = source_mats[0].shape[0]
    dc = target_mats[0].shape[0]
    ncols = dc * dv
    parts = [_constraint_triples(np.asarray(mv, dtype=float),
                                 np.asarray(mc, dtype=float))
             for mv, mc in zip(source_mats, target_mats)]
    rows = np.concatenate([r + k * ncols for k, (r, _, _) in enumerate(parts)])
    cols = np.concatenate([c for _, c, _ in parts])
    vals = np.concatenate([v for _, _, v in parts])
    if not len(vals):
        return ncols
    threshold = numerics.scaled_threshold(
        float(np.sqrt(np.max(np.bincount(rows, weights=vals * vals)))))
    comp = _column_components(rows, cols, ncols)[cols]
    order = np.argsort(comp, kind="stable")
    rank = 0
    for part in np.split(order, np.flatnonzero(np.diff(comp[order])) + 1):
        # number the component's rows and columns from zero
        _, r = np.unique(rows[part], return_inverse=True)
        _, c = np.unique(cols[part], return_inverse=True)
        block = np.zeros((r.max() + 1, c.max() + 1))
        block[r, c] = vals[part]
        sv = np.linalg.svd(block, compute_uv=False)
        rank += int(np.sum(sv > threshold))
    return ncols - rank


def character_hom_dim(source_mats: Sequence[np.ndarray],
                      target_mats: Sequence[np.ndarray]) -> int:
    """dim Hom_G(source, target) = (1/|G|) sum_g chi_V(g) chi_W(g).

    Real characters from the traces of the given matrices (Serre, Linear
    Representations of Finite Groups, 2.3).  Raises ValueError when the
    inner product is not within PROJECTOR_TOL of an integer, which means the
    matrices are not aligned representations of one group.
    """
    value = sum(float(np.trace(a)) * float(np.trace(b))
                for a, b in zip(source_mats, target_mats)) / len(source_mats)
    dim = round(value)
    if abs(value - dim) > numerics.PROJECTOR_TOL:
        raise ValueError(f"character inner product {value} is not an integer")
    return dim


def hom_dimension_check(ctx_rep: Sequence[np.ndarray],
                        ctx_target: Sequence[np.ndarray],
                        rel_rep: Sequence[np.ndarray],
                        rel_target: Sequence[np.ndarray]) -> Report:
    """Hom dimensions multiply across the context and relation factors.

    ctx_* are aligned over the renaming group's elements, rel_* over the
    two-element sign group; the product group's matrices are Kronecker
    products over all element pairs.  Each of the three dimensions has two
    witnesses, the commutant solve and the character inner product; the
    check fails when the product law fails on the commutant dims or when
    the witnesses disagree, and `witness_mismatch` names each dim that does.
    """
    prod_source = [np.kron(a, b) for a in ctx_rep for b in rel_rep]
    prod_target = [np.kron(a, b) for a in ctx_target for b in rel_target]
    pairs = {"context": (ctx_rep, ctx_target),
             "relation": (rel_rep, rel_target),
             "product": (prod_source, prod_target)}
    commutant = {k: commutant_hom_dimension(*v) for k, v in pairs.items()}
    character = {k: character_hom_dim(*v) for k, v in pairs.items()}
    mismatch = [k for k in pairs if commutant[k] != character[k]]
    dim_ctx, dim_rel, dim_prod = commutant.values()
    law_dev = abs(dim_ctx * dim_rel - dim_prod)
    return Report(
        check="hom_dimension_product",
        passed=law_dev == 0 and not mismatch,
        max_deviation=float(max(law_dev, *(abs(commutant[k] - character[k])
                                           for k in pairs))),
        details={"dim_hom_context": dim_ctx, "dim_hom_relation": dim_rel,
                 "dim_hom_product": dim_prod,
                 "character_dims": character,
                 "witness_mismatch": mismatch,
                 "product_law": f"{dim_ctx} * {dim_rel} == {dim_prod}"},
    )
