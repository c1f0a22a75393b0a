"""Context-relation tensor factorization of equivariant feature maps.

Every feature row decomposes as sum_k u_k(h,t) * v_k(r) over one context
space, with the relation factors v_k flipping sign under relation complement.
Terms over several context spaces side by side are the terms of one space
with zero-padded context factors, so a factorized map is two stacked factor
arrays, u of shape (terms, n, n, context_dim) and v of shape (terms,
relations), whose rows are one matrix product of the two.  Because the sign
group has only one-dimensional real irreducibles, each relation factor is a
single vector over the closed relations.

Reversal invariance forces matched parity between the two factors: u may be
symmetric in (h,t) while v is converse-even, or antisymmetric while v is
converse-odd, and a generic equivariant map is a sum of one component of each
parity.  The builder therefore realizes an unconstrained term as a matched
pair (u+ x v+) + (u- x v-) derived from one raw sample; each stored term is
then exactly (bitwise) equivariant, and parity-constrained builds keep a
single component.  Raw samples are drawn a block at a time and their
components written straight into the stacked arrays.

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
from .featspace import FeatureMap, lift_renaming
from .queryspace import (GroupElementH, Query, decode_queries, logical_images,
                         symmetric_group)
from .relalg import RelationAlgebra
from .reports import Report


class ConverseInvarianceError(RuntimeError):
    """The map is not reversal-invariant; parity decomposition is undefined."""

    def __init__(self, query: Query, deviation: float) -> None:
        super().__init__(f"converse invariance fails at {tuple(query)} "
                         f"with deviation {deviation}")
        self.query = query
        self.deviation = deviation


@dataclass(frozen=True, eq=False)
class FactorizedMap:
    """The stacked factors of a map over one context space, and the map
    they sum to: term k is u[k], indexed (head, tail, component), times
    v[k], indexed by relation."""

    u: np.ndarray
    v: np.ndarray
    feature_map: FeatureMap
    redrawn: bool = False

    @property
    def dim(self) -> int:
        return self.feature_map.dim


def assemble_rows(u: np.ndarray, v: np.ndarray,
                  algebra: RelationAlgebra) -> np.ndarray:
    """`_term_sum` in the one query order, (head, rel, tail), a row each."""
    grid = _term_sum(u, v, algebra)
    size, n, _, width = grid.shape
    return grid.transpose(1, 0, 2, 3).reshape(n * size * n, width)


def _term_sum(u: np.ndarray, v: np.ndarray,
              algebra: RelationAlgebra) -> np.ndarray:
    """The terms' sum v.T @ u, indexed (rel, head, tail, component), for u
    of shape (terms, n, n, context_dim) and v of (terms, relations); any
    other shape is a ValueError.  The BLAS picks the order of the sum, so
    term order is not part of the format; factors longer than the grid are
    read on its corner, which dims_consistent flags."""
    if u.ndim != 4 or u.shape[1] != u.shape[2]:
        raise ValueError("u must have shape (terms, n, n, context_dim)")
    if v.ndim != 2 or len(v) != len(u):
        raise ValueError("v must have shape (terms, relations)")
    n, size, width = algebra.entity_set.n, algebra.size, u.shape[3]
    grid = v[:, :size].T @ u[:, :n, :n].reshape(len(u), n * n * width)
    return grid.reshape(size, n, n, width)


def _halves(x: np.ndarray, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd parts (x + x')/2 and (x - x')/2 of x, given its
    image x' under an involution as an array of its own, which becomes the
    even part: no third array of that size is made."""
    odd = x - image
    odd /= 2.0
    image += x
    image /= 2.0
    return image, odd


# cells of raw samples drawn by one RNG call: bounds a build's draw buffer
_BLOCK_CELLS = 2 ** 16


def build_slp_map(algebra: RelationAlgebra, context_dim: int, terms: int,
                  parity: str | None, seed: int) -> FactorizedMap:
    """Seeded generic build of `terms` raw samples over a context space of
    `context_dim`; one redraw on a measure-zero rank failure.

    Each raw sample gives the matched pair (u+ x v+) + (u- x v-), or only
    the component of `parity` if it is '+' or '-'; any other parity is a
    ValueError.  A sample draws its raw context factor, then one value per
    relation orbit for each component's v, with v(not r) = -v(r) and
    v(conv r) = +-v(r), so a converse-fixed orbit of v- is zero.  One RNG
    call draws a block of at most _BLOCK_CELLS values, at least one sample.

    The map is exactly logically equivariant by construction.  Whether it
    reaches full representative rank depends on the requested shape.  The
    rank is read off the map's cached representative spectrum, the one
    `check_slp` reads, and the whole map is not decomposed.  A genuinely
    undersized shape falls short of the family count both times, and the
    redrawn flag records that a second draw happened.
    """
    if parity not in (None, "+", "-"):
        raise ValueError(f"parity must be '+', '-' or None, not {parity!r}")
    rng = np.random.default_rng(seed)
    n, images = algebra.entity_set.n, algebra.images
    # the converse sign of each component a sample keeps, in draw order
    signs = [sign for name, sign in (("+", 1.0), ("-", -1.0))
             if parity in (None, name)]
    k = len(signs)
    # each orbit is drawn at its smallest relation
    reps = np.flatnonzero(images.min(axis=0) == np.arange(algebra.size))
    conv_fixed = images[2, reps] == reps
    cells = n * n * context_dim
    sample = cells + k * len(reps)
    step = max(1, _BLOCK_CELLS // sample)
    u = np.empty((k * terms, n, n, context_dim))
    v = np.empty((k * terms, algebra.size))

    def draw() -> FeatureMap:
        for start in range(0, terms, step):
            stop = min(start + step, terms)
            block = rng.uniform(-1.0, 1.0, size=(stop - start, sample))
            raw = block[:, :cells].reshape(-1, n, n, context_dim)
            values = block[:, cells:].reshape(-1, k, len(reps))
            for j, conv_sign in enumerate(signs):
                # term-major: sample i's components are terms k i + j
                rows = slice(k * start + j, k * stop, k)
                out = u[rows]
                halve = np.add if conv_sign > 0 else np.subtract
                halve(raw, raw.transpose(0, 2, 1, 3), out=out)
                out /= 2.0
                value = values[:, j]
                if conv_sign < 0:
                    value[:, conv_fixed] = 0.0
                # a converse-fixed orbit is written twice; the id and neg
                # rows go last, so a zeroed one reads +0.0 at the
                # representative, -0.0 at its complement
                for row, sign in ((2, conv_sign), (3, -conv_sign),
                                  (0, 1.0), (1, -1.0)):
                    v[rows, images[row, reps]] = sign * value
        return FeatureMap(algebra, assemble_rows(u, v, algebra))

    fmap = draw()
    redrawn = fmap.rep_spectrum.span_rank != len(fmap.families)
    if redrawn:
        # the first map's rows are its own, so the factors are drawn over
        fmap = draw()
    return FactorizedMap(u, v, fmap, redrawn)


def verify_factorized_form(f: FactorizedMap) -> Report:
    """Recompute rows from factors and audit the negation sign flip.

    Row agreement is exact (same assembly path); the sign law v(not r) =
    -v(r) is checked as one array identity over every term, and failures
    are located by (term, relation), in term-major order.
    """
    algebra = f.feature_map.algebra
    rebuilt = assemble_rows(f.u, f.v, algebra)
    rows = f.feature_map.matrix
    rows_equal = np.array_equal(rebuilt, rows)
    row_dev = float(np.max(np.abs(rebuilt - rows))) if rebuilt.size else 0.0
    v = f.v[:, :algebra.size]  # dims_consistent flags a long v
    # in place: one array the size of v
    dev = v[:, algebra.images[1]]
    dev += v
    np.abs(dev, out=dev)
    bad = np.nonzero(dev != 0.0)
    sign_faults = [{"term": k, "relation": r, "deviation": d}
                   for k, r, d in zip(*(i.tolist() for i in bad),
                                      dev[bad].tolist())]
    worst_sign = max([0.0] + [fault["deviation"] for fault in sign_faults])
    n = algebra.entity_set.n
    dims_ok = (f.u.shape[1:] == (n, n, f.dim)
               and f.v.shape[1:] == (algebra.size,))
    passed = rows_equal and not sign_faults and dims_ok
    return Report(
        check="factorized_form",
        passed=passed,
        max_deviation=max(row_dev, worst_sign),
        details={"rows_exact": bool(rows_equal), "row_deviation": row_dev,
                 "sign_faults": sign_faults, "dims_consistent": dims_ok,
                 "n_terms": len(f.u)},
    )


def involution_split(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenprojectors (I +- M)/2 of an involution, with the identity checked."""
    eye = np.eye(mat.shape[0])
    dev = float(np.max(np.abs(mat @ mat - eye), initial=0.0))
    if dev > numerics.PROJECTOR_TOL:
        raise ValueError(f"matrix is not an involution (deviation {dev})")
    return (eye + mat) / 2.0, (eye - mat) / 2.0


def involution_dims(perm: np.ndarray) -> tuple[int, int]:
    """Dims (plus, minus) of the +-1 eigenspaces of an involution that
    permutes a basis, given as its index permutation.

    Each fixed point spans a +1 eigenvector and each swapped pair one +1 and
    one -1, so the dims are the traces (len +- fixed) / 2 of (I +- M)/2.
    """
    perm = np.asarray(perm)
    ids = np.arange(len(perm))
    if not np.array_equal(perm[perm], ids):
        raise ValueError("permutation is not an involution")
    fixed = int(np.count_nonzero(perm == ids))
    return (len(perm) + fixed) // 2, (len(perm) - fixed) // 2


@dataclass(frozen=True, eq=False)
class NegationSplit:
    """Central sign-flip eigensplit of the feature span.

    The projectors are r x r, in the span coordinates the lift acts on.
    """

    plus_projector: np.ndarray
    minus_projector: np.ndarray
    plus_dim: int
    minus_dim: int
    span_dim: int


def negation_split(fmap: FeatureMap) -> NegationSplit:
    """Split the feature span by the lifted relation-complement operator.

    In span coordinates the lift is an orthogonal involution; on a
    structured-linear map it is minus the identity, so the plus eigenspace
    is zero.
    """
    lift = lift_renaming(fmap, GroupElementH(tuple(range(fmap.n)), -1))
    p_plus, p_minus = involution_split(lift.span)
    plus_dim = numerics.projector_trace_dim(p_plus)
    minus_dim = numerics.projector_trace_dim(p_minus)
    span_dim = lift.span.shape[0]
    if plus_dim + minus_dim != span_dim:
        raise AssertionError("eigensplit dimensions do not add up to the span")
    return NegationSplit(
        plus_projector=p_plus, minus_projector=p_minus,
        plus_dim=plus_dim, minus_dim=minus_dim,
        span_dim=span_dim,
    )


@dataclass(frozen=True, eq=False)
class IsotypicProjector:
    """One irrep's projector, r x r in the span coordinates of the lifts."""

    irrep: tuple[int, ...]
    irrep_dim: int
    matrix: np.ndarray
    image_dim: int


def isotypic_decompose(fmap: FeatureMap
                       ) -> tuple[list[IsotypicProjector], dict, dict]:
    """Isotypic pieces of the renaming action lifted to the feature span.

    In span coordinates every lift rho(g) is orthogonal.  Each irrep's r x r
    projector is (dim / |G|) sum_mu chi(mu) C_mu over the class sums C_mu of
    the lifts (Serre, Linear Representations of Finite Groups, 2.6).  Each
    lift is added into its class sum as it comes; only the lifts of the
    generators (0 1) and the n-cycle (i -> i + 1 mod n), one element at
    n = 2, are kept.  Also returns a property dict of max deviations:
    idempotence, mutual annihilation, completeness against I_r, commutation
    with the generators (0 1) and the n-cycle, which stands for every lift
    because a matrix that commutes with the generators commutes with every
    product of them, and orthogonality of every lift, the largest of the
    lifts' own `deviation`.  The third value names, for each of the five
    properties, the irreps and the renaming at its maximum (the first one
    in irrep and group order; the commutation renaming is always a
    generator), as JSON.
    """
    n = fmap.n
    perms = symmetric_group(n)
    swap, cycle = (1, 0, *range(2, n)), tuple((i + 1) % n for i in range(n))
    generators: dict[tuple[int, ...], np.ndarray] = {}  # in group order
    deviations = []
    class_sums: dict[tuple[int, ...], np.ndarray] = {}
    for perm in perms:
        lift = lift_renaming(fmap, GroupElementH(perm, 1))
        deviations.append(lift.deviation)
        if perm in (swap, cycle):
            generators[perm] = lift.span
        mu = characters.cycle_type(perm)
        if mu not in class_sums:
            class_sums[mu] = np.zeros_like(lift.span)
        class_sums[mu] += lift.span
    projectors = []
    for lam in characters.partitions(n):
        dim = characters.irrep_dimension(lam)
        proj = (dim / len(perms)) * sum(
            characters.mn_character(lam, mu) * c for mu, c in class_sums.items())
        projectors.append(IsotypicProjector(lam, dim, proj,
                                            numerics.projector_trace_dim(proj)))

    mats = np.stack([p.matrix for p in projectors])
    gens = np.stack(list(generators.values()))
    k, r = mats.shape[:2]

    def worst(dev: np.ndarray) -> np.ndarray:
        """max |dev| over each trailing r x r matrix, overwriting dev."""
        np.abs(dev, out=dev)
        # one flat axis: numpy reduces it far faster than two
        return dev.reshape(*dev.shape[:-2], r * r).max(axis=-1, initial=0.0)

    commutators = mats[:, None] @ gens
    commutators -= gens @ mats[:, None]
    upper = np.triu_indices(k, 1)
    tables = {"idempotence": worst(mats @ mats - mats),
              "annihilation": worst(mats[upper[0]] @ mats[upper[1]]),
              "completeness_on_span": worst(mats.sum(axis=0) - np.eye(r)),
              "commutation": worst(commutators),
              "orthogonality": np.array(deviations)}
    props = {name: float(np.max(table, initial=0.0))
             for name, table in tables.items()}
    props.update(span_dim=r, image_dims={str(list(p.irrep)): p.image_dim
                                         for p in projectors})

    irreps = [list(p.irrep) for p in projectors]
    pairs = [[irreps[i], irreps[j]] for i, j in zip(*upper)]
    first = {name: int(np.argmax(table))  # each table's first maximum
             for name, table in tables.items() if table.size}
    at_irrep, at_gen = divmod(first["commutation"], len(gens))

    def renaming(perm) -> dict:
        return {"perm": list(perm), "sign": 1}

    offenders = {
        "idempotence": {"irrep": irreps[first["idempotence"]]},
        "annihilation": {"irreps": pairs[first["annihilation"]]} if pairs
        else {},
        "completeness_on_span": {},
        "commutation": {"irrep": irreps[at_irrep],
                        "renaming": renaming(list(generators)[at_gen])},
        "orthogonality": {"renaming": renaming(perms[first["orthogonality"]])}}
    return projectors, props, offenders


def pair_space_representation(n: int,
                              perms: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Renaming action on the n^2-dimensional pair space e_(h,t)."""
    return [characters.permutation_matrix(
                tuple(p[h] * n + p[t] for h in range(n) for t in range(n)))
            for p in perms]


def relation_sign_representation(algebra: RelationAlgebra) -> list[np.ndarray]:
    """The two-element sign action on the relation space: identity and complement."""
    return [np.eye(algebra.size),
            characters.permutation_matrix(algebra.images[1])]


@dataclass(frozen=True, eq=False)
class ParityDecomposition:
    """The matched-parity halves of every term, stacked as the terms are:
    u_plus and u_minus are (terms, n, n, context_dim), v_plus and v_minus
    (terms, relations)."""

    u_plus: np.ndarray
    u_minus: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray
    max_cross_residual: float


def parity_decompose(f: FactorizedMap,
                     tol: float = 0.0) -> ParityDecomposition:
    """Split every term into matched-parity components.

    Requires reversal invariance of the assembled map (checked first; the
    first query with the largest deviation is reported otherwise).  Each term
    (u, v) splits into (u+, v+) and (u-, v-); the cross-parity components
    u+ x v- and u- x v+ must cancel on every query, and the largest entry
    of their summed term sums is reported; a max needs no query order.
    """
    algebra = f.feature_map.algebra
    rows = f.feature_map.matrix
    _, _, rev, _ = logical_images(algebra)  # rows follow LogicalOp order
    dev = np.max(np.abs(rows[rev] - rows), axis=1)
    worst = int(np.argmax(dev))
    if dev[worst] > tol:
        query = decode_queries(worst, algebra.entity_set.n, algebra.size)
        raise ConverseInvarianceError(Query(*query), float(dev[worst]))

    u_plus, u_minus = _halves(f.u, f.u.transpose(0, 2, 1, 3).copy())
    v_plus, v_minus = _halves(f.v, f.v[:, algebra.images[2]])
    cross = _term_sum(u_plus, v_minus, algebra)
    cross += _term_sum(u_minus, v_plus, algebra)
    return ParityDecomposition(u_plus, u_minus, v_plus, v_minus,
                               float(np.max(np.abs(cross), initial=0.0)))


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
    rank threshold of the whole system (`numerics.rank_threshold`: REL_TOL
    times its largest row norm).  A column that no row touches is free.
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
