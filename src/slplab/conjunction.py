"""Conjunctive compounds over atomic queries, and the collapse mechanism.

A compound query is a set of distinct literals (negated, atom), held as one
int code: each literal of a support gets one bit, and a compound's code is
the OR of its literals' bits.  The codes hard-code the lattice laws:
conjunction is the OR of codes (associative, commutative, and idempotent,
so p AND p is p), and negation flips the sign of one literal, so double
negation is eliminated.  Negation applies to literals only, so the closure
of a set of atoms is every nonempty set of its literals and stabilizes at
depth 2 (`closure_codes`).  Inside a check, a support is an int64 code
array, and the image of a pair is the support element whose code is the OR
of theirs.  `Compound`, the sorted tuple of a code's literals, is only the
name a report prints for a support element.

Conjunction with a context is well defined on features only if it maps the
kernel of the support -> feature map into itself, i.e. if the substituted
feature matrix keeps its columns in the span of the feature matrix's
columns (`check_kernel_stability`).  Substitutions compose as unions,
S_{c OR c'} = S_{c'} S_c, so the check gathers only the generator contexts,
the union-irreducible ones, which on a full closure are the 2k literals.
Then conjunction is a symmetric bilinear operator F with
F(feature(p), feature(q)) = feature(p AND q) on realized pairs.  Fitting F
is a linear least-squares problem over groups of pairs with equal rows.
Where the rows obey the product law, each the AND of its literals' 0/1
rows, a pair's image row follows from its two rows, so the groups are
counted from the distinct rows alone (`_law_groups`); any other support
walks its pairs once (`_walk_groups`).  The groups that share a first row
form a block of the design that is linear in the weighted second rows, so
one QR per block compresses it before the solve: each of the two fits runs
on m min(m, c) rows, for m distinct rows and c classes of equal worlds.
Idempotence makes F(u, u) = u for every literal feature u, and if negation
also flips feature signs then F(u, u) must simultaneously equal u and -u,
which is impossible unless u = 0.  The collapse certificate measures
exactly that obstruction: the minimum total squared violation is
2 * sum of squared feature norms, attained at F = 0.
A possible-worlds assignment (0/1 truth values per world, conjunction =
elementwise product, negation = 1 - x) satisfies consistency without sign
equivariance and keeps the feasible regime honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import numerics
from .queryspace import Query
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


def closure_codes(n_literals: int, depth: int = 2) -> np.ndarray:
    """Codes of the closure over literal bits 0 .. n_literals - 1, in
    `Compound` order: the literal bits, then, from depth 2 on, every code of
    two or more bits in lexicographic order of its bit indices.  A
    conjunction of conjunctions is again a literal set, so any depth bound
    >= 2 closes to the same codes; depth 1 keeps the literals only."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    literal_bits = np.left_shift(1, np.arange(n_literals, dtype=np.int64))
    if depth < 2:
        return literal_bits
    # the nonempty subsets of bits b.. in lexicographic order: {b}, then {b}
    # joined to each subset of bits b+1.., then the subsets of bits b+1..
    subsets = np.zeros(0, dtype=np.int64)
    for bit in literal_bits[::-1]:
        subsets = np.concatenate([[bit], bit | subsets, subsets])
    return np.concatenate([literal_bits,
                           subsets[(subsets & (subsets - 1)) != 0]])


def _literals(atoms: Sequence[Query]) -> tuple[tuple[bool, Query], ...]:
    """The atoms' literals, sorted: bit i of a code names entry i."""
    return tuple(sorted({(negated, q) for q in atoms
                         for negated in (False, True)}))


def _decode(literals: Sequence[tuple[bool, Query]], code: int) -> Compound:
    found = tuple(lit for i, lit in enumerate(literals) if code >> i & 1)
    return Compound(len(found) > 1, found)


@dataclass(frozen=True, eq=False)
class ConjFeatureAssignment:
    """Feature rows over a support of normal-form compounds, held as codes.

    Entry i of the sorted `literals` names bit i of a code.  `codes` holds
    one int64 per support element in `Compound` order, and row i of `rows`
    is element i's feature vector; `rows` is made read-only, since
    `matrix()` hands it out uncopied.  Compounds are decoded from the codes
    only where a name is read: `order`, `compound` and `features`.
    """

    literals: tuple[tuple[bool, Query], ...]
    codes: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        if not len(self.codes):
            raise ValueError("empty assignment")
        if len(self.literals) > 25:
            raise ValueError("a support holds at most 25 distinct literals")
        self.rows.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def compound(self, i: int) -> Compound:
        """Support element i, decoded from its code."""
        return _decode(self.literals, int(self.codes[i]))

    @cached_property
    def order(self) -> tuple[Compound, ...]:
        return tuple(_decode(self.literals, code)
                     for code in self.codes.tolist())

    @property
    def features(self) -> Mapping:
        return _Features(self)

    @cached_property
    def lookup(self) -> np.ndarray:
        """Support index of each of the 2^k literal codes (k <= 25), -1
        outside the support; a pair's image is lookup[codes[a] | codes[b]]."""
        table = np.full(int(np.bitwise_or.reduce(self.codes)) + 1, -1)
        table[self.codes] = np.arange(len(self.codes))
        return table

    def matrix(self) -> np.ndarray:
        return self.rows


class _Features(Mapping):
    """Compound -> feature row, read through the codes: its len() decodes
    nothing, and a lookup encodes one compound."""

    def __init__(self, assignment: ConjFeatureAssignment):
        self._assignment = assignment

    def __len__(self) -> int:
        return len(self._assignment.codes)

    def __iter__(self):
        return iter(self._assignment.order)

    def __getitem__(self, x: Compound) -> np.ndarray:
        literals = self._assignment.literals
        try:
            code = sum(1 << literals.index(lit) for lit in x.literals)
        except ValueError:  # a literal outside the support
            raise KeyError(x) from None
        position = int(self._assignment.lookup[code])
        if position < 0:
            raise KeyError(x)
        return self._assignment.rows[position]


# Cells per block of a support-row walk (one row at least, if a row holds
# more): the walks' arrays are at most this many entries long.
PAIR_BLOCK = 1 << 16


def _row_blocks(n_rows: int, n_cols: int):
    """Consecutive row ranges of an n_rows x n_cols table, PAIR_BLOCK cells
    at a time."""
    step = max(1, PAIR_BLOCK // max(n_cols, 1))
    for start in range(0, n_rows, step):
        yield np.arange(start, min(start + step, n_rows))


def _stability_contexts(assignment: ConjFeatureAssignment
                        ) -> tuple[np.ndarray, int, int]:
    """(generators, admissible contexts, pairs skipped) of a support.

    A context is admissible when every support element's image stays in the
    support; a pair is skipped when its image does not.  The generators are
    the union-irreducible admissible contexts, in support order: those that
    are not the union of the admissible contexts strictly inside them.  A
    full closure, which holds every nonempty set of its literals, admits
    every context and skips no pair, and its generators are its literals.
    Any other support counts its skipped pairs in a walk over blocks of
    support rows, then compares each admissible context with the union of
    those strictly inside it, again in blocks.
    """
    codes = assignment.codes
    n = len(codes)
    if n == (1 << len(assignment.literals)) - 1:
        return np.flatnonzero((codes & (codes - 1)) == 0), n, 0
    admissible, skipped = [], 0
    for rows in _row_blocks(n, n):
        images = assignment.lookup[codes[rows, None] | codes]
        missing = np.count_nonzero(images < 0, axis=1)
        admissible.append(rows[missing == 0])
        skipped += int(missing.sum())
    admissible = np.concatenate(admissible)
    inside = codes[admissible]
    reducible = np.zeros(len(inside), dtype=bool)
    for rows in _row_blocks(len(inside), len(inside)):
        own = inside[rows, None]
        below = ((inside & ~own) == 0) & (inside != own)
        union = np.bitwise_or.reduce(np.where(below, inside, 0), axis=1)
        reducible[rows] = union == own[:, 0]
    return admissible[~reducible], len(inside), skipped


def check_kernel_stability(assignment: ConjFeatureAssignment) -> Report:
    """Conjunction-with-a-context must map the kernel into the kernel.

    Every support element is a context.  For context c, the substitution
    operator S_c sends the unit vector of p to the unit vector of
    normalize(p AND c).  A context is skipped when any support element's
    image leaves the truncated support (the skip is reported, never silently
    ignored).  The kernel of the support -> feature map is the orthogonal
    complement of col(matrix), so S_c preserves it exactly when every column
    of G = matrix[images] lies in col(matrix).  The matrix's thin SVD
    (`numerics.Spectrum`) gives the span basis B = u[:, :kernel_rank] at the
    kernel threshold rank_threshold(matrix.T), whose margin is `kernel_rank`;
    a context's deviation is the largest column norm of G - B (B.T G),
    compared with the span threshold rank_threshold(matrix).

    Only the generators are gathered (`_stability_contexts`).  Conjunction
    is the union of codes, so S_{c OR c'} = S_{c'} S_c on the admissible
    contexts, and those contexts are closed under union: if S_c and S_{c'}
    keep the kernel, so does their product.  Every element of a finite
    lattice is a join of join-irreducibles, so in exact arithmetic the
    generators decide every admissible context, and on a full closure there
    are 2k of them, not 4^k - 1.  With a tolerance they decide it only up to
    conditioning: a product's residual is bounded through the map's
    conditioning alone, so a near-threshold map can pass on its generators
    while a composite context's residual exceeds `tol`.  `max_deviation` and
    `violations` are read on the generators (`generators_checked`);
    `contexts_checked` counts the admissible contexts this decides, and
    `pairs_checked` kernel vectors times those contexts.
    """
    codes = assignment.codes
    matrix = assignment.matrix()
    spec = numerics.Spectrum(matrix)
    basis = spec.u[:, :spec.kernel_rank]
    kernel_dim = len(codes) - spec.kernel_rank
    tol = spec.span_threshold
    generators, contexts_checked, pairs_skipped = \
        _stability_contexts(assignment)
    worst = 0.0
    violations = []
    for c in generators:
        gathered = matrix[assignment.lookup[codes | codes[c]]]  # S_c, gathered
        outside = gathered - basis @ (basis.T @ gathered)
        dev = float(np.max(np.linalg.norm(outside, axis=0), initial=0.0))
        worst = max(worst, dev)
        if dev > tol:
            violations.append({"context": repr(assignment.compound(c)),
                               "residual": dev})
    return Report(
        check="kernel_stability",
        passed=not violations,
        max_deviation=worst,
        details={"kernel_dim": kernel_dim,
                 "kernel_rank": spec.kernel_margin(),
                 "contexts_checked": contexts_checked,
                 "contexts_skipped": len(codes) - contexts_checked,
                 "generators_checked": len(generators),
                 "pairs_skipped": pairs_skipped,
                 "pairs_checked": kernel_dim * contexts_checked,
                 "violations": violations, "tol": tol},
    )


def _triangle_design(outer: np.ndarray, triangle) -> np.ndarray:
    """Rows of the least-squares system for a symmetric bilinear unknown.

    Unknowns are the upper-triangle tensor entries T[c, a, b] with a <= b,
    at the positions `triangle`, the np.triu_indices of the d x d outer
    products; given outer products u v^T, the coefficient of T[., a, b] in
    F(u, v) is u_a v_b + u_b v_a off the diagonal and u_a v_a on it.
    """
    rows_idx, cols_idx = triangle
    design = outer[:, rows_idx, cols_idx] + outer[:, cols_idx, rows_idx]
    design[:, rows_idx == cols_idx] /= 2.0
    return design


def _triangle_tensor(x: np.ndarray, triangle) -> np.ndarray:
    """The symmetric d x d x d tensor of the upper-triangle unknowns x, one
    row per position of `triangle` and one column per output."""
    rows_idx, cols_idx = triangle
    d = x.shape[1]
    tensor = np.zeros((d, d, d))
    tensor[:, rows_idx, cols_idx] = x.T
    tensor[:, cols_idx, rows_idx] = x.T
    return tensor


@dataclass(frozen=True, eq=False)
class FitResult:
    """A bilinear fit, its operator kept as class tensor and world classes."""

    tensor: np.ndarray
    world_class: np.ndarray
    max_residual: float
    uniqueness_gap: float
    n_constraints: int
    n_pairs_skipped: int
    n_groups: int
    worst_pair: tuple[Compound, Compound, Compound]

    def apply(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """F(u, v) in O(worlds + c^3), through class sums U, V: class pair
        (a, b) weighs U_a V_b / (k_a k_b), and (a, a) weighs (2 U_a V_a -
        sum_{x in a} u_x v_x) / (k_a (2 k_a - 1)), as the minimum-norm fit
        spreads each class entry (`fit_bilinear`)."""
        c, world_class = len(self.tensor), self.world_class
        k = np.bincount(world_class, minlength=c).astype(float)
        su, sv = np.bincount(world_class, u, c), np.bincount(world_class, v, c)
        weight = np.outer(su, sv) / np.outer(k, k)
        np.fill_diagonal(weight, (2.0 * su * sv - np.bincount(
            world_class, u * v, c)) / (k * (2.0 * k - 1.0)))
        return np.einsum("oab,ab->o", self.tensor, weight)[world_class]


def _pair_blocks(assignment: ConjFeatureAssignment):
    """Realized pairs a <= b with their images, in np.triu_indices order.

    Yields (a, b, image, skipped) per block of support rows, where skipped
    counts the block's triangle pairs whose image leaves the support.
    """
    codes = assignment.codes
    n = len(codes)
    cols = np.arange(n)
    for rows in _row_blocks(n, n):
        images = assignment.lookup[codes[rows, None] | codes]
        aa, bb = np.nonzero((cols >= rows[:, None]) & (images >= 0))
        kk = images[aa, bb]
        yield aa + rows[0], bb, kk, int(np.sum(n - rows)) - len(kk)


def _merge_keys(keys: np.ndarray, counts: np.ndarray, firsts: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One entry per distinct key, in key order: its summed count and its
    least first position."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are >= 0
    return (keys[starts], np.add.reduceat(counts[order], starts),
            np.minimum.reduceat(firsts[order], starts))


def _walk_groups(assignment: ConjFeatureAssignment
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                            int]:
    """(distinct rows, keys, counts, firsts, pairs skipped) of the distinct
    (row of p, row of q, row of the image) triples of the pairs p <= q.

    The rows get ids from np.unique, and one walk over the pairs in blocks
    of support rows (`_pair_blocks`) counts the triples.  A triple's key is
    (id(p) m + id(q)) m + id(image), in key order, with its count of pairs
    and the walk position a n + b of its first pair (a, b).  Every block's
    triples merge into one table, whose size follows the m distinct rows,
    never the pairs.  np.unique reads one column per class of equal world
    columns (`_world_classes`), as a repeat never decides a row order.
    """
    n = len(assignment.codes)
    _, first_world = _world_classes(assignment.rows)
    _, first, row_id = np.unique(assignment.rows[:, first_world], axis=0,
                                 return_index=True, return_inverse=True)
    values = assignment.rows[first]
    row_id = row_id.reshape(-1)
    m = len(values)
    # a triple's key is below m^3, inside int64 for m < 2^21 distinct rows,
    # far more than a walk of at least m^2 / 2 pairs can visit
    keys = counts = firsts = np.zeros(0, dtype=np.int64)
    skipped = 0
    for aa, bb, kk, missed in _pair_blocks(assignment):
        keys, counts, firsts = _merge_keys(
            np.concatenate([keys, (row_id[aa] * m + row_id[bb]) * m +
                            row_id[kk]]),
            np.concatenate([counts, np.ones(len(kk), dtype=np.int64)]),
            np.concatenate([firsts, aa * n + bb]))
        skipped += missed
    return values, keys, counts, firsts, skipped


def _product_law(assignment: ConjFeatureAssignment) -> np.ndarray | None:
    """The rows packed into bits (np.packbits) when the product law holds,
    else None.

    The law holds when the support is a full closure, every nonempty set of
    its k literals exactly once, every entry is +0.0 or 1.0 (bitwise, so
    -0.0 breaks it), and every row is the AND of its literals' rows.  Then
    every pair's image is in the support and its row is the AND of the
    pair's rows, so a pair's image row follows from its two rows alone.
    The check takes k passes over the packed rows.
    """
    codes, rows = assignment.codes, assignment.rows
    k = len(assignment.literals)
    lookup = assignment.lookup
    if (len(codes) != (1 << k) - 1 or len(lookup) != len(codes) + 1
            or not (lookup[1:] >= 0).all() or rows.dtype != np.float64):
        return None
    ones = rows == 1.0
    if not (ones | ((rows == 0.0) & ~np.signbit(rows))).all():
        return None
    # one row's bytes must be contiguous for `_law_groups` to view them
    packed = np.ascontiguousarray(np.packbits(ones, axis=1))
    product = np.full_like(packed, 0xFF)  # every code has a bit, so the
    for bit in range(k):                  # padding bits end up 0
        product[(codes >> bit & 1) == 1] &= packed[lookup[1 << bit]]
    return packed if np.array_equal(product, packed) else None


def _law_groups(assignment: ConjFeatureAssignment, packed: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                           int]:
    """`_walk_groups`'s table, bit for bit, without the walk, for a support
    that holds the product law (`_product_law`, whose packed rows it takes).

    The packed rows sort as their 0/1 rows do, so np.unique over them
    gives the same distinct rows, ids and order.  Every pair p <= q is
    realized and its image row follows from its rows, so a triple is a
    pair (i, j) of row ids with count #{a <= b : id(a) = i, id(b) = j},
    summed from prefix counts of the ids over blocks of support rows
    (`PAIR_BLOCK` cells).  A group's first pair in walk order starts at the
    first row a of id i, and ends at the first row b >= a of id j, one
    searchsorted over the rows in id-major order; its image is
    lookup[codes[a] | codes[b]].
    """
    codes = assignment.codes
    n = len(codes)
    _, first, row_id = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1),
        return_index=True, return_inverse=True)
    m = len(first)
    counts = np.zeros((m, m), dtype=np.int64)
    seen = np.zeros(m, dtype=np.int64)  # rows of each id before the block
    for rows in _row_blocks(n, m):
        ids = row_id[rows]
        below = np.zeros((len(rows), m), dtype=np.int64)
        below[np.arange(len(rows)), ids] = 1
        below = np.cumsum(below, axis=0) + seen  # #{a <= b : id(a) = i}
        seen = below[-1]
        order = np.argsort(ids, kind="stable")
        starts = np.flatnonzero(np.diff(ids[order], prepend=-1))
        counts[:, ids[order][starts]] += \
            np.add.reduceat(below[order], starts).T
    gi, gj = np.nonzero(counts)
    id_major = np.sort(row_id * n + np.arange(n))
    a = first[gi]
    b = id_major[np.searchsorted(id_major, gj * n + a)] - gj * n
    image_id = row_id[assignment.lookup[codes[a] | codes[b]]]
    return (assignment.rows[first], (gi * m + gj) * m + image_id,
            counts[gi, gj], a * n + b, 0)


def _world_classes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(class of each world, first world of each class): worlds whose
    feature columns are exactly equal share a class, numbered in order of
    first occurrence.  One stable sort puts equal columns in a run; like ==,
    it takes -0.0 for 0.0, and a column holding NaN equals no other."""
    order = np.lexsort(values)
    columns = values[:, order]
    starts = np.r_[True, (columns[:, 1:] != columns[:, :-1]).any(axis=0)]
    first = np.empty_like(order)  # each world's first equal world
    first[order] = order[starts][np.cumsum(starts) - 1]
    classes = np.flatnonzero(first == np.arange(len(first)))
    return np.searchsorted(classes, first), classes


def fit_bilinear(assignment: ConjFeatureAssignment) -> FitResult:
    """Least-squares symmetric bilinear operator matching realized pairs.

    Constraints run over unordered support pairs (p, q) whose normalized
    conjunction stays in the support (p = q included, which encodes
    idempotence), each asking F(u, v) = w for the features u, v of p, q
    and w of their image.  The pairs are counted in a table of distinct
    (row of p, row of q, row of the image) triples, each with its first
    pair in walk order, whose size follows the distinct rows, never the
    pairs.  On a support that holds the product law (`_product_law`: a
    full closure of 0/1 rows, each the AND of its literals' rows), which
    the check takes O(N k worlds) to decide for k literals, the table comes
    from prefix counts of the distinct rows (`_law_groups`), and no pair is
    visited; any other support, such as a depth-1 one, walks the pairs once
    in blocks of support rows (`_walk_groups`).  Both give the same table,
    bit for bit, where both apply.  Pairs whose rows are equal give equal
    design rows, so the solve runs over groups of pairs: the c pairs of an
    ordered row pair (i, j) enter as one design row and target mean, both
    scaled by sqrt(c), which changes the pair objective only by a constant,
    so the normal equations, and with them the minimum-norm solution, are
    the pairs' own (weighted least squares).

    Worlds whose feature columns are equal (`_world_classes`, k worlds to
    a class) give equal design columns and equal targets, so both fits run
    in class coordinates: one output per class, and one unknown per class
    pair whose column is scaled by the square root of the summed squared
    coefficients of the member unknowns it stands for, sqrt(k_a k_b), or
    sqrt(k (2k - 1)) for a diagonal triangle unknown, whose k diagonal and
    k(k-1)/2 off-diagonal members enter with coefficients 1 and 2.  That
    scaling keeps the minimum-norm solution, which spreads a class entry M
    over its members in proportion to their coefficients: M / (k_a k_b) on
    each member pair, or M / (k (2k - 1)) on each member's diagonal and
    twice that on each member pair.  With no repeated world every class
    has one world and every scale is 1.

    The symmetric fit reads F through the triangle design, which is
    symmetric in u and v, so its groups (i, j) and (j, i) share a design
    row and count as one unordered group (`n_groups`).  An independent
    second fit over all class pairs sees u v^T, which is not symmetric.
    Neither design is formed a row per group.  Group (i, j) has the row
    w_ij tri(v_i v_j^T) in the first and w_ij v_i v_j^T in the second, for
    w_ij = sqrt(c_ij), 0 where no pair lies: block i of either design is
    linear in the weighted rows W_i V, W_i = diag(w_i.).  One batched QR,
    W_i V = Q_i R_i, turns block i into the min(m, c) rows read from R_i's
    rows in place of the v_j, with targets Q_i^T T_i.  An orthogonal change
    of a block's rows keeps its least-squares problem, and with it the
    minimum-norm solution (Golub & Van Loan, Matrix Computations, 5.3), so
    each solve runs on m min(m, c) rows, for m distinct rows and c classes.

    Every pair's prediction is read from the pair table V X_o V^T, one
    m x m table per output o.  The operator is only determined on the
    realized span, so `uniqueness_gap` compares the two fits there: the
    largest entry, over the realized groups, of the table of their
    difference, the second fit symmetrized.  Pairs of one triple share
    their fit and their target, so `max_residual` is the largest triple
    residual, over every pair, not over group means, and `worst_pair`
    names the first pair (p, q, image) in walk order that reaches it.
    """
    codes = assignment.codes
    n = len(codes)
    packed = _product_law(assignment)
    values, keys, counts, firsts, skipped = (
        _walk_groups(assignment) if packed is None
        else _law_groups(assignment, packed))
    m = len(values)
    n_constraints = int(counts.sum())
    if not n_constraints:
        raise ValueError("no realized conjunction pairs inside the support")
    pair, image_row = np.divmod(keys, m)

    world_class, first_world = _world_classes(values)
    values = values[:, first_world]
    size = np.bincount(world_class).astype(float)
    c = len(size)
    group_counts = np.zeros(m * m, dtype=np.int64)
    np.add.at(group_counts, pair, counts)
    sums = np.zeros((m * m, c))
    np.add.at(sums, pair, counts[:, None] * values[image_row])
    group_counts = group_counts.reshape(m, m)
    weight = np.sqrt(group_counts)[:, :, None]
    q, r = np.linalg.qr(weight * values)  # block i: W_i V = Q_i R_i
    # an absent pair has weight 0 and sums 0, and its target row is 0
    targets = (q.transpose(0, 2, 1) @ (
        sums.reshape(m, m, c) / np.maximum(weight, 1.0))).reshape(-1, c)
    outer = (values[:, None, :, None] * r[:, :, None, :]).reshape(-1, c, c)
    columns = np.arange(c)  # np.triu_indices(c), without its overhead
    triangle = rows_idx, cols_idx = np.nonzero(columns[:, None] <= columns)
    scale = np.sqrt(np.where(rows_idx == cols_idx,
                             size[rows_idx] * (2.0 * size[rows_idx] - 1.0),
                             size[rows_idx] * size[cols_idx]))
    x = numerics.minnorm_lstsq(_triangle_design(outer, triangle) * scale,
                               targets) * scale[:, None]
    scale_full = np.sqrt(np.outer(size, size)).reshape(-1)
    x_full = numerics.minnorm_lstsq(outer.reshape(-1, c * c) * scale_full,
                                    targets)
    tensor = _triangle_tensor(x, triangle)
    tensor_full = (x_full * scale_full[:, None]).T.reshape(c, c, c)
    other = (tensor_full + tensor_full.transpose(0, 2, 1)) / 2.0

    # the pair tables V X_o V^T, one m x m table per output o
    realized = (group_counts + group_counts.T) > 0
    gap = float(np.max(np.abs((values @ (tensor - other) @ values.T
                               ).reshape(c, m * m)[:, realized.reshape(-1)])))
    table = (values @ tensor @ values.T).reshape(c, m * m)
    residual = np.max(np.abs(table[:, pair].T - values[image_row]), axis=1)
    max_residual = float(np.max(residual))
    a, b = divmod(int(np.min(firsts[residual == max_residual])), n)
    worst = (a, b, int(assignment.lookup[codes[a] | codes[b]]))

    # the symmetric table holds each off-diagonal group twice
    n_groups = (np.count_nonzero(realized) +
                np.count_nonzero(realized.diagonal())) // 2
    return FitResult(tensor, world_class, max_residual, gap,
                     n_constraints, skipped, int(n_groups),
                     tuple(assignment.compound(i) for i in worst))


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
    to be u and -u at once; the best compromise F(u,u) = 0 leaves 2|u|^2 per
    atom, the floor the solve reproduces.  Unflagged, any features a diagonal
    operator fixes, e.g. 0/1 truth vectors, are feasible.  The design reads
    u = Q r, for Q an orthonormal basis of the atoms' span, by r alone:
    u^T F_c u = r^T (Q^T F_c Q) r, and Q^T F_c Q is any symmetric matrix.
    """
    feats = [np.asarray(u, dtype=float) for u in atom_features]
    if not feats:
        raise ValueError("need at least one atom feature")
    d = feats[0].shape[0]
    if any(u.shape != (d,) for u in feats):
        raise ValueError("atom features must share one dimension")
    us = np.stack(feats)
    r = np.linalg.qr(us.T, mode="r").T
    design_rows = _triangle_design(r[:, :, None] * r[:, None, :],
                                   np.triu_indices(r.shape[1]))
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
    not sign-equivariant.  Atoms are synthetic relation slots.  The closure
    is held as `closure_codes`, and each row is one product over the code's
    literal bits (bit i is atom i, bit n_atoms + i its negation), exact for
    0/1 truth values.
    """
    rng = np.random.default_rng(seed)
    atoms = tuple(Query(0, i, 0) for i in range(n_atoms))
    truth = rng.integers(0, 2, size=(n_atoms, n_worlds)).astype(float)
    codes = closure_codes(2 * n_atoms, depth)
    rows = np.ones((len(codes), n_worlds))
    for bit, value in enumerate(np.concatenate([truth, 1.0 - truth])):
        rows[((codes >> bit) & 1).astype(bool)] *= value
    return ConjFeatureAssignment(_literals(atoms), codes, rows), atoms
