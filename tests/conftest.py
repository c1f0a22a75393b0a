"""Fixtures and the independent oracles that more than one test module
compares the library against."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from slplab import factorize, numerics
from slplab.characters import cycle_type, permutation_matrix
from slplab.gradlab import _apply_block_update, gradient, score
from slplab.queryspace import (GroupElementH, LogicalOp, Query,
                               compute_families, decode_queries)
from slplab.relalg import EntitySet, Relation, RelationAlgebra, close_unary

settings.register_profile("slplab", database=None, derandomize=True,
                          deadline=None, max_examples=60)
settings.load_profile("slplab")


def relation_from_code(n: int, code: int) -> Relation:
    """The relation on n entities holding (h, t) iff bit h*n + t of `code`
    is set: the bit-code order of `all_relations`."""
    cells = [code >> p & 1 for p in range(n * n)]
    return Relation(EntitySet.of_size(n), np.array(cells, bool).reshape(n, n))


def relation_strategy(n: int):
    """Arbitrary relation over n entities, drawn by its bit code."""
    return st.integers(min_value=0, max_value=(1 << (n * n)) - 1).map(
        lambda code: relation_from_code(n, code))


def proper_relation_strategy(n: int):
    """Neither empty nor full, so the unary closure has four distinct images."""
    return st.integers(min_value=1, max_value=(1 << (n * n)) - 2).map(
        lambda code: relation_from_code(n, code))


@pytest.fixture(scope="session")
def algebra_3():
    """|E| = 3, one asymmetric base relation; closure size 4, 9 families."""
    entity_set = EntitySet.of_size(3)
    base = Relation.from_pairs(entity_set, [(0, 1), (1, 2)], "r0")
    return close_unary([base])


@pytest.fixture(scope="session")
def algebra_3x2():
    """|E| = 3, two base relations; closure size 8, 18 families."""
    entity_set = EntitySet.of_size(3)
    return close_unary([
        Relation.from_pairs(entity_set, [(0, 1), (1, 2)], "r0"),
        Relation.from_pairs(entity_set, [(0, 0), (2, 1)], "r1"),
    ])


@pytest.fixture(scope="session")
def algebra_2():
    """|E| = 2, one asymmetric base relation."""
    entity_set = EntitySet.of_size(2)
    base = Relation.from_pairs(entity_set, [(0, 1)], "r0")
    return close_unary([base])


def pairs_of(relation: Relation) -> set[tuple[int, int]]:
    """Set-semantics view, the independent oracle for the matrix operations."""
    return set(relation.pairs())


def relation_from_set(entity_set: EntitySet, pair_set) -> Relation:
    return Relation.from_pairs(entity_set, sorted(pair_set))


def brute_negate(r: Relation) -> set[tuple[int, int]]:
    n = r.entity_set.n
    return {(h, t) for h in range(n) for t in range(n)} - pairs_of(r)


def brute_converse(r: Relation) -> set[tuple[int, int]]:
    return {(t, h) for h, t in pairs_of(r)}


def brute_compose(r: Relation, s: Relation) -> set[tuple[int, int]]:
    n = r.entity_set.n
    rs, ss = pairs_of(r), pairs_of(s)
    return {(h, t) for h in range(n) for t in range(n)
            if any((h, b) in rs and (b, t) in ss for b in range(n))}


def random_proper_relation(entity_set: EntitySet, rng: np.random.Generator,
                           density: float = 0.5, name: str | None = None) -> Relation:
    """Rejection-sample a relation that is neither empty nor full."""
    n = entity_set.n
    while True:
        draw = rng.random((n, n)) < density
        if 0 < draw.sum() < n * n:
            return Relation(entity_set, draw, name)


def kernel_basis(matrix) -> np.ndarray:
    """Reference kernel of the query -> feature map, one vector per row.

    The left singular vectors of a full SVD past the rank decided at
    rank_threshold(m.T); each must map to features of norm at most
    rank_threshold(m).
    """
    m = np.asarray(matrix, dtype=float)
    u, sv, _ = np.linalg.svd(m, full_matrices=True)
    basis = u[:, int(np.sum(sv > numerics.rank_threshold(m.T))):].T
    assert np.all(np.linalg.norm(basis @ m, axis=1)
                  <= numerics.rank_threshold(m))
    return basis


def family_kernel_reference(fmap):
    """Kernel-basis witness for check_family_kernel_decomposition.

    Restricts every reference kernel vector to each family of the map's
    closure, computed afresh, and fails the family when a nonzero
    restriction maps to features of norm above rank_threshold(m).  Returns
    (passed, kernel_dim, failing family indices).
    """
    m = np.array(fmap.matrix)
    basis = kernel_basis(m)
    tol = numerics.rank_threshold(m)
    failing = []
    for i, fam in enumerate(compute_families(fmap.algebra)):
        rows = np.unique(fam)  # a size-2 orbit lists its members twice
        restricted = basis[:, rows]
        devs = np.linalg.norm(restricted @ m[rows], axis=1)
        if np.any(devs[np.any(restricted != 0.0, axis=1)] > tol):
            failing.append(i)
    return not failing, basis.shape[0], failing


def rank(matrix: np.ndarray) -> int:
    """Numerical rank at the package-wide relative threshold."""
    sv = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    return int(np.sum(sv > numerics.rank_threshold(matrix)))


# ------------------------------------------------------------------ queries

def enumerate_queries(algebra: RelationAlgebra) -> tuple[Query, ...]:
    """All queries over the closed relation set, ordered by (head, rel, tail)."""
    n = algebra.entity_set.n
    return tuple(itertools.starmap(Query, itertools.product(
        range(n), range(algebra.size), range(n))))


def families_to_json(families: np.ndarray,
                     algebra: RelationAlgebra) -> list[dict]:
    """The partition as JSON, one dict per family and per member: the
    reference document for `queryspace.families_text`, representatives and
    sorted signed members, a size-2 orbit's repeated members written once."""
    signs = np.array([op.sign for op in LogicalOp])
    order = np.argsort(families, axis=1, kind="stable")
    members = np.take_along_axis(families, order, axis=1)
    fresh = np.diff(members, axis=1, prepend=-1) != 0  # size-2 orbits repeat
    return [{"representative": queries[0],
             "members": [{"query": q, "sign": s}
                         for q, s, keep in zip(queries, row_signs, fresh_row)
                         if keep]}
            for queries, row_signs, fresh_row in zip(
                decode_queries(members, algebra.entity_set.n, algebra.size),
                signs[order].tolist(), fresh.tolist())]


def compose_renamings(g: GroupElementH, h: GroupElementH) -> GroupElementH:
    """g after h."""
    perm = tuple(g.perm[h.perm[i]] for i in range(len(g.perm)))
    return GroupElementH(perm, g.sign * h.sign)


def witnesses(r: Relation, s: Relation, head: int, tail: int) -> set[int]:
    """All middle entities b with (head, b) in r and (b, tail) in s."""
    if r.entity_set != s.entity_set:
        raise ValueError("relations live on different entity sets")
    rs, ss = pairs_of(r), pairs_of(s)
    return {b for b in range(r.entity_set.n)
            if (head, b) in rs and (b, tail) in ss}


# ---------------------------------------------------------------- Sym(n)

def perm_sign(perm: tuple[int, ...]) -> int:
    """Sign of a permutation: (-1)^(n - number of cycles)."""
    return -1 if (len(perm) - len(cycle_type(perm))) % 2 else 1


def standard_rep(perms, n: int) -> list[np.ndarray]:
    """The (n-1)-dimensional irreducible on the sum-zero subspace of R^n."""
    basis = _sum_zero_basis(n)
    return [basis.T @ permutation_matrix(p) @ basis for p in perms]


def sym_generators(n):
    """(0 1) and the n-cycle i -> i + 1 mod n, which generate Sym(n)."""
    return [(1, 0, *range(2, n)), tuple((i + 1) % n for i in range(n))]


def conjugate_lift_at(monkeypatch, fault):
    """Make factorize.lift_renaming return the lift of `fault` in a random
    orthonormal basis, Q rho Q^T: still orthogonal and of the same trace,
    but no longer part of a representation.  Returns the list of renamings
    lifted, in call order."""
    lift_renaming, calls = factorize.lift_renaming, []

    def lift(fmap, g):
        calls.append(g)
        lifted = lift_renaming(fmap, g)
        if g.perm != fault:
            return lifted
        r = len(lifted.span)
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((r, r)))[0]
        span = q @ lifted.span @ q.T
        return dataclasses.replace(lifted, span=span, deviation=float(
            np.max(np.abs(span @ span.T - np.eye(r)), initial=0.0)))

    monkeypatch.setattr(factorize, "lift_renaming", lift)
    return calls


def _sum_zero_basis(n: int) -> np.ndarray:
    """Orthonormal columns spanning the sum-zero subspace (Helmert style)."""
    cols = []
    for k in range(1, n):
        v = np.zeros(n)
        v[:k] = 1.0
        v[k] = -k
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


# ------------------------------------------------------------------ gradlab

FD_STEP = 1e-5  # central finite-difference step


def finite_difference_gradient(model, q: Query, block: str) -> np.ndarray:
    """Central-difference oracle over the block's flattened parameters."""
    step = FD_STEP
    g = gradient(model, q, block)
    out = np.zeros_like(g)
    unit = np.zeros_like(g)
    for i in range(g.size):
        unit[:] = 0.0
        unit[i] = 1.0
        plus = _apply_block_update(model, step * unit, block)
        minus = _apply_block_update(model, -step * unit, block)
        out[i] = (score(plus, q) - score(minus, q)) / (2.0 * step)
    return out
