"""Conjunction normal form, bilinear fits, kernel stability, and collapse."""

import itertools
import math
import tracemalloc
from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import witnesses
from slplab import conjunction, numerics
from slplab.cli import MAX_CELLS
from slplab.conjunction import (Compound, ConjFeatureAssignment, _decode,
                                _literals, _triangle_design, _triangle_tensor,
                                check_kernel_stability, closure_codes,
                                collapse_certificate, fit_bilinear,
                                possible_worlds_assignment)
from slplab.queryspace import Query
from slplab.relalg import EntitySet, Relation, RelationAlgebra, close_unary


# ------------------------------------------- Compound oracles of the codes

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


def close_conjunction(atoms: Sequence[Query],
                      depth: int = 2) -> tuple[Compound, ...]:
    """Normal-form closure of the atoms under negation and conjunction,
    decoded from `closure_codes`: level 1 holds the literals (atoms and
    negated atoms), level 2 all conjunctions of two or more distinct
    literals."""
    literals = _literals(atoms)
    return tuple(_decode(literals, code)
                 for code in closure_codes(len(literals), depth).tolist())


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


def build_assignment(features: Mapping) -> ConjFeatureAssignment:
    """The assignment of a hand-built {Compound: vector} support."""
    if not features:
        raise ValueError("empty assignment")
    dims = {np.asarray(v).shape for v in features.values()}
    if len(dims) != 1 or len(next(iter(dims))) != 1:
        raise ValueError("features must be vectors of one common dimension")
    clean = {k: np.asarray(v, dtype=float) for k, v in features.items()}
    for k, v in clean.items():
        if not np.all(np.isfinite(v)):
            raise ValueError(f"non-finite feature for {k}")
    order = sorted(clean)
    literals = tuple(sorted({lit for x in order for lit in x.literals}))
    bits = {lit: 1 << i for i, lit in enumerate(literals)}
    codes = np.array([sum(bits[lit] for lit in x.literals) for x in order],
                     dtype=np.int64)
    return ConjFeatureAssignment(literals, codes,
                                 np.stack([clean[x] for x in order]))


def literal_strategy(n_atoms: int = 3):
    base = st.integers(min_value=0, max_value=n_atoms - 1).map(
        lambda i: atom(Query(0, i, 0)))
    return st.one_of(base, base.map(neg))


# ---------------------------------------------------------------- normal form

@given(literal_strategy(), literal_strategy())
def test_conj_commutative(a, b):
    assert conj(a, b) == conj(b, a)


@given(literal_strategy(), literal_strategy(), literal_strategy())
def test_conj_associative_by_flattening(a, b, c):
    assert conj(conj(a, b), c) == conj(a, b, c) == conj(a, conj(b, c))


@given(literal_strategy())
def test_conj_idempotent_and_singleton(a):
    assert conj(a, a) == a
    assert conj(a) == a


@given(literal_strategy())
def test_double_negation_eliminated(a):
    assert neg(neg(a)) == a
    assert neg(neg(neg(a))) == neg(a)


def test_conj_requires_a_conjunct():
    with pytest.raises(ValueError):
        conj()


@given(literal_strategy(), literal_strategy(), literal_strategy())
def test_normal_forms_are_flat_sorted_literal_lists(a, b, c):
    x = conj(a, b, c)
    assert isinstance(x, Compound)
    assert list(x.literals) == sorted(set(x.literals))
    assert set(x.literals) == set(a.literals + b.literals + c.literals)
    assert all(isinstance(negated, bool) and isinstance(q, Query)
               for negated, q in x.literals)
    assert x.is_conj == (len(x.literals) > 1)


def test_neg_of_a_conjunction_raises():
    p, q = atom(Query(0, 0, 0)), atom(Query(0, 1, 0))
    with pytest.raises(ValueError):
        neg(conj(p, q))
    with pytest.raises(ValueError):
        neg(conj(p, neg(p)))


# -------------------------------------------------------------------- closure

def test_closure_of_one_atom():
    p = Query(0, 0, 0)
    closure = close_conjunction([p])
    assert len(closure) == 3
    a = atom(p)
    assert set(closure) == {a, neg(a), conj(a, neg(a))}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closure_counts_all_literal_subsets(k):
    atoms = [Query(0, i, 0) for i in range(k)]
    closure = close_conjunction(atoms)
    # every nonempty subset of the 2k literals appears exactly once
    assert len(closure) == 2 ** (2 * k) - 1
    assert len(set(closure)) == len(closure)


def test_depth_two_already_closed():
    atoms = [Query(0, i, 0) for i in range(2)]
    two = close_conjunction(atoms, depth=2)
    assert close_conjunction(atoms, depth=3) == two
    assert close_conjunction(atoms, depth=5) == two
    # flat: a literal holds one literal, a conjunction two or more
    assert all(x.is_conj == (len(x.literals) > 1) for x in two)
    closed_under_conj = {conj(p, q) for p, q in itertools.product(two, two)}
    assert closed_under_conj <= set(two)


def test_depth_one_keeps_literals_only():
    atoms = [Query(0, i, 0) for i in range(2)]
    one = close_conjunction(atoms, depth=1)
    assert len(one) == 4
    assert not any(x.is_conj for x in one)
    with pytest.raises(ValueError):
        close_conjunction(atoms, depth=0)


def test_duplicate_atoms_collapse_in_closure():
    p = Query(0, 0, 0)
    assert close_conjunction([p, p]) == close_conjunction([p])


def test_closure_order_at_two_atoms():
    a, b = Query(0, 0, 0), Query(0, 1, 0)
    A, B, nA, nB = (False, a), (False, b), (True, a), (True, b)
    expected = [
        (A,), (B,), (nA,), (nB,),
        (A, B), (A, B, nA), (A, B, nA, nB), (A, B, nB),
        (A, nA), (A, nA, nB), (A, nB),
        (B, nA), (B, nA, nB), (B, nB),
        (nA, nB),
    ]
    closure = close_conjunction([b, a])
    assert [x.literals for x in closure] == expected
    assert [x.is_conj for x in closure] == [False] * 4 + [True] * 11


def itertools_closure(atoms, depth=2):
    """The closure built as Compound objects and sorted: the literals, then
    from depth 2 on every combination of two or more of them."""
    literals = sorted({(negated, q) for q in atoms
                       for negated in (False, True)})
    out = [Compound(False, (lit,)) for lit in literals]
    if depth >= 2:
        out += [Compound(True, combo) for size in range(2, len(literals) + 1)
                for combo in itertools.combinations(literals, size)]
    return tuple(sorted(out))


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_decoded_code_order_is_the_sorted_closure(k, depth):
    # atoms out of order and on distinct slots: literal bits follow the
    # sorted literals, not the argument order
    atoms = [Query(k - i, 2 * i, 0) for i in range(k)]
    expected = itertools_closure(atoms, depth)
    assert close_conjunction(atoms, depth) == expected
    assert len(closure_codes(2 * k, depth)) == len(expected)
    if k:
        assignment, _ = possible_worlds_assignment(k, 3, seed=k, depth=depth)
        assert assignment.order == \
            itertools_closure([Query(0, i, 0) for i in range(k)], depth)
        assert [assignment.compound(i) for i in range(len(expected))] == \
            list(assignment.order)


def test_features_read_through_codes_without_decoding():
    assignment, atoms = possible_worlds_assignment(3, 4, seed=2)
    feats = assignment.features
    assert len(feats) == 63 and "order" not in vars(assignment)
    p, q = atom(atoms[0]), neg(atom(atoms[2]))
    assert feats[conj(p, q)].tolist() == (feats[p] * feats[q]).tolist()
    with pytest.raises(KeyError):
        feats[atom(Query(0, 3, 0))]  # a literal outside the support
    depth_one, _ = possible_worlds_assignment(3, 4, seed=2, depth=1)
    assert conj(p, q) not in depth_one.features and p in depth_one.features
    with pytest.raises(ValueError):
        assignment.matrix()[0, 0] = 2.0  # rows are read-only


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pair_images_match_the_closure_index(k):
    closure = close_conjunction([Query(0, i, 0) for i in range(k)])
    assignment = build_assignment({x: np.ones(1) for x in closure})
    order = list(assignment.order)
    assert order == list(closure)
    n = len(order)
    a, b = np.divmod(np.arange(n * n), n)
    images = assignment.lookup[assignment.codes[a] | assignment.codes[b]]
    assert images.tolist() == [order.index(conj(order[i], order[j]))
                               for i, j in zip(a, b)]
    # 2k literals give 4^k codes: every nonempty one is in the closure
    assert sorted(assignment.lookup.tolist()) == [-1] + list(range(n))


def test_pair_images_outside_the_support_are_minus_one():
    p, q = atom(Query(0, 0, 0)), atom(Query(0, 1, 0))
    assignment = build_assignment({x: np.ones(1) for x in (p, q, neg(p))})
    assert assignment.order == (p, q, neg(p))
    a, b = np.array([0, 0, 0, 1]), np.array([0, 1, 2, 1])
    images = assignment.lookup[assignment.codes[a] | assignment.codes[b]]
    assert images.tolist() == [0, -1, -1, 1]


@given(st.sets(st.integers(0, 62), min_size=1))
@settings(max_examples=40)
def test_lookup_matches_conj_on_truncated_supports(keep):
    closure = close_conjunction([Query(0, i, 0) for i in range(3)])
    assignment = build_assignment({closure[i]: np.ones(1) for i in keep})
    order = list(assignment.order)
    for i, j in itertools.product(range(len(order)), repeat=2):
        image = conj(order[i], order[j])
        expected = order.index(image) if image in order else -1
        assert assignment.lookup[assignment.codes[i] | assignment.codes[j]] \
            == expected


def test_codes_and_order_are_derived_once():
    assignment, _ = possible_worlds_assignment(2, 3, seed=0)
    assert assignment.codes is assignment.codes
    assert assignment.order is assignment.order
    assert assignment.lookup is assignment.lookup
    assert assignment.codes.dtype == np.int64
    # the four literals take one bit each, so every code has one bit per literal
    assert [bin(int(c)).count("1") for c in assignment.codes] == \
        [len(x.literals) for x in assignment.order]


# ------------------------------------------------------------ witness rewrite

def test_unique_witness_rewrites_to_conjunction(algebra_3):
    # base relation {(0,1), (1,2)}: the only path 0 -> 2 runs through 1
    compound, count = unique_witness_reduce(algebra_3, 0, 0, 0, 2)
    assert count == 1
    assert compound == conj(atom(Query(0, 0, 1)), atom(Query(1, 0, 2)))


def test_multiple_witnesses_block_the_rewrite():
    entity_set = EntitySet.of_size(3)
    algebra = close_unary([
        Relation.from_pairs(entity_set, [(0, 1), (0, 2)], "r0"),
        Relation.from_pairs(entity_set, [(1, 2), (2, 2)], "r1"),
    ])
    compound, count = unique_witness_reduce(algebra, 0, 1, 0, 2)
    assert compound is None and count == 2


def test_no_witness_blocks_the_rewrite(algebra_3):
    compound, count = unique_witness_reduce(algebra_3, 0, 0, 2, 0)
    assert compound is None and count == 0


# ----------------------------------------------------------- possible worlds

def test_possible_worlds_is_deterministic():
    a1, atoms1 = possible_worlds_assignment(2, 4, seed=11)
    a2, atoms2 = possible_worlds_assignment(2, 4, seed=11)
    assert atoms1 == atoms2
    assert a1.order == a2.order
    assert np.array_equal(a1.matrix(), a2.matrix())


def test_possible_worlds_features_are_products():
    assignment, atoms = possible_worlds_assignment(2, 5, seed=3)
    feats = assignment.features
    lits = [atom(q) for q in atoms] + [neg(atom(q)) for q in atoms]
    for p, q in itertools.combinations(lits, 2):
        assert np.array_equal(feats[conj(p, q)], feats[p] * feats[q])
    for p in lits:
        assert np.array_equal(feats[neg(p)], 1.0 - feats[p])


def dense_tensor(result) -> np.ndarray:
    """A fit's operator as a dense worlds^3 tensor, output world first.

    Each class entry is spread over its member worlds as the minimum-norm
    solution spreads it: 1 / (k_a k_b) of it on each world pair of two
    classes of k_a and k_b worlds, and within a class of k worlds,
    1 / (k (2k - 1)) of it on each world's diagonal and twice that on each
    pair of distinct worlds.
    """
    world_class = result.world_class
    k = np.bincount(world_class)[world_class].astype(float)
    diagonal = 1.0 / (k * (2.0 * k - 1.0))
    share = np.where(world_class[:, None] == world_class,
                     2.0 * diagonal[:, None], 1.0 / np.outer(k, k))
    np.fill_diagonal(share, diagonal)
    return result.tensor[np.ix_(world_class, world_class, world_class)] * share


def apply_dense(tensor, u, v):
    return np.einsum("cab,a,b->c", tensor, u, v)


@pytest.mark.parametrize("n_atoms,n_worlds", [(2, 2), (2, 4), (3, 4), (4, 8)])
def test_bilinear_fit_reaches_machine_residual(n_atoms, n_worlds):
    assignment, _ = possible_worlds_assignment(n_atoms, n_worlds,
                                               seed=n_atoms * 10 + n_worlds)
    result = fit_bilinear(assignment)
    assert result.max_residual <= 1e-9
    assert result.uniqueness_gap <= 1e-9
    assert result.n_pairs_skipped == 0
    assert result.n_constraints == \
        math.comb(len(assignment.order), 2) + len(assignment.order)


def test_fitted_operator_matches_elementwise_product_oracle():
    assignment, _ = possible_worlds_assignment(2, 4, seed=9)
    result = fit_bilinear(assignment)
    feats = assignment.features
    for p, q in itertools.combinations_with_replacement(assignment.order, 2):
        predicted = result.apply(feats[p], feats[q])
        assert np.max(np.abs(predicted - feats[p] * feats[q])) <= 1e-9


def test_uniqueness_gap_matches_per_pair_predictions():
    # random features are not conjunction-consistent, so the two fits
    # disagree on realized pairs and the gap is far from round-off
    closure = close_conjunction([Query(0, 0, 0), Query(0, 1, 0)])
    rng = np.random.default_rng(4)
    assignment = build_assignment({x: rng.standard_normal(3) for x in closure})
    result = fit_bilinear(assignment)
    feats, order = assignment.features, assignment.order
    pairs = list(itertools.combinations_with_replacement(order, 2))
    targets = np.stack([feats[conj(p, q)] for p, q in pairs])
    design_full = np.stack([np.outer(feats[p], feats[q]).ravel()
                            for p, q in pairs])
    tensor = numerics.minnorm_lstsq(design_full, targets).T.reshape(3, 3, 3)
    other = (tensor + tensor.transpose(0, 2, 1)) / 2.0
    gap = max(np.max(np.abs(result.apply(feats[p], feats[q]) -
                            apply_dense(other, feats[p], feats[q])))
              for p, q in pairs)
    assert gap > 1e-3
    assert abs(result.uniqueness_gap - gap) <= 1e-12 * max(1.0, gap)


def test_fitted_operator_is_symmetric():
    assignment, _ = possible_worlds_assignment(2, 4, seed=1)
    result = fit_bilinear(assignment)
    tensor = dense_tensor(result)
    assert np.array_equal(tensor, tensor.transpose(0, 2, 1))
    rng = np.random.default_rng(0)
    u, v = rng.normal(size=4), rng.normal(size=4)
    assert np.allclose(result.apply(u, v), result.apply(v, u))


# ------------------------------------------- grouped fit vs. one row per pair

def reference_fit(assignment):
    """The ungrouped dense fit: one outer-product design row per realized
    pair a <= b, both least-squares solves over all of them.

    Returns (tensor, max_residual, uniqueness_gap, n_constraints,
    n_pairs_skipped, per-pair residuals, pairs (a, b, image)).
    """
    matrix = assignment.matrix()
    aa, bb = np.triu_indices(len(assignment.order))
    images = assignment.lookup[assignment.codes[aa] | assignment.codes[bb]]
    realized = images >= 0
    ii, jj, kk = aa[realized], bb[realized], images[realized]
    ws = matrix[kk]
    d = assignment.dim
    outer = matrix[ii][:, :, None] * matrix[jj][:, None, :]
    triangle = rows_idx, cols_idx = np.triu_indices(d)
    design = _triangle_design(outer, triangle)
    x = numerics.minnorm_lstsq(design, ws)
    predicted = design @ x
    residuals = np.max(np.abs(predicted - ws), axis=1)
    x_full = numerics.minnorm_lstsq(outer.reshape(len(ii), d * d), ws)
    tensor_full = x_full.T.reshape(d, d, d)
    x_other = (tensor_full[:, rows_idx, cols_idx] +
               tensor_full[:, cols_idx, rows_idx]).T / 2.0
    gap = float(np.max(np.abs(predicted - design @ x_other)))
    return (_triangle_tensor(x, triangle), float(np.max(residuals)), gap,
            len(ii), len(aa) - len(ii), residuals, (ii, jj, kk))


def shared_row_assignment():
    """Two atoms' 15 compounds on three unit feature rows, by support index.

    Many pairs share one row pair, hence one design row, while their images
    sit on different rows: the targets of a group conflict, so the fit can
    only reach each group's mean target.
    """
    closure = close_conjunction([Query(0, 0, 0), Query(0, 1, 0)])
    return build_assignment(
        {x: np.eye(3)[i % 3] for i, x in enumerate(closure)})


def assert_matches_reference(result, assignment):
    tensor, res, gap, n_constraints, skipped, _, _ = reference_fit(assignment)
    scale = max(1.0, float(np.max(np.abs(tensor))))
    assert np.max(np.abs(dense_tensor(result) - tensor)) <= 1e-10 * scale
    assert abs(result.max_residual - res) <= 1e-10 * max(1.0, res)
    assert abs(result.uniqueness_gap - gap) <= 1e-10 * max(1.0, gap)
    assert result.n_constraints == n_constraints
    assert result.n_pairs_skipped == skipped


@pytest.mark.parametrize("n_atoms,n_worlds,depth",
                         [(2, 3, 2), (2, 4, 1), (3, 5, 2), (3, 8, 1),
                          (4, 6, 2)])
def test_grouped_fit_matches_ungrouped_reference(n_atoms, n_worlds, depth):
    assignment, _ = possible_worlds_assignment(n_atoms, n_worlds, seed=7,
                                               depth=depth)
    result = fit_bilinear(assignment)
    assert_matches_reference(result, assignment)
    # depth 1 realizes only p AND p, one pair per distinct row
    assert result.n_groups <= result.n_constraints
    if depth > 1:
        assert result.n_groups < result.n_constraints


def test_grouped_fit_reaches_each_groups_mean_target():
    assignment = shared_row_assignment()
    result = fit_bilinear(assignment)
    assert_matches_reference(result, assignment)
    feats, order = assignment.features, assignment.order
    # a row pair's group is every pair p <= q on it, in either order
    groups = {}
    for p, q in itertools.combinations_with_replacement(order, 2):
        key = tuple(sorted((int(np.argmax(feats[p])), int(np.argmax(feats[q])))))
        groups.setdefault(key, []).append(feats[conj(p, q)])
    assert result.n_groups == len(groups) == 6
    conflicting = [key for key, targets in groups.items()
                   if len({t.tobytes() for t in targets}) > 1]
    assert len(conflicting) >= 3, conflicting
    eye = np.eye(3)
    for (i, j), targets in groups.items():
        fitted = result.apply(eye[i], eye[j])
        assert np.max(np.abs(fitted - np.mean(targets, axis=0))) <= 1e-12
    # the conflicting targets leave a residual, and its first pair is named
    assert result.max_residual > 0.5
    p, q, image = result.worst_pair
    assert order.index(p) <= order.index(q) and image == conj(p, q)
    own = np.max(np.abs(result.apply(feats[p], feats[q]) -
                        feats[image]))
    assert abs(own - result.max_residual) <= 1e-12


def test_worst_pair_is_the_first_pair_at_the_maximum():
    # random features: every pair's residual differs well beyond round-off
    closure = close_conjunction([Query(0, 0, 0), Query(0, 1, 0)])
    rng = np.random.default_rng(11)
    assignment = build_assignment({x: rng.standard_normal(4) for x in closure})
    result = fit_bilinear(assignment)
    assert_matches_reference(result, assignment)
    *_, residuals, (ii, jj, kk) = reference_fit(assignment)
    first = int(np.argmax(residuals))
    order = assignment.order
    assert result.worst_pair == (order[ii[first]], order[jj[first]],
                                 order[kk[first]])
    assert result.n_groups == result.n_constraints


def with_worlds(assignment, layout):
    """The assignment whose world j holds the feature column layout[j]."""
    return ConjFeatureAssignment(assignment.literals, assignment.codes,
                                 assignment.rows[:, list(layout)])


def random_assignment(dim, seed):
    closure = close_conjunction([Query(0, 0, 0), Query(0, 1, 0)])
    rng = np.random.default_rng(seed)
    return build_assignment({x: rng.standard_normal(dim) for x in closure})


@pytest.mark.parametrize("layout", [
    (0, 1, 2),            # class sizes 1, 1, 1
    (0, 1, 1),            # 1, 2
    (0, 0, 0),            # 3
    (0, 1, 1, 2, 2, 2),   # 1, 2, 3
    (2, 0, 2, 1, 0, 2),   # 3, 2, 1, interleaved
])
def test_merged_worlds_fit_matches_ungrouped_reference(layout):
    # equal columns make the design rank deficient, so the class weights
    # decide which minimum-norm solution the merged fit expands to
    assignment = with_worlds(random_assignment(3, seed=len(layout)), layout)
    result = fit_bilinear(assignment)
    assert_matches_reference(result, assignment)
    *_, residuals, (ii, jj, kk) = reference_fit(assignment)
    first = int(np.argmax(residuals))
    order = assignment.order
    assert result.worst_pair == (order[ii[first]], order[jj[first]],
                                 order[kk[first]])
    # worlds of one class get one output
    tensor = dense_tensor(result)
    for j, column in enumerate(layout):
        assert np.array_equal(tensor[j], tensor[layout.index(column)])


def test_merged_worlds_keep_the_conflicting_targets_residual():
    assignment = with_worlds(shared_row_assignment(), (0, 1, 2, 2))
    result = fit_bilinear(assignment)
    assert_matches_reference(result, assignment)
    assert result.max_residual > 0.5
    assert result.n_groups == 6


def test_world_classes_follow_columnwise_equality():
    # the oracle compares every pair of columns with ==, so -0.0 equals 0.0
    # and a column holding NaN equals no other, itself included
    rng = np.random.default_rng(2)
    pool = np.array([0.0, -0.0, 1.0, np.nan, 2.5])
    for _ in range(300):
        columns = pool[rng.integers(0, 5, size=(rng.integers(1, 4), 5))]
        values = columns[:, rng.integers(0, 5, size=rng.integers(1, 12))]
        d = values.shape[1]
        first = [next(i for i in range(d)
                      if i == j or (values[:, i] == values[:, j]).all())
                 for j in range(d)]
        classes = sorted(set(first))
        world_class, firsts = conjunction._world_classes(values)
        assert world_class.tolist() == [classes.index(f) for f in first]
        assert firsts.tolist() == classes


@pytest.mark.parametrize("make", [
    lambda: possible_worlds_assignment(2, 12, seed=3)[0],
    lambda: possible_worlds_assignment(3, 20, seed=1, depth=1)[0],
    lambda: with_worlds(random_assignment(3, seed=5), (2, 0, 2, 1, 0, 2)),
    lambda: with_worlds(shared_row_assignment(), (0, 1, 2, 2)),
])
def test_apply_matches_the_dense_expansion_on_repeated_worlds(make):
    # class sums against the worlds^3 tensor: on the support's rows and on
    # random vectors, whose within-class entries differ
    assignment = make()
    result = fit_bilinear(assignment)
    d = assignment.dim
    assert len(result.tensor) < d
    tensor = dense_tensor(result)
    rows = assignment.matrix()
    rng = np.random.default_rng(0)
    inputs = [(rows[a], rows[b]) for a, b in zip(*np.triu_indices(len(rows)))]
    inputs += [tuple(rng.standard_normal((2, d))) for _ in range(20)]
    for u, v in inputs:
        dense = apply_dense(tensor, u, v)
        gap = np.max(np.abs(result.apply(u, v) - dense))
        assert gap <= 1e-12 * max(1.0, float(np.max(np.abs(dense)))), gap


def few_rows_assignment():
    """Two atoms' 15 compounds on three random rows of 7 worlds: fewer
    distinct rows than world classes, so a block's QR keeps all m rows."""
    closure = close_conjunction([Query(0, 0, 0), Query(0, 1, 0)])
    rows = np.random.default_rng(3).standard_normal((3, 7))
    return build_assignment({x: rows[i % 3] for i, x in enumerate(closure)})


def test_fewer_rows_than_classes_match_ungrouped_reference():
    assignment = few_rows_assignment()
    result = fit_bilinear(assignment)
    assert_matches_reference(result, assignment)
    *_, residuals, (ii, jj, kk) = reference_fit(assignment)
    first = int(np.argmax(residuals))
    order = assignment.order
    assert result.worst_pair == (order[ii[first]], order[jj[first]],
                                 order[kk[first]])
    assert result.max_residual > 0.5 and result.n_groups == 6


@pytest.mark.parametrize("make", [
    lambda: possible_worlds_assignment(4, 16, seed=7)[0],
    lambda: possible_worlds_assignment(3, 8, seed=2, depth=1)[0],
    lambda: with_worlds(random_assignment(3, seed=5), (0, 1, 1, 2, 2, 2)),
    shared_row_assignment,
    few_rows_assignment,
])
def test_fit_solves_two_designs_of_m_min_m_c_rows(make, monkeypatch):
    # one row per group would give 1,431 and 1,612 rows at 4 atoms, 16
    # worlds and seed 7, where m min(m, c) is 53 x 11 = 583
    assignment = make()
    shapes = []
    solve = numerics.minnorm_lstsq

    def recorded(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(numerics, "minnorm_lstsq", recorded)
    fit_bilinear(assignment)
    rows = np.unique(assignment.matrix(), axis=0)
    m, c = len(rows), len(np.unique(rows.T, axis=0))
    # unknowns: the c(c+1)/2 triangle entries, then the c^2 ordered ones
    assert [cols for _, cols in shapes] == [c * (c + 1) // 2, c * c]
    assert all(n_rows <= m * min(m, c) for n_rows, _ in shapes), (m, c,
                                                                   shapes)


def counted_walks(monkeypatch) -> list:
    """The assignments `_pair_blocks` walks from here on."""
    walks = []
    walk = conjunction._pair_blocks

    def counted(assignment):
        walks.append(assignment)
        return walk(assignment)

    monkeypatch.setattr(conjunction, "_pair_blocks", counted)
    return walks


def test_law_fit_never_walks_the_pairs(monkeypatch):
    walks, row_sorts = counted_walks(monkeypatch), []
    unique = np.unique

    def counted_unique(*args, **kwargs):
        if kwargs.get("axis") is not None or len(args) > 4:
            row_sorts.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted_unique)
    assignment = possible_worlds_assignment(3, 6, seed=4)[0]
    result = fit_bilinear(assignment)
    assert walks == [] and row_sorts == []
    assert_matches_reference(result, assignment)


def test_fit_walks_a_non_law_support_once(monkeypatch):
    walks = counted_walks(monkeypatch)
    # blocks of 4 support rows: one walk, several blocks
    monkeypatch.setattr(conjunction, "PAIR_BLOCK", 4 * 15)
    assignment = shared_row_assignment()
    assert_matches_reference(fit_bilinear(assignment), assignment)
    assert walks == [assignment]


def law_groups(assignment):
    packed = conjunction._product_law(assignment)
    assert packed is not None
    return conjunction._law_groups(assignment, packed)


def assert_same_groups(found, expected):
    """(values, keys, counts, firsts) bit for bit, and 0 pairs skipped."""
    for name, x, y in zip(("values", "keys", "counts", "firsts"),
                          found, expected):
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name
    assert found[4] == expected[4] == 0


@pytest.mark.parametrize("n_atoms,n_worlds,seed", [
    (1, 1, 0), (1, 3, 1), (2, 2, 2), (2, 16, 3), (3, 5, 4), (3, 9, 5),
    (4, 8, 6), (4, 17, 7), (5, 12, 8), (6, 8, 9),
])
def test_law_groups_equal_the_walk_bitwise(n_atoms, n_worlds, seed):
    # above 8 worlds a row packs into several bytes; 2 atoms at 16 worlds
    # and 1 atom at 3 have at most 4 and 2 distinct world columns
    assignment, _ = possible_worlds_assignment(n_atoms, n_worlds, seed)
    assert_same_groups(law_groups(assignment),
                       conjunction._walk_groups(assignment))


def test_law_groups_equal_the_walk_on_repeated_worlds():
    assignment = with_worlds(possible_worlds_assignment(3, 5, seed=1)[0],
                             (0, 1, 1, 4, 0, 2, 3, 3, 4, 1))
    assert_same_groups(law_groups(assignment),
                       conjunction._walk_groups(assignment))


@pytest.mark.parametrize("rows_per_block", [1, 5])
def test_law_groups_in_small_blocks(rows_per_block, monkeypatch):
    assignment, _ = possible_worlds_assignment(3, 10, seed=2)
    whole = law_groups(assignment)
    # blocks of rows_per_block support rows; the last block is shorter
    monkeypatch.setattr(conjunction, "PAIR_BLOCK",
                        rows_per_block * len(whole[0]))
    assert len(assignment.codes) % 5
    assert_same_groups(law_groups(assignment), whole)
    assert_same_groups(law_groups(assignment),
                       conjunction._walk_groups(assignment))


def break_law(kind: str) -> ConjFeatureAssignment:
    """A worlds model altered so that the product law fails in one way."""
    assignment, _ = possible_worlds_assignment(
        3, 6, seed=4, depth=1 if kind == "depth 1" else 2)
    literals = assignment.literals
    codes, rows = assignment.codes.copy(), assignment.rows.copy()
    zeros = np.argwhere(rows == 0.0)
    if kind == "half":
        rows[0, 0] = 0.5
    elif kind == "negative zero":
        rows[tuple(zeros[0])] = -0.0
    elif kind == "not a product":
        # a conjunction's 0 is some literal's 0, so a 1 there breaks it
        conjunctions = (codes & (codes - 1)) != 0
        rows[tuple(zeros[conjunctions[zeros[:, 0]]][0])] = 1.0
    elif kind == "truncated":
        codes, rows = codes[:-1], rows[:-1]
    elif kind == "a repeated code":
        codes[-1], rows[-1] = codes[0], rows[0]
    elif kind == "an unused literal":
        literals += ((True, Query(0, 9, 0)),)
    elif kind == "the last literal dropped":
        codes &= (1 << (len(literals) - 1)) - 1  # repeats codes, and 0
    return ConjFeatureAssignment(literals, codes, rows)


@pytest.mark.parametrize("kind", ["half", "negative zero", "not a product",
                                  "truncated", "a repeated code",
                                  "an unused literal",
                                  "the last literal dropped", "depth 1"])
def test_fit_walks_a_support_that_breaks_the_law(kind, monkeypatch):
    assignment = break_law(kind)
    assert conjunction._product_law(assignment) is None
    walks = counted_walks(monkeypatch)
    assert_matches_reference(fit_bilinear(assignment), assignment)
    assert walks == [assignment]


@pytest.mark.parametrize("make", [
    lambda: possible_worlds_assignment(3, 6, seed=4)[0],
    lambda: possible_worlds_assignment(3, 4, seed=5, depth=1)[0],
    shared_row_assignment,
])
def test_pair_blocks_do_not_change_the_fit(make, monkeypatch):
    one_block = fit_bilinear(make())
    n = len(make().order)
    # blocks of 4 support rows; the last block is shorter
    monkeypatch.setattr(conjunction, "PAIR_BLOCK", 4 * n)
    assert n % 4
    blocked = fit_bilinear(make())
    assert np.array_equal(dense_tensor(blocked), dense_tensor(one_block))
    for field in ("max_residual", "uniqueness_gap", "n_constraints",
                  "n_pairs_skipped", "n_groups", "worst_pair"):
        assert getattr(blocked, field) == getattr(one_block, field), field


def test_fit_forms_no_pair_sized_array():
    # at 5 atoms, a quarter of one P x worlds float64 array of its P pairs
    # (33.5 MB); at 8 atoms, where one byte per pair takes 2.1 GB, four
    # times the N x worlds features
    for n_atoms, bound in ((5, 1023 * 1024 // 2 * 8 * 8 / 4),
                           (8, 4 * 65535 * 8 * 8)):
        assignment, _ = possible_worlds_assignment(n_atoms, 8, seed=0)
        assignment.lookup
        tracemalloc.start()
        try:
            result = fit_bilinear(assignment)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(assignment.codes)
        assert n == 4 ** n_atoms - 1
        assert result.n_constraints == n * (n + 1) // 2
        assert peak < bound, (n_atoms, peak)


# ----------------------------------------------------------- kernel stability

def test_possible_worlds_kernel_is_stable():
    assignment, _ = possible_worlds_assignment(2, 4, seed=5)
    report = check_kernel_stability(assignment)
    assert report.passed
    assert report.details["contexts_skipped"] == 0
    assert report.details["kernel_dim"] == \
        len(assignment.order) - np.linalg.matrix_rank(assignment.matrix())
    assert report.details["kernel_dim"] > 0


def test_adversarial_assignment_violates_stability():
    p = atom(Query(0, 0, 0))
    support = {p: np.array([1.0, 0.0]),
               neg(p): np.array([1.0, 0.0]),
               conj(p, neg(p)): np.array([0.0, 1.0])}
    assignment = build_assignment(support)
    report = check_kernel_stability(assignment)
    assert not report.passed
    assert report.details["kernel_dim"] == 1
    assert report.details["violations"]
    assert report.max_deviation > 0.1


def test_trivial_kernel_is_vacuously_stable():
    p = atom(Query(0, 0, 0))
    support = {p: np.array([1.0, 0.0, 0.0]),
               neg(p): np.array([0.0, 1.0, 0.0]),
               conj(p, neg(p)): np.array([0.0, 0.0, 1.0])}
    report = check_kernel_stability(build_assignment(support))
    assert report.passed
    assert report.details["kernel_dim"] == 0


def test_contexts_outside_support_are_skipped_not_ignored():
    p, q = atom(Query(0, 0, 0)), atom(Query(0, 1, 0))
    support = {p: np.array([1.0, 0.0]), q: np.array([0.0, 1.0])}
    report = check_kernel_stability(build_assignment(support))
    # p AND q falls outside the support, so both contexts are skipped
    assert report.details["contexts_skipped"] == 2
    assert report.details["contexts_checked"] == 0
    assert report.passed  # nothing checked, nothing violated
    # with a kernel, an image outside the support must never stand in for
    # another element's features: wrapped to the last row, context p would
    # send (1, 0, 0) outside the span
    support = {p: np.array([1.0, 0.0]), q: np.array([1.0, 0.0]),
               neg(p): np.array([0.0, 1.0])}
    report = check_kernel_stability(build_assignment(support))
    assert report.details["kernel_dim"] == 1
    assert report.details["contexts_skipped"] == 3
    assert report.details["pairs_skipped"] == 6
    assert report.passed and report.max_deviation == 0.0


def kernel_basis_stability(assignment):
    """Second witness: the kernel-basis form of the check, with conj() images.

    A full SVD's null space of matrix.T is multiplied into every context's
    gathered features, and a context violates when some kernel vector's
    image has a norm above rank_threshold(matrix).
    """
    order = assignment.order
    matrix = assignment.matrix()
    _, sv, vt = np.linalg.svd(matrix.T, full_matrices=True)
    kernel = vt[int(np.sum(sv > numerics.rank_threshold(matrix.T))):]
    tol = numerics.rank_threshold(matrix)
    index = {x: i for i, x in enumerate(order)}
    checked, skipped, violating = 0, 0, []
    for context in order:
        images = [index.get(conj(p, context)) for p in order]
        if None in images:
            skipped += 1
            continue
        checked += 1
        norms = np.linalg.norm(kernel @ matrix[images], axis=1)
        if norms.size and norms.max() > tol:
            violating.append(repr(context))
    return {"passed": not violating, "kernel_dim": kernel.shape[0],
            "contexts_checked": checked, "contexts_skipped": skipped,
            "violating": violating}


def span_stability(assignment):
    report = check_kernel_stability(assignment)
    return {"passed": report.passed, **{key: report.details[key] for key in (
        "kernel_dim", "contexts_checked", "contexts_skipped")},
        "violating": [v["context"] for v in report.details["violations"]]}


@pytest.mark.parametrize("n_atoms,n_worlds", [(1, 1), (1, 3), (2, 2), (2, 5),
                                              (3, 4), (3, 8), (4, 6)])
def test_span_check_matches_the_kernel_basis_witness(n_atoms, n_worlds):
    assignment, _ = possible_worlds_assignment(n_atoms, n_worlds, seed=n_worlds)
    expected = kernel_basis_stability(assignment)
    assert span_stability(assignment) == expected
    assert expected["passed"] and expected["kernel_dim"] > 0


# violations on the generators, the closure's literal contexts, by row
GENERATOR_VIOLATIONS = {2: 2, 0: 0, 3: 4, 9: 3, 36: 2}


@pytest.mark.parametrize("n_atoms,n_worlds,row,n_violating", [
    (1, 1, 2, 3), (1, 2, 0, 0), (2, 3, 3, 7), (2, 4, 9, 7), (3, 4, 36, 3)])
def test_span_check_matches_the_witness_on_a_perturbed_row(n_atoms, n_worlds,
                                                            row, n_violating):
    assignment, _ = possible_worlds_assignment(n_atoms, n_worlds, seed=row)
    features = dict(assignment.features)
    moved = assignment.order[row]
    features[moved] = features[moved] + \
        0.5 * np.random.default_rng(row).standard_normal(n_worlds)
    perturbed = build_assignment(features)
    expected = kernel_basis_stability(perturbed)
    assert len(expected["violating"]) == n_violating
    assert all_context_stability(perturbed)["violating"] == \
        expected["violating"]
    got = span_stability(perturbed)
    violating = got.pop("violating")
    assert got == {key: expected[key] for key in got}
    # the generators decide the verdict; each violation they name is one
    # of every context's
    assert set(violating) <= set(expected["violating"])
    assert len(violating) == GENERATOR_VIOLATIONS[row]


def all_context_stability(assignment):
    """The check over every context: each admissible context is gathered
    and projected, and the skipped pairs are counted context by context."""
    order = assignment.order
    matrix = assignment.matrix()
    spec = numerics.Spectrum(matrix)
    basis = spec.u[:, :spec.kernel_rank]
    tol = spec.span_threshold
    worst, violating, missing = 0.0, [], []
    for c, code in enumerate(assignment.codes):
        images = assignment.lookup[assignment.codes | code]
        missing.append(int(np.count_nonzero(images < 0)))
        if missing[-1]:
            continue
        gathered = matrix[images]
        outside = gathered - basis @ (basis.T @ gathered)
        dev = float(np.max(np.linalg.norm(outside, axis=0), initial=0.0))
        worst = max(worst, dev)
        if dev > tol:
            violating.append(repr(order[c]))
    return {"passed": not violating, "max_deviation": worst,
            "contexts_checked": missing.count(0),
            "contexts_skipped": len(order) - missing.count(0),
            "pairs_skipped": sum(missing), "violating": violating}


def assert_decides_like_every_context(assignment):
    report = check_kernel_stability(assignment)
    expected = all_context_stability(assignment)
    assert report.passed == expected["passed"]
    if report.passed:
        assert report.max_deviation == expected["max_deviation"]  # bitwise
    else:
        # the generators are a subset of the contexts
        assert report.max_deviation <= expected["max_deviation"]
    for key in ("contexts_checked", "contexts_skipped", "pairs_skipped"):
        assert report.details[key] == expected[key], key
    return report


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("n_atoms,n_worlds,seeds", [
    (2, 3, 3), (2, 8, 3), (3, 4, 3), (3, 16, 3), (4, 8, 3), (5, 8, 2),
    (6, 8, 1)])
def test_generators_decide_like_every_context(n_atoms, n_worlds, seeds, depth):
    for seed in range(seeds):
        assignment, _ = possible_worlds_assignment(n_atoms, n_worlds, seed,
                                                   depth)
        report = assert_decides_like_every_context(assignment)
        assert report.passed
        # a full closure's generators are its literals; the literals alone
        # admit no context, since a AND b leaves them
        assert report.details["generators_checked"] == \
            (2 * n_atoms if depth > 1 else 0)


def test_truncated_support_checks_its_irreducible_contexts():
    # the support A, A&B, A&B&~B, A&~B admits every context, and A&B&~B is
    # the union of A&B and A&~B: the generators are A and two conjunctions
    a, b = atom(Query(0, 0, 0)), atom(Query(0, 1, 0))
    support = [a, conj(a, b), conj(a, neg(b)), conj(a, b, neg(b))]
    worlds, _ = possible_worlds_assignment(2, 5, seed=3)
    stable = build_assignment({x: worlds.features[x] for x in support})
    report = assert_decides_like_every_context(stable)
    assert report.passed and report.details["kernel_dim"] > 0
    assert report.details["contexts_checked"] == 4
    assert report.details["generators_checked"] == 3
    # random rows: context A acts as the identity, so only the conjunction
    # generators can see the violation
    rng = np.random.default_rng(0)
    unstable = build_assignment({x: rng.standard_normal(2) for x in support})
    report = assert_decides_like_every_context(unstable)
    violating = [v["context"] for v in report.details["violations"]]
    assert violating == [repr(conj(a, b)), repr(conj(a, neg(b)))]
    assert set(violating) <= set(all_context_stability(unstable)["violating"])
    # with A&B&~B gone, A&B and A&~B leave the support under each other
    partial = build_assignment({x: worlds.features[x] for x in support[:3]})
    report = assert_decides_like_every_context(partial)
    assert report.details["contexts_checked"] == 1
    assert report.details["generators_checked"] == 1
    assert report.details["pairs_skipped"] == 2


def test_eight_atoms_check_sixteen_generators():
    assignment, _ = possible_worlds_assignment(8, 8, seed=0)
    n = len(assignment.codes)
    tracemalloc.start()
    try:
        report = check_kernel_stability(assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and n == 65535
    assert report.details["contexts_checked"] == n
    assert report.details["generators_checked"] == 16
    assert "order" not in vars(assignment)
    # a few N x worlds arrays; one N x N table would take 34 GB
    assert peak < 8 * n * 8 * 8, peak


def test_kernel_stability_reports_the_kernel_rank_margin():
    assignment, _ = possible_worlds_assignment(3, 4, seed=2)
    report = check_kernel_stability(assignment)
    matrix = assignment.matrix()
    sv = np.linalg.svd(matrix, full_matrices=False)[1]
    threshold = numerics.rank_threshold(matrix.T)
    margin = report.details["kernel_rank"]
    assert margin == numerics.rank_margin(sv, threshold)
    assert margin["smallest_kept_sv"] > threshold >= margin["largest_rejected_sv"]
    assert report.details["kernel_dim"] == \
        len(assignment.order) - int(np.sum(sv > threshold))


def test_kernel_stability_fails_just_above_its_tolerance():
    # one entry of a full-column-rank worlds model moved by delta: the
    # generators that gather its row leave the span by about 34 delta / tol
    # times the threshold, so 1e-7 fails between tol and 100 tol, and its
    # twin at 1e-9 passes with a nonzero residual under tol
    assignment, _ = possible_worlds_assignment(3, 8, seed=0)
    for delta, passed in ((1e-7, False), (1e-9, True)):
        rows = assignment.rows.copy()
        rows[5, 0] += delta
        report = check_kernel_stability(
            ConjFeatureAssignment(assignment.literals, assignment.codes, rows))
        tol = report.details["tol"]
        assert report.passed is passed
        assert bool(report.details["violations"]) is not passed
        if passed:
            assert 0.0 < report.max_deviation <= tol
        else:
            assert tol < report.max_deviation < 100 * tol
            assert all(tol < v["residual"] < 100 * tol
                       for v in report.details["violations"])


def test_assignment_validation():
    p = atom(Query(0, 0, 0))
    with pytest.raises(ValueError):
        build_assignment({})
    with pytest.raises(ValueError):
        build_assignment({p: np.array([1.0]), neg(p): np.array([1.0, 2.0])})
    with pytest.raises(ValueError):
        build_assignment({p: np.array([np.nan, 0.0])})
    with pytest.raises(ValueError):
        build_assignment({p: np.eye(2)})


def test_assignment_rejects_more_than_25_literals():
    atoms = [atom(Query(0, i, 0)) for i in range(13)]
    literals = atoms + [neg(x) for x in atoms]
    assert len(literals) == 26
    with pytest.raises(ValueError, match="25"):
        build_assignment({x: np.ones(1) for x in literals})
    assignment = build_assignment({x: np.ones(1) for x in literals[:25]})
    # the 25th literal takes the top bit, so the lookup table would hold
    # exactly the CLI's cell budget; it is not built here (268 MB)
    assert int(np.bitwise_or.reduce(assignment.codes)) + 1 == 2 ** 25 \
        == MAX_CELLS


def test_kernel_stability_forms_no_pair_table():
    assignment, _ = possible_worlds_assignment(5, 8, seed=0)
    n = len(assignment.order)
    tracemalloc.start()
    try:
        report = check_kernel_stability(assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.details["contexts_checked"] == n == 1023
    # one N x N int64 table alone takes 8.4 MB
    assert peak < n * n * 8 / 8, peak


# ----------------------------------------------------------------- collapse

def test_single_unit_atom_collapse_floor():
    u = np.zeros(6)
    u[2] = 1.0
    cert = collapse_certificate([u], enforce_neg_equiv=True)
    assert abs(cert.residual_sq - 2.0) <= 1e-6
    assert cert.verdict == "infeasible"
    assert cert.margin == cert.residual


@pytest.mark.parametrize("n_atoms,dim,seed", [(1, 2, 0), (2, 4, 1), (3, 5, 2),
                                              (4, 8, 3)])
def test_collapse_floor_matches_analytic_value(n_atoms, dim, seed):
    rng = np.random.default_rng(seed)
    feats = [rng.normal(size=dim) for _ in range(n_atoms)]
    cert = collapse_certificate(feats, enforce_neg_equiv=True)
    floor = 2.0 * sum(float(np.dot(u, u)) for u in feats)
    assert abs(cert.residual_sq - floor) <= 1e-9 * max(1.0, floor)
    assert cert.feature_norms == tuple(float(np.linalg.norm(u)) for u in feats)


def test_collapse_residual_zero_iff_features_zero():
    zero = collapse_certificate([np.zeros(3), np.zeros(3)],
                                enforce_neg_equiv=True)
    assert zero.residual <= 1e-9 and zero.verdict == "feasible"
    assert zero.margin == 0.0
    tiny = collapse_certificate([np.full(3, 1e-3)], enforce_neg_equiv=True)
    assert tiny.residual > 1e-9 and tiny.verdict == "infeasible"


def test_no_collapse_without_sign_equivariance():
    rng = np.random.default_rng(4)
    truth = rng.integers(0, 2, size=(3, 6)).astype(float)
    cert = collapse_certificate(list(truth), enforce_neg_equiv=False)
    assert cert.residual <= 1e-9
    assert cert.verdict == "feasible"


def test_generic_features_feasible_without_flag():
    rng = np.random.default_rng(8)
    feats = [rng.normal(size=5) for _ in range(3)]
    cert = collapse_certificate(feats, enforce_neg_equiv=False)
    assert cert.residual <= 1e-9


def full_dim_residual_sq(feats, enforce_neg_equiv):
    """The certificate's residual from the design on all dim(dim+1)/2
    entries of each F_c: the coefficient of F_c[a, b], a <= b, in
    u^T F_c u is u_a u_b, twice over off the diagonal."""
    us = np.stack(feats)
    a, b = np.triu_indices(us.shape[1])
    design = us[:, a] * us[:, b] * np.where(a == b, 1.0, 2.0)
    targets = us
    if enforce_neg_equiv:
        design = np.concatenate([design, design])
        targets = np.concatenate([us, -us])
    x = numerics.minnorm_lstsq(design, targets)
    return float(np.sum((design @ x - targets) ** 2))


def near_parallel_pairs():
    rng = np.random.default_rng(11)
    for dim in (3, 10):
        u, w = rng.standard_normal((2, dim))
        for exponent in range(4, 15):
            yield [u, u + 10.0 ** -exponent * w]


def collapse_feature_sets():
    rng = np.random.default_rng(5)
    for n_atoms in range(1, 9):
        for dim in (*range(1, 13), 50):
            feats = rng.standard_normal((n_atoms, dim))
            feats /= np.linalg.norm(feats, axis=1, keepdims=True)
            yield list(feats)
    u, v = rng.standard_normal((2, 6))
    yield [u, u, v]                      # a repeated atom
    yield [u, v, u, v, 2.0 * u]          # repeats spanning two dims
    yield list(rng.standard_normal((8, 3)))   # more atoms than dims
    yield list(rng.integers(0, 2, size=(5, 4)).astype(float))


def verdict_of(residual_sq, tolerance=1e-8):
    return "feasible" if math.sqrt(residual_sq) <= tolerance else "infeasible"


@pytest.mark.parametrize("enforce_neg_equiv", [True, False])
def test_span_design_matches_the_full_dim_design(enforce_neg_equiv):
    for feats in collapse_feature_sets():
        cert = collapse_certificate(feats, enforce_neg_equiv)
        ref = full_dim_residual_sq(feats, enforce_neg_equiv)
        scale = max(1.0, 2.0 * sum(float(u @ u) for u in feats))
        assert abs(cert.residual_sq - ref) <= 1e-12 * scale, feats
        assert cert.verdict == verdict_of(ref)


@pytest.mark.parametrize("enforce_neg_equiv", [True, False])
def test_near_parallel_atoms_keep_the_exact_residual(enforce_neg_equiv):
    # pairs of atoms 1e-4 to 1e-14 apart: the exact residual is the floor
    # 2 sum |u|^2 under the flag and 0 without it.  Under the flag the
    # full-dim design's fit drifts from the floor as the two rows near each
    # other, by 4e-5 at 1e-14 apart, so there it witnesses only the verdict.
    for feats in near_parallel_pairs():
        cert = collapse_certificate(feats, enforce_neg_equiv)
        ref = full_dim_residual_sq(feats, enforce_neg_equiv)
        floor = 2.0 * sum(float(u @ u) for u in feats)
        exact = floor if enforce_neg_equiv else 0.0
        assert abs(cert.residual_sq - exact) <= 1e-12 * max(1.0, floor)
        assert cert.verdict == verdict_of(ref)
        if not enforce_neg_equiv:
            assert ref <= 1e-12


def test_collapse_validation():
    with pytest.raises(ValueError):
        collapse_certificate([])
    with pytest.raises(ValueError):
        collapse_certificate([np.zeros(2), np.zeros(3)])


def test_collapse_to_dict_round_trip_fields():
    cert = collapse_certificate([np.ones(2)], enforce_neg_equiv=True)
    d = cert.to_dict()
    assert d["verdict"] == "infeasible"
    assert d["residual_sq"] == cert.residual_sq
    assert d["enforce_neg_equiv"] is True
    assert d["feature_norms"] == [cert.feature_norms[0]]
