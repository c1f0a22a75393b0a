"""Conjunction normal form, bilinear fits, kernel stability, and collapse."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slplab import numerics
from slplab.conjunction import (BilinearOperator, Compound,
                                ConjFeatureAssignment, _pair_images, atom,
                                check_kernel_stability, close_conjunction, collapse_certificate, conj,
                                fit_bilinear, is_literal, neg,
                                possible_worlds_assignment,
                                unique_witness_reduce)
from slplab.queryspace import Query
from slplab.relalg import EntitySet, Relation, close_unary


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
    assert x.is_conj == (len(x.literals) > 1) == (not is_literal(x))


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
    assert all(is_literal(x) for x in one)
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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pair_images_match_the_closure_index(k):
    closure = close_conjunction([Query(0, i, 0) for i in range(k)])
    assignment = ConjFeatureAssignment.build({x: np.ones(1) for x in closure})
    order = list(assignment.order)
    assert order == list(closure)
    n = len(order)
    a, b = np.divmod(np.arange(n * n), n)
    images = _pair_images(assignment.codes, a, b)
    assert images.tolist() == [order.index(conj(order[i], order[j]))
                               for i, j in zip(a, b)]


def test_pair_images_outside_the_support_are_minus_one():
    p, q = atom(Query(0, 0, 0)), atom(Query(0, 1, 0))
    assignment = ConjFeatureAssignment.build(
        {x: np.ones(1) for x in (p, q, neg(p))})
    assert assignment.order == (p, q, neg(p))
    images = _pair_images(assignment.codes, np.array([0, 0, 0, 1]),
                          np.array([0, 1, 2, 1]))
    assert images.tolist() == [0, -1, -1, 1]


def test_codes_and_order_are_derived_once():
    assignment, _ = possible_worlds_assignment(2, 3, seed=0)
    assert assignment.codes is assignment.codes
    assert assignment.order is assignment.order
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
        predicted = result.operator.apply(feats[p], feats[q])
        assert np.max(np.abs(predicted - feats[p] * feats[q])) <= 1e-9


def test_uniqueness_gap_matches_per_pair_predictions():
    # random features are not conjunction-consistent, so the two fits
    # disagree on realized pairs and the gap is far from round-off
    closure = close_conjunction([Query(0, 0, 0), Query(0, 1, 0)])
    rng = np.random.default_rng(4)
    assignment = ConjFeatureAssignment.build(
        {x: rng.standard_normal(3) for x in closure})
    result = fit_bilinear(assignment)
    feats, order = assignment.features, assignment.order
    pairs = list(itertools.combinations_with_replacement(order, 2))
    targets = np.stack([feats[conj(p, q)] for p, q in pairs])
    design_full = np.stack([np.outer(feats[p], feats[q]).ravel()
                            for p, q in pairs])
    tensor = numerics.minnorm_lstsq(design_full, targets).T.reshape(3, 3, 3)
    other = BilinearOperator((tensor + tensor.transpose(0, 2, 1)) / 2.0)
    gap = max(np.max(np.abs(result.operator.apply(feats[p], feats[q]) -
                            other.apply(feats[p], feats[q])))
              for p, q in pairs)
    assert gap > 1e-3
    assert abs(result.uniqueness_gap - gap) <= 1e-12 * max(1.0, gap)


def test_fitted_operator_is_symmetric():
    assignment, _ = possible_worlds_assignment(2, 4, seed=1)
    tensor = fit_bilinear(assignment).operator.tensor
    assert np.array_equal(tensor, tensor.transpose(0, 2, 1))
    rng = np.random.default_rng(0)
    u, v = rng.normal(size=4), rng.normal(size=4)
    op = fit_bilinear(assignment).operator
    assert np.allclose(op.apply(u, v), op.apply(v, u))


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
    assignment = ConjFeatureAssignment.build(support)
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
    report = check_kernel_stability(ConjFeatureAssignment.build(support))
    assert report.passed
    assert report.details["kernel_dim"] == 0


def test_contexts_outside_support_are_skipped_not_ignored():
    p, q = atom(Query(0, 0, 0)), atom(Query(0, 1, 0))
    support = {p: np.array([1.0, 0.0]), q: np.array([0.0, 1.0])}
    report = check_kernel_stability(ConjFeatureAssignment.build(support))
    # p AND q falls outside the support, so both contexts are skipped
    assert report.details["contexts_skipped"] == 2
    assert report.details["contexts_checked"] == 0
    assert report.passed  # nothing checked, nothing violated


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


@pytest.mark.parametrize("n_atoms,n_worlds,row,n_violating", [
    (1, 1, 2, 3), (1, 2, 0, 0), (2, 3, 3, 7), (2, 4, 9, 7), (3, 4, 36, 3)])
def test_span_check_matches_the_witness_on_a_perturbed_row(n_atoms, n_worlds,
                                                            row, n_violating):
    assignment, _ = possible_worlds_assignment(n_atoms, n_worlds, seed=row)
    features = dict(assignment.features)
    moved = assignment.order[row]
    features[moved] = features[moved] + \
        0.5 * np.random.default_rng(row).standard_normal(n_worlds)
    perturbed = ConjFeatureAssignment.build(features)
    expected = kernel_basis_stability(perturbed)
    assert span_stability(perturbed) == expected
    assert len(expected["violating"]) == n_violating


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


def test_assignment_validation():
    p = atom(Query(0, 0, 0))
    with pytest.raises(ValueError):
        ConjFeatureAssignment.build({})
    with pytest.raises(ValueError):
        ConjFeatureAssignment.build({p: np.array([1.0]),
                                     neg(p): np.array([1.0, 2.0])})
    with pytest.raises(ValueError):
        ConjFeatureAssignment.build({p: np.array([np.nan, 0.0])})
    with pytest.raises(ValueError):
        ConjFeatureAssignment.build({p: np.eye(2)})


def test_assignment_rejects_more_than_63_literals():
    atoms = [atom(Query(0, i, 0)) for i in range(32)]
    literals = atoms + [neg(x) for x in atoms]
    assert len(literals) == 64
    with pytest.raises(ValueError, match="63"):
        ConjFeatureAssignment.build({x: np.ones(1) for x in literals})
    assignment = ConjFeatureAssignment.build(
        {x: np.ones(1) for x in literals[:63]})
    # the 63rd literal takes the top bit of a positive int64 code
    index = np.arange(63)
    assert _pair_images(assignment.codes, index, index).tolist() == list(range(63))


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
