"""Tensor-factorized builds: form audits, splits, isotypic pieces, Hom law."""

import itertools

import numpy as np
import pytest

from conftest import random_proper_relation
from slplab import characters, factorize
from slplab.factorize import (BlockSpec, ConverseInvarianceError,
                              FactorizedMap, Term, TensorBlock,
                              assemble_rows, build_slp_map,
                              character_hom_dim, commutant_hom_dimension,
                              group_average,
                              hom_dimension_check, involution_split,
                              isotypic_decompose, negation_split,
                              pair_space_representation, pair_swap_matrix,
                              parity_decompose, parity_involution,
                              relation_converse_matrix,
                              relation_sign_representation,
                              verify_factorized_form)
from slplab.featspace import FeatureMap, check_slp, lift_renaming
from slplab.numerics import PROJECTOR_TOL, rank
from slplab.queryspace import (GroupElementH, Query, compute_families,
                               enumerate_queries, symmetric_group)
from slplab.relalg import EntitySet, Relation, close_unary


def build(algebra, dim, seed, terms=1, parity=None):
    return build_slp_map(algebra, [BlockSpec(dim, terms, parity)], seed)


# --------------------------------------------------------------- form audit

def test_verify_passes_on_builds(algebra_3):
    for seed in range(10):
        built = build(algebra_3, 9, seed)
        report = verify_factorized_form(built)
        assert report.passed and report.max_deviation == 0.0
        assert report.details["rows_exact"] is True
        assert report.details["sign_faults"] == []


def test_injected_sign_fault_located(algebra_3):
    built = build(algebra_3, 9, 0)
    block = built.blocks[0]
    term = block.terms[0]
    v_bad = term.v.copy()
    r = 0
    v_bad[algebra_3.neg(r)] = v_bad[r]  # break v(not r) = -v(r)
    bad_term = Term(term.u, v_bad, term.parity)
    bad_block = TensorBlock(block.context_dim,
                            (bad_term,) + block.terms[1:])
    rows = assemble_rows((bad_block,), built.feature_map.queries)
    broken = FactorizedMap(algebra_3, (bad_block,),
                           FeatureMap(built.feature_map.queries, rows))
    report = verify_factorized_form(broken)
    assert not report.passed
    faults = report.details["sign_faults"]
    assert faults, "fault must be reported"
    located = {(f["block"], f["term"], f["relation"]) for f in faults}
    # both members of the complement pair show the violation
    assert (0, 0, r) in located and (0, 0, algebra_3.neg(r)) in located
    expected = abs(2.0 * term.v[r])
    assert any(np.isclose(f["deviation"], expected) for f in faults)


def test_rows_recomputed_exactly_multi_block(algebra_3):
    built = build_slp_map(algebra_3, [BlockSpec(4, 2, None),
                                      BlockSpec(3, 1, "+")], seed=5)
    assert verify_factorized_form(built).passed
    rebuilt = assemble_rows(built.blocks, built.feature_map.queries)
    assert np.array_equal(rebuilt, built.feature_map.matrix)


def test_term_validation():
    with pytest.raises(ValueError):
        Term(np.zeros((2, 3, 4)), np.zeros(4))
    with pytest.raises(ValueError):
        Term(np.zeros((2, 2, 4)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        Term(np.zeros((2, 2, 4)), np.zeros(4), "x")
    with pytest.raises(ValueError):
        TensorBlock(3, (Term(np.zeros((2, 2, 4)), np.zeros(4)),))


# ------------------------------------------------------------ negation split

def test_negation_split_is_minus_identity_sector(algebra_3):
    families = compute_families(algebra_3)
    built = build(algebra_3, len(families), 1)
    split = negation_split(built)
    assert split.plus_dim == 0
    assert split.minus_dim == len(families)
    assert split.span_dim == len(families)
    # span-coordinate projectors: the minus sector is the whole span
    eye = np.eye(split.span_dim)
    assert split.minus_projector.shape == eye.shape
    assert np.max(np.abs(split.minus_projector - eye)) <= 1e-9
    assert np.max(np.abs(split.plus_projector)) <= 1e-9


def test_negation_split_on_a_wide_map_is_r_by_r(algebra_3):
    """Four features beyond the span: the projectors stay 9 x 9, not 13 x 13."""
    families = compute_families(algebra_3)
    built = build(algebra_3, len(families) + 4, 1)
    split = negation_split(built)
    assert built.dim == split.span_dim + 4
    assert split.minus_projector.shape == (split.span_dim, split.span_dim)
    assert np.max(np.abs(split.minus_projector
                         - np.eye(split.span_dim))) <= 1e-9
    assert split.plus_dim == 0 and split.minus_dim == len(families)


def test_involution_split_validates():
    with pytest.raises(ValueError):
        involution_split(np.array([[1.0, 1.0], [0.0, 1.0]]))
    plus, minus = involution_split(np.diag([1.0, -1.0, 1.0]))
    assert np.allclose(plus + minus, np.eye(3))
    assert np.allclose(plus @ minus, 0)


# ----------------------------------------------------------------- isotypic

@pytest.mark.parametrize("n", [2, 3, 4])
def test_isotypic_projector_properties(n):
    entity_set = EntitySet.of_size(n)
    rng = np.random.default_rng(n)
    base = random_proper_relation(entity_set, rng, name="r0")
    algebra = close_unary([base])
    families = compute_families(algebra)
    built = build(algebra, len(families), seed=n)
    projectors, props = isotypic_decompose(built)
    assert props["idempotence"] <= PROJECTOR_TOL
    assert props["annihilation"] <= PROJECTOR_TOL
    assert props["completeness_on_span"] <= PROJECTOR_TOL
    assert props["commutation"] <= PROJECTOR_TOL
    assert sum(p.image_dim for p in projectors) == props["span_dim"]


def test_trivial_isotypic_piece_matches_group_average(algebra_3):
    families = compute_families(algebra_3)
    built = build(algebra_3, len(families), 2)
    perms = symmetric_group(3)
    lifts = [lift_renaming(built.feature_map, GroupElementH(p, 1), algebra_3)
             for p in perms]
    avg = group_average([l.span for l in lifts])
    projectors, _ = isotypic_decompose(built)
    trivial = next(p for p in projectors if p.irrep == (3,))
    assert np.max(np.abs(trivial.matrix - avg)) <= 1e-9


def test_class_sum_projectors_match_the_element_sum():
    """Second witness: (dim / |G|) sum over all 24 elements of chi(g) rho(g)."""
    rng = np.random.default_rng(4)
    algebra = close_unary([random_proper_relation(EntitySet.of_size(4), rng,
                                                  name="r0")])
    built = build(algebra, len(compute_families(algebra)), 4)
    perms = symmetric_group(4)
    rhos = [lift_renaming(built.feature_map, GroupElementH(p, 1), algebra).span
            for p in perms]
    projectors, props = isotypic_decompose(built)
    for proj in projectors:
        ref = sum(characters.mn_character(proj.irrep, characters.cycle_type(p))
                  * rho for p, rho in zip(perms, rhos)) * proj.irrep_dim / 24
        assert np.max(np.abs(proj.matrix - ref)) <= 1e-12
    assert props["orthogonality"] <= PROJECTOR_TOL


def test_isotypic_on_a_wide_map_stays_in_span_coordinates(algebra_3):
    """Eleven features beyond the span of 9: every projector is 9 x 9."""
    built = build(algebra_3, 20, 1)
    projectors, props = isotypic_decompose(built)
    assert props["span_dim"] == 9
    assert all(p.matrix.shape == (9, 9) for p in projectors)
    assert sum(p.image_dim for p in projectors) == 9
    assert max(props[k] for k in ("idempotence", "annihilation",
                                  "completeness_on_span", "commutation",
                                  "orthogonality")) <= PROJECTOR_TOL


def test_isotypic_rejects_large_groups():
    entity_set = EntitySet.of_size(6)
    base = Relation.from_pairs(entity_set, [(0, 1)], "r0")
    algebra = close_unary([base])
    built = build(algebra, 4, 0)
    with pytest.raises(ValueError):
        isotypic_decompose(built)


def test_pair_space_rep_is_permutation_homomorphism():
    for n in (2, 3):
        perms = symmetric_group(n)
        mats = pair_space_representation(n, perms)
        table = dict(zip(perms, mats))
        for p, q in itertools.product(perms, perms):
            composed = tuple(p[q[i]] for i in range(n))
            assert np.array_equal(table[p] @ table[q], table[composed])


def test_permutation_matrices_equal_the_entrywise_construction():
    # reference: each 0/1 matrix written entry by entry from its definition
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4):
        perms = symmetric_group(n)
        for perm, mat in zip(perms, pair_space_representation(n, perms)):
            ref = np.zeros((n * n, n * n))
            for h, t in itertools.product(range(n), repeat=2):
                ref[perm[h] * n + perm[t], h * n + t] = 1.0
            assert np.array_equal(mat, ref)
        ref = np.zeros((n * n, n * n))
        for h, t in itertools.product(range(n), repeat=2):
            ref[t * n + h, h * n + t] = 1.0
        assert np.array_equal(pair_swap_matrix(n), ref)
        if n < 2:
            continue
        for n_rel in (1, 2):
            entity_set = EntitySet.of_size(n)
            algebra = close_unary([random_proper_relation(entity_set, rng)
                                   for _ in range(n_rel)])
            size = algebra.size
            neg_ref, conv_ref = np.zeros((size, size)), np.zeros((size, size))
            for r in range(size):
                neg_ref[algebra.neg(r), r] = 1.0
                conv_ref[algebra.conv(r), r] = 1.0
            eye, neg = relation_sign_representation(algebra)
            assert np.array_equal(eye, np.eye(size))
            assert np.array_equal(neg, neg_ref)
            assert np.array_equal(relation_converse_matrix(algebra), conv_ref)


# -------------------------------------------------------------- parity split

def test_pair_swap_split_dims_n2():
    algebra = close_unary([Relation.from_pairs(EntitySet.of_size(2),
                                               [(0, 1)], "r0")])
    inv = parity_involution(algebra)
    assert inv.pair_dims == (3, 1)


@pytest.mark.parametrize("n,expected", [(2, (3, 1)), (3, (6, 3)), (4, (10, 6))])
def test_pair_swap_split_dims_formula(n, expected):
    # (I +- swap)/2 project onto symmetric/antisymmetric pair combinations
    algebra = close_unary([Relation.from_pairs(EntitySet.of_size(n),
                                               [(0, 1)], "r0")])
    inv = parity_involution(algebra)
    assert inv.pair_dims == expected
    assert inv.pair_dims == (n * (n + 1) // 2, n * (n - 1) // 2)
    assert sum(inv.rel_dims) == algebra.size
    # the trace reads the same dimensions as a rank decision
    assert inv.pair_dims == (rank(inv.pair_plus), rank(inv.pair_minus))
    assert inv.rel_dims == (rank(inv.rel_plus), rank(inv.rel_minus))


def test_swap_and_converse_matrices_are_involutions():
    for n in (2, 3):
        swap = pair_swap_matrix(n)
        assert np.array_equal(swap @ swap, np.eye(n * n))
    algebra = close_unary([Relation.from_pairs(EntitySet.of_size(3),
                                               [(0, 1), (1, 2)], "r0")])
    conv = relation_converse_matrix(algebra)
    assert np.array_equal(conv @ conv, np.eye(algebra.size))


def test_parity_decompose_round_trip(algebra_3):
    built = build(algebra_3, 9, 3)
    decomp = parity_decompose(built)
    assert decomp.max_cross_residual == 0.0
    queries = built.feature_map.queries
    for original_block, pairs in zip(built.blocks, decomp.blocks):
        terms = tuple(t for pair in pairs for t in (pair.plus, pair.minus))
        rebuilt_block = TensorBlock(original_block.context_dim, terms)
        rebuilt = assemble_rows((rebuilt_block,), queries)
        original = assemble_rows((original_block,), queries)
        assert np.max(np.abs(rebuilt - original)) <= 1e-12
        for pair in pairs:
            assert np.array_equal(pair.plus.u, pair.plus.u.transpose(1, 0, 2))
            assert np.array_equal(pair.minus.u, -pair.minus.u.transpose(1, 0, 2))


def test_mismatched_parity_term_raises(algebra_3):
    rng = np.random.default_rng(7)
    n = 3
    raw = rng.uniform(-1.0, 1.0, size=(n, n, 4))
    u_antisym = (raw - raw.transpose(1, 0, 2)) / 2.0
    # v is converse-even: the mismatch (u odd, v even) breaks rev-invariance
    v = np.zeros(algebra_3.size)
    v[0] = 1.0
    v[algebra_3.neg(0)] = -1.0
    v[algebra_3.conv(0)] = 1.0
    v[algebra_3.neg(algebra_3.conv(0))] = -1.0
    term = Term(u_antisym, v)
    block = TensorBlock(4, (term,))
    queries = enumerate_queries(algebra_3)
    fmap = FeatureMap(queries, assemble_rows((block,), queries))
    mismatched = FactorizedMap(algebra_3, (block,), fmap)
    with pytest.raises(ConverseInvarianceError) as excinfo:
        parity_decompose(mismatched)
    assert excinfo.value.deviation > 0.0
    q = excinfo.value.query
    # the recorded worst query really deviates by the recorded amount
    idx = fmap.index()
    rev_q = Query(q.tail, algebra_3.conv(q.rel), q.head)
    dev = np.max(np.abs(fmap.matrix[idx[rev_q]] - fmap.matrix[idx[q]]))
    assert dev == excinfo.value.deviation


def mismatched_map(algebra, seed):
    """Reversal-breaking map: an antisymmetric context factor paired with a
    relation factor that is a random mix of both converse parities."""
    rng = np.random.default_rng(seed)
    n = algebra.entity_set.n
    terms = []
    for _ in range(3):
        raw = rng.uniform(-1.0, 1.0, size=(n, n, 3))
        terms += [Term(raw - raw.transpose(1, 0, 2),
                       rng.uniform(-1.0, 1.0, algebra.size)),
                  Term(raw, rng.uniform(-1.0, 1.0, algebra.size))]
    block = TensorBlock(3, tuple(terms))
    queries = enumerate_queries(algebra)
    fmap = FeatureMap(queries, assemble_rows((block,), queries))
    return FactorizedMap(algebra, (block,), fmap)


@pytest.mark.parametrize("seed", range(6))
def test_converse_failure_names_first_worst_query(seed):
    rng = np.random.default_rng(100 + seed)
    entity_set = EntitySet.of_size(2 + seed % 3)
    algebra = close_unary([random_proper_relation(entity_set, rng)
                           for _ in range(1 + seed % 2)])
    mismatched = mismatched_map(algebra, seed)
    fmap = mismatched.feature_map
    idx = fmap.index()
    worst_q, worst_dev = None, -1.0
    for q in enumerate_queries(algebra):
        rev_q = Query(q.tail, algebra.conv(q.rel), q.head)
        dev = float(np.max(np.abs(fmap.row(rev_q) - fmap.matrix[idx[q]])))
        if dev > worst_dev:
            worst_q, worst_dev = q, dev
    with pytest.raises(ConverseInvarianceError) as excinfo:
        parity_decompose(mismatched)
    assert excinfo.value.query == worst_q
    assert excinfo.value.deviation == worst_dev
    # a tolerance at the worst deviation lets the split through
    parity_decompose(mismatched, tol=worst_dev)


@pytest.mark.parametrize("seed", range(8))
def test_cross_residual_is_the_direct_cross_sum(algebra_3x2, seed):
    mismatched = mismatched_map(algebra_3x2, seed)
    decomp = parity_decompose(mismatched, tol=np.inf)
    queries = mismatched.feature_map.queries
    heads, rels, tails = np.array(queries).T
    cross = np.zeros((len(queries), 3))
    for pair in decomp.blocks[0]:
        cross += pair.plus.u[heads, tails] * pair.minus.v[rels][:, None]
        cross += pair.minus.u[heads, tails] * pair.plus.v[rels][:, None]
    # summed in this order, term by term, the residual is bitwise the same
    assert decomp.max_cross_residual == float(np.max(np.abs(cross)))
    assert decomp.max_cross_residual > 0.1


def test_single_parity_builds(algebra_3):
    families = compute_families(algebra_3)
    plus_only = build(algebra_3, 9, 4, parity="+")
    minus_only = build(algebra_3, 9, 5, parity="-")
    for built in (plus_only, minus_only):
        assert verify_factorized_form(built).passed
        assert parity_decompose(built).max_cross_residual == 0.0
    # pure-symmetric features identify (h,r,t) with (t,r,h): rank deficit
    assert not check_slp(plus_only.feature_map, families).passed


def test_converse_fixed_relation_forces_zero_odd_factor():
    entity_set = EntitySet.of_size(3)
    sym = Relation.from_pairs(entity_set, [(0, 1), (1, 0)], "sym")
    algebra = close_unary([sym])
    built = build(algebra, 6, 0, parity="-")
    for block in built.blocks:
        for term in block.terms:
            assert np.array_equal(term.v, np.zeros(algebra.size))


# ------------------------------------------------------------------ Hom law

def dense_commutant_hom_dim(source_mats, target_mats):
    """Oracle: the stacked commutant system built densely, one SVD of it all."""
    dv = source_mats[0].shape[0]
    dc = target_mats[0].shape[0]
    stacked = np.concatenate([
        np.kron(np.eye(dc), np.asarray(mv, dtype=float).T) -
        np.kron(np.asarray(mc, dtype=float), np.eye(dv))
        for mv, mc in zip(source_mats, target_mats)], axis=0)
    return stacked.shape[1] - rank(stacked)


def _signed_permutation_rep(perms):
    """e_i -> sgn(g) e_g(i): a signed-permutation representation."""
    return [characters.perm_sign(p) * characters.permutation_matrix(p)
            for p in perms]


def _conjugated(mats, seed):
    """The same representation in a random orthonormal basis."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(
        size=(mats[0].shape[0],) * 2))
    return [q @ m @ q.T for m in mats]


def _hom_witness_cases():
    cases = []
    for n in (2, 3):
        perms = symmetric_group(n)
        pair_rep = pair_space_representation(n, perms)
        signed = _signed_permutation_rep(perms)
        trivial = [np.eye(1) for _ in perms]
        cases += [(f"pair{n}-pair{n}", pair_rep, pair_rep),
                  (f"trivial-pair{n}", trivial, pair_rep),
                  (f"pair{n}-trivial", pair_rep, trivial),
                  (f"signed{n}-signed{n}", signed, signed),
                  (f"signed{n}-pair{n}", signed, pair_rep)]
    perms3 = symmetric_group(3)
    std = characters.irrep_matrices("standard", perms3, 3)
    perm3 = [characters.permutation_matrix(p) for p in perms3]
    pair3 = pair_space_representation(3, perms3)
    cases += [("standard-standard", std, std),
              ("standard-perm3", std, perm3)]
    for seed in range(5):
        cases.append((f"orthogonal-perm3-standard-{seed}",
                      _conjugated(perm3, seed), _conjugated(std, seed + 10)))
    cases.append(("orthogonal-pair3-perm3",
                  _conjugated(pair3, 20), _conjugated(perm3, 21)))
    # every constraint cancels to zero: no nonzero at all
    sign1 = [np.eye(1), -np.eye(1)]
    cases += [("sign-sign", sign1, sign1),
              ("sign-trivial", sign1, [np.eye(1), np.eye(1)])]
    # Sym(2) x Z2 on pair2 (x) relation space, the product-law shape
    pair2 = pair_space_representation(2, symmetric_group(2))
    reg4 = [np.eye(4), characters.permutation_matrix((1, 0, 3, 2))]
    prod = [np.kron(a, b) for a in pair2 for b in reg4]
    prod_sign = [np.kron(a, b) for a in pair2 for b in sign1]
    cases += [("pair2xreg-pair2xreg", prod, prod),
              ("pair2xreg-pair2xsign", prod, prod_sign)]
    return cases


_HOM_CASES = [pytest.param(source, target, id=name)
              for name, source, target in _hom_witness_cases()]


@pytest.mark.parametrize("source,target", _HOM_CASES)
def test_commutant_matches_dense_oracle_and_characters(source, target):
    dim = commutant_hom_dimension(source, target)
    assert dim == dense_commutant_hom_dim(source, target)
    assert dim == character_hom_dim(source, target)


@pytest.mark.parametrize("source,target", _HOM_CASES)
def test_constraint_triples_are_the_dense_nonzeros_bitwise(source, target):
    for mv, mc in zip(source, target):
        mv, mc = np.asarray(mv, dtype=float), np.asarray(mc, dtype=float)
        dense = (np.kron(np.eye(mc.shape[0]), mv.T) -
                 np.kron(mc, np.eye(mv.shape[0])))
        rows, cols, vals = factorize._constraint_triples(mv, mc)
        assert np.all(vals != 0.0)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == len(vals)
        rebuilt = np.zeros_like(dense)
        rebuilt[rows, cols] = vals
        assert np.array_equal(rebuilt, dense)


def test_standard_rep_self_hom_is_one():
    from slplab.characters import irrep_matrices
    perms = symmetric_group(3)
    std = irrep_matrices("standard", perms, 3)
    assert commutant_hom_dimension(std, std) == 1


def test_character_hom_dim_rejects_non_integer_products():
    with pytest.raises(ValueError, match="not an integer"):
        character_hom_dim([np.eye(1), -np.eye(1)],
                          [np.eye(1), 0.5 * np.eye(1)])


def test_hom_dimension_product_law_at_n3_and_n4(algebra_3):
    perms4 = symmetric_group(4)
    perms3 = symmetric_group(3)
    perms2 = symmetric_group(2)
    pair4 = pair_space_representation(4, perms4)
    pair3 = pair_space_representation(3, perms3)
    pair2 = pair_space_representation(2, perms2)
    rel_reg = relation_sign_representation(algebra_3)
    sign1 = [np.eye(1), -np.eye(1)]
    triv1 = [np.eye(1), np.eye(1)]
    configs = [
        (pair3, pair3, rel_reg, rel_reg),
        (pair3, pair3, rel_reg, sign1),
        (pair2, pair2, sign1, sign1),
        (pair3, [np.eye(1) for _ in perms3], rel_reg, triv1),
        (pair4, pair4, rel_reg, rel_reg),
    ]
    for ctx_rep, ctx_target, rel_rep, rel_target in configs:
        report = hom_dimension_check(ctx_rep, ctx_target, rel_rep, rel_target)
        assert report.passed, report.details
        d = report.details
        assert d["dim_hom_context"] * d["dim_hom_relation"] == \
            d["dim_hom_product"]
        # the second witness is computed and agrees on every dim
        assert d["witness_mismatch"] == []
        assert d["character_dims"] == {
            "context": d["dim_hom_context"],
            "relation": d["dim_hom_relation"],
            "product": d["dim_hom_product"]}
        assert d["dim_hom_context"] == character_hom_dim(ctx_rep, ctx_target)
        assert d["dim_hom_relation"] == character_hom_dim(rel_rep, rel_target)
    # the last config is pair4 x reg, with reg the 4-dim relation space
    assert (d["dim_hom_context"], d["dim_hom_relation"],
            d["dim_hom_product"]) == (15, 8, 120)


def test_hom_check_names_the_dim_whose_witnesses_disagree(monkeypatch):
    real = factorize.commutant_hom_dimension
    # off by one on the two-element relation group only
    monkeypatch.setattr(factorize, "commutant_hom_dimension",
                        lambda s, t: real(s, t) + (len(s) == 2))
    pair3 = pair_space_representation(3, symmetric_group(3))
    sign1 = [np.eye(1), -np.eye(1)]
    report = hom_dimension_check(pair3, pair3, sign1, sign1)
    assert not report.passed
    assert report.details["witness_mismatch"] == ["relation"]
    assert report.details["dim_hom_relation"] == 2
    assert report.details["character_dims"]["relation"] == 1
    # the law itself now fails too: 14 * 2 != 14
    assert report.max_deviation == 14.0


def test_relation_sign_representation_is_z2_action(algebra_3):
    eye, neg = relation_sign_representation(algebra_3)
    assert np.array_equal(eye, np.eye(algebra_3.size))
    assert np.array_equal(neg @ neg, np.eye(algebra_3.size))
    assert not np.array_equal(neg, np.eye(algebra_3.size))
