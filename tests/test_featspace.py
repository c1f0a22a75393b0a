"""Feature-map checks: equivariance, rank, kernels, lifts, propagation."""

import itertools

import numpy as np
import pytest

from slplab import numerics
from slplab.factorize import BlockSpec, build_slp_map
from slplab.featspace import (FeatureMap, KernelNotInvariantError,
                              check_family_kernel_decomposition,
                              check_logical_equivariance, check_slp,
                              kernel, lift_renaming,
                              load_feature_map, propagation_audit,
                              representative_matrix, save_feature_map)
from slplab.queryspace import (GroupElementH, LogicalOp, Query, apply_logical,
                               compute_families, enumerate_queries,
                               family_index, symmetric_group)


def build(algebra, dim, seed, terms=1, parity=None):
    return build_slp_map(algebra, [BlockSpec(dim, terms, parity)], seed)


def n_families(algebra):
    return len(compute_families(algebra))


# ------------------------------------------------------------- equivariance

def test_built_maps_equivariant_exactly_20_seeds(algebra_3):
    families = compute_families(algebra_3)
    for seed in range(20):
        fmap = build(algebra_3, n_families(algebra_3), seed).feature_map
        report = check_logical_equivariance(fmap, families, algebra_3)
        assert report.passed and report.max_deviation == 0.0


def test_sign_fault_detected_with_exact_deviation(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, 9, 0).feature_map
    matrix = fmap.matrix.copy()
    idx = fmap.index()
    victim = families[0].representative
    neg_victim = apply_logical(LogicalOp.NEG, victim, algebra_3)
    matrix[idx[neg_victim]] = matrix[idx[victim]]  # sign violation: +phi_q
    broken = FeatureMap(fmap.queries, matrix)
    report = check_logical_equivariance(broken, families, algebra_3)
    assert not report.passed
    expected = 2.0 * float(np.max(np.abs(matrix[idx[victim]])))
    assert report.max_deviation == expected
    assert report.details["families_failing"] >= 1


def test_families_failing_counts_families_not_faults(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, 9, 0).feature_map
    idx = fmap.index()

    def broken(*faulty):
        matrix = fmap.matrix.copy()
        for q in faulty:
            matrix[idx[q]] += 1.0
        return check_logical_equivariance(FeatureMap(fmap.queries, matrix),
                                          families, algebra_3)

    a, b = [f for f in families if len(f.members) == 4][:2]

    def far(fam):
        # negated reversal: neither partner of the representative
        return apply_logical(LogicalOp.NEGREV, fam.representative, algebra_3)

    two_families = broken(far(a), far(b))
    assert two_families.details["families_failing"] == 2
    one_family = broken(a.representative, far(a))
    assert one_family.details["families_failing"] == 1
    for report in (two_families, one_family):
        assert not report.passed
        assert report.details["n_families"] == len(families)


def test_equivariance_report_independent_of_row_order(algebra_3):
    families = compute_families(algebra_3)
    rng = np.random.default_rng(3)
    fmap = build(algebra_3, 9, 1).feature_map
    matrix = fmap.matrix.copy()
    matrix[5] += 0.25
    matrix[17] -= 0.5
    grid = FeatureMap(fmap.queries, matrix)
    perm = rng.permutation(len(fmap.queries))
    shuffled = FeatureMap(tuple(fmap.queries[i] for i in perm), matrix[perm])
    expected = check_logical_equivariance(grid, families, algebra_3)
    assert not expected.passed
    assert check_logical_equivariance(shuffled, families, algebra_3) == expected


def test_random_maps_fail_equivariance_20_seeds(algebra_3):
    families = compute_families(algebra_3)
    queries = enumerate_queries(algebra_3)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        fmap = FeatureMap(queries, rng.standard_normal((len(queries), 5)))
        report = check_logical_equivariance(fmap, families, algebra_3)
        assert not report.passed and report.max_deviation > 0.0


# ----------------------------------------------------------------- SLP rank

def test_generic_build_reaches_full_rank_20_seeds(algebra_3):
    families = compute_families(algebra_3)
    for seed in range(20):
        built = build(algebra_3, len(families), seed)
        report = check_slp(built.feature_map, families)
        assert report.passed
        assert report.details["rep_rank"] == len(families)
        # full orbit matrix has the same rank as the representatives
        assert report.details["full_rank"] == len(families)


def test_rank_against_numpy_oracle(algebra_3):
    families = compute_families(algebra_3)
    for seed in range(5):
        built = build(algebra_3, len(families) + 3, seed)
        reps = representative_matrix(built.feature_map, families)
        assert np.linalg.matrix_rank(reps) == \
            check_slp(built.feature_map, families).details["rep_rank"]


def test_duplicated_representative_rows_lose_rank(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 1).feature_map
    matrix = fmap.matrix.copy()
    idx = fmap.index()
    fam_a, fam_b = families[0], families[1]
    # overwrite family B with family A's rows (signs matched member-wise)
    for q in fam_b.members:
        partner = next(p for p in fam_a.members
                       if fam_a.signs[p] == fam_b.signs[q])
        matrix[idx[q]] = matrix[idx[partner]]
    broken = FeatureMap(fmap.queries, matrix)
    report = check_slp(broken, families)
    assert not report.passed
    assert report.details["rep_rank"] == len(families) - 1
    # but equivariance still holds, isolating the rank failure
    assert check_logical_equivariance(broken, families, algebra_3).passed


def test_zero_map_has_rank_zero(algebra_3):
    families = compute_families(algebra_3)
    queries = enumerate_queries(algebra_3)
    fmap = FeatureMap(queries, np.zeros((len(queries), 4)))
    report = check_slp(fmap, families)
    assert not report.passed and report.details["rep_rank"] == 0


def test_undersized_width_cannot_reach_rank(algebra_3):
    families = compute_families(algebra_3)
    built = build(algebra_3, len(families) - 2, 0)
    report = check_slp(built.feature_map, families)
    assert not report.passed
    assert built.redrawn  # the one redraw happened and could not help


# ---------------------------------------------------- recoordinatization

def test_checks_invariant_under_recoordinatization(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 2).feature_map
    rng = np.random.default_rng(0)
    d = fmap.dim
    q_mat, _ = np.linalg.qr(rng.standard_normal((d, d)))
    change = q_mat @ np.diag(rng.uniform(0.5, 2.0, size=d))
    moved = FeatureMap(fmap.queries, fmap.matrix @ change)
    equiv = check_logical_equivariance(moved, families, algebra_3)
    assert equiv.passed and equiv.max_deviation == 0.0
    assert check_slp(moved, families).passed


# ------------------------------------------------------------------ kernels

def test_kernel_dimension_slp(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 0).feature_map
    ker = kernel(fmap)
    assert ker.dim == len(fmap.queries) - len(families)


def test_kernel_of_injective_map_trivial():
    queries = tuple(Query(0, r, 0) for r in range(4))
    fmap = FeatureMap(queries, np.eye(4))
    assert kernel(fmap).dim == 0


def test_kernel_of_zero_map_is_everything(algebra_3):
    queries = enumerate_queries(algebra_3)
    fmap = FeatureMap(queries, np.zeros((len(queries), 3)))
    assert kernel(fmap).dim == len(queries)


def test_kernel_vectors_annihilate_features(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 4).feature_map
    ker = kernel(fmap)
    for v in ker.basis:
        assert np.linalg.norm(fmap.matrix.T @ v) <= ker.tol


def test_family_kernel_decomposition_holds_for_slp(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 5).feature_map
    report = check_family_kernel_decomposition(fmap, families)
    assert report.passed
    assert report.details["kernel_dim"] == len(fmap.queries) - len(families)
    # the margin of the kernel's rank decision, read off the cached spectrum
    margin = report.details["kernel_rank"]
    spec = fmap.spectrum()
    assert margin == numerics.rank_margin(spec.sv, spec.kernel_threshold)
    assert margin["smallest_kept_sv"] > margin["threshold"] \
        >= margin["largest_rejected_sv"]
    assert np.sum(spec.sv > margin["threshold"]) == len(families)


def test_family_kernel_decomposition_detects_cross_family_dependency(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 6).feature_map
    matrix = fmap.matrix.copy()
    idx = fmap.index()
    fam_a, fam_b = families[0], families[1]
    # give family B features proportional to family A's: equivariant, not SLP
    for q in fam_b.members:
        partner = next(p for p in fam_a.members
                       if fam_a.signs[p] == fam_b.signs[q])
        matrix[idx[q]] = 0.5 * matrix[idx[partner]]
    broken = FeatureMap(fmap.queries, matrix)
    report = check_family_kernel_decomposition(broken, families)
    assert not report.passed
    assert report.details["violations"] > 0 or report.max_deviation > 0


def test_empty_kernel_vacuous_pass():
    queries = tuple(Query(0, r, 0) for r in range(3))
    fmap = FeatureMap(queries, np.eye(3))
    families = ()  # no families consulted when the kernel is empty
    report = check_family_kernel_decomposition(fmap, families)
    assert report.passed and report.details["kernel_dim"] == 0


# -------------------------------------------------------------------- lifts

def test_lift_defining_property(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 7).feature_map
    idx = fmap.index()
    from slplab.queryspace import apply_renaming
    for g in (GroupElementH((1, 0, 2), 1), GroupElementH((2, 0, 1), -1)):
        lift = lift_renaming(fmap, g, algebra_3)
        for q in fmap.queries:
            target = fmap.matrix[idx[apply_renaming(g, q, algebra_3)]]
            assert np.max(np.abs(lift.matrix @ fmap.matrix[idx[q]] - target)) \
                <= 1e-9


def test_negation_lift_is_minus_identity_on_span(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 8).feature_map
    g = GroupElementH((0, 1, 2), -1)
    lift = lift_renaming(fmap, g, algebra_3)
    # M + I annihilates every feature row
    gap = np.max(np.abs(fmap.matrix @ (lift.matrix + np.eye(fmap.dim)).T))
    assert gap <= 1e-9


def test_identity_lift_is_identity_on_span(algebra_3):
    fmap = build(algebra_3, 9, 9).feature_map
    lift = lift_renaming(fmap, GroupElementH.identity(3), algebra_3)
    gap = np.max(np.abs(fmap.matrix @ (lift.matrix - np.eye(fmap.dim)).T))
    assert gap <= 1e-9


def test_lift_homomorphism_all_144_pairs(algebra_3):
    fmap = build(algebra_3, 9, 10).feature_map
    elements = [GroupElementH(p, s) for p in symmetric_group(3)
                for s in (1, -1)]
    lifts = {g: lift_renaming(fmap, g, algebra_3) for g in elements}
    for g1, g2 in itertools.product(elements, elements):
        composed = g1.compose(g2)
        gap = np.max(np.abs(lifts[g1].matrix @ lifts[g2].matrix -
                            lifts[composed].matrix))
        assert gap <= 1e-9


def test_sign_flip_between_lifts(algebra_3):
    fmap = build(algebra_3, 9, 11).feature_map
    for perm in symmetric_group(3):
        plus = lift_renaming(fmap, GroupElementH(perm, 1), algebra_3)
        minus = lift_renaming(fmap, GroupElementH(perm, -1), algebra_3)
        assert np.max(np.abs(plus.matrix + minus.matrix)) <= 1e-9


def test_lift_rejects_non_invariant_kernel(algebra_3):
    queries = enumerate_queries(algebra_3)
    rng = np.random.default_rng(3)
    fmap = FeatureMap(queries, rng.standard_normal((len(queries), 6)))
    with pytest.raises(KernelNotInvariantError):
        lift_renaming(fmap, GroupElementH((1, 0, 2), 1), algebra_3)


def test_span_lifts_are_orthogonal_and_compose(algebra_3):
    fmap = build(algebra_3, 13, 10).feature_map
    spec = fmap.spectrum()
    r = spec.span_rank
    elements = [GroupElementH(p, s) for p in symmetric_group(3)
                for s in (1, -1)]
    lifts = {g: lift_renaming(fmap, g, algebra_3) for g in elements}
    v_r, s_r = spec.vt[:r].T, spec.sv[:r]
    for g, lift in lifts.items():
        assert lift.span.shape == (r, r) and r < fmap.dim
        assert np.max(np.abs(lift.span @ lift.span.T - np.eye(r))) <= 1e-12
        ambient = v_r @ np.diag(s_r) @ lift.span @ np.diag(1 / s_r) @ v_r.T
        assert np.max(np.abs(lift.matrix - ambient)) <= 1e-12
    for g1, g2 in itertools.product(elements, elements):
        gap = np.max(np.abs(lifts[g1].span @ lifts[g2].span
                            - lifts[g1.compose(g2)].span))
        assert gap <= 1e-12


def test_kernel_not_invariant_names_renaming_and_deviation(algebra_3):
    fmap = build(algebra_3, 4, 3).feature_map   # 4 < 9 families
    g = GroupElementH((1, 0, 2), 1)
    with pytest.raises(KernelNotInvariantError) as info:
        lift_renaming(fmap, g, algebra_3)
    assert info.value.renaming == g
    assert info.value.deviation > numerics.PROJECTOR_TOL


def test_lift_range_and_kernel_follow_span(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families) + 4, 12).feature_map
    basis = fmap.spectrum().span_basis
    off_span = np.eye(fmap.dim) - basis.T @ basis
    lift = lift_renaming(fmap, GroupElementH((1, 2, 0), -1), algebra_3)
    # min-norm lift vanishes off the span and maps into it
    assert np.max(np.abs(lift.matrix @ off_span)) <= 1e-9
    assert np.max(np.abs(off_span @ lift.matrix)) <= 1e-9


# -------------------------------------------------------------- propagation

def test_propagation_audit_signs_and_gram(algebra_3):
    families = compute_families(algebra_3)
    built = build(algebra_3, len(families), 13)
    for family_index_ in (0, len(families) // 2):
        report = propagation_audit(built.feature_map, families, algebra_3,
                                   family_index_, eta=0.25)
        assert report.passed and report.max_deviation == 0.0
        responses = report.details["responses"]
        assert responses["neg"] == -responses["id"]
        assert responses["rev"] == responses["id"]
        assert responses["negrev"] == -responses["id"]
        assert report.details["gram_rank"] == len(families)


def test_propagation_audit_zero_step(algebra_3):
    families = compute_families(algebra_3)
    built = build(algebra_3, len(families), 14)
    report = propagation_audit(built.feature_map, families, algebra_3, 0, 0.0)
    assert report.passed
    assert all(v == 0.0 for v in report.details["responses"].values())
    assert all(v == 0.0
               for v in report.details["other_family_responses"].values())


# ------------------------------------------------------------------ storage

@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_save_load_round_trip_exact(tmp_path, algebra_3, fmt):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 15).feature_map
    path = tmp_path / f"map.{fmt}"
    save_feature_map(fmap, algebra_3, path, fmt)
    loaded, algebra = load_feature_map(path, fmt)
    assert loaded.queries == fmap.queries
    assert np.array_equal(loaded.matrix, fmap.matrix)
    assert algebra.size == algebra_3.size
    assert [r.bits for r in algebra.closed] == [r.bits for r in algebra_3.closed]
    # the loaded map still passes the full check battery at exact tolerance
    report = check_logical_equivariance(loaded, compute_families(algebra),
                                        algebra)
    assert report.passed and report.max_deviation == 0.0


def test_feature_map_validation():
    queries = (Query(0, 0, 0), Query(0, 0, 1))
    with pytest.raises(ValueError):
        FeatureMap(queries, np.zeros((2, 0)))       # dim must be >= 1
    with pytest.raises(ValueError):
        FeatureMap(queries, np.zeros((3, 2)))       # row count mismatch
    with pytest.raises(ValueError):
        FeatureMap(queries, np.array([[np.inf, 0.0], [0.0, 0.0]]))