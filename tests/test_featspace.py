"""Feature-map checks: equivariance, rank, kernels, lifts, propagation."""

import csv
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (compose_renamings, enumerate_queries,
                      family_kernel_reference, kernel_basis,
                      proper_relation_strategy, random_proper_relation)
from slplab import cli, featspace, numerics
from slplab.factorize import build_slp_map
from slplab.featspace import (FeatureMap, KernelNotInvariantError,
                              check_family_kernel_decomposition,
                              check_logical_equivariance, check_slp,
                              lift_renaming,
                              load_feature_map, propagation_audit,
                              save_feature_map)
from slplab.queryspace import (GroupElementH, Query, apply_renaming,
                               compute_families, decode_queries,
                               symmetric_group)
from slplab.relalg import EntitySet, Relation, close_unary


def build(algebra, dim, seed, terms=1, parity=None):
    return build_slp_map(algebra, dim, terms, parity, seed)


def n_families(algebra):
    return len(compute_families(algebra))


# ------------------------------------------------------------- equivariance

def test_built_maps_equivariant_exactly_20_seeds(algebra_3):
    for seed in range(20):
        fmap = build(algebra_3, n_families(algebra_3), seed).feature_map
        report = check_logical_equivariance(fmap)
        assert report.passed and report.max_deviation == 0.0


def test_sign_fault_detected_with_exact_deviation(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, 9, 0).feature_map
    matrix = fmap.matrix.copy()
    victim, neg_victim = families[0, :2]  # the id and neg columns
    matrix[neg_victim] = matrix[victim]  # sign violation: +phi_q
    broken = FeatureMap(algebra_3, matrix)
    report = check_logical_equivariance(broken)
    assert not report.passed
    expected = 2.0 * float(np.max(np.abs(matrix[victim])))
    assert report.max_deviation == expected
    assert report.details["families_failing"] >= 1


def test_families_failing_counts_families_not_faults(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, 9, 0).feature_map

    def broken(*faulty):
        matrix = fmap.matrix.copy()
        for p in faulty:
            matrix[p] += 1.0
        return check_logical_equivariance(FeatureMap(algebra_3, matrix))

    a, b = [f for f in families if len(set(f)) == 4][:2]
    # column 3, the negated reversal: neither partner of the representative
    two_families = broken(a[3], b[3])
    assert two_families.details["families_failing"] == 2
    one_family = broken(a[0], a[3])
    assert one_family.details["families_failing"] == 1
    for report in (two_families, one_family):
        assert not report.passed
        assert report.details["n_families"] == len(families)


def test_equivariance_report_independent_of_row_order(algebra_3):
    rng = np.random.default_rng(3)
    fmap = build(algebra_3, 9, 1).feature_map
    matrix = fmap.matrix.copy()
    matrix[5] += 0.25
    matrix[17] -= 0.5
    grid = FeatureMap(algebra_3, matrix)
    queries = enumerate_queries(algebra_3)
    perm = rng.permutation(len(queries))
    # the load path: rows in any order, each named by its query
    shuffled = FeatureMap(algebra_3, matrix[perm],
                          [queries[i] for i in perm])
    assert np.array_equal(shuffled.matrix, grid.matrix)
    expected = check_logical_equivariance(grid)
    assert not expected.passed
    assert check_logical_equivariance(shuffled) == expected


def test_random_maps_fail_equivariance_20_seeds(algebra_3):
    queries = enumerate_queries(algebra_3)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        fmap = FeatureMap(algebra_3, rng.standard_normal((len(queries), 5)))
        report = check_logical_equivariance(fmap)
        assert not report.passed and report.max_deviation > 0.0


# ----------------------------------------------------------------- SLP rank

def test_generic_build_reaches_full_rank_20_seeds(algebra_3):
    families = compute_families(algebra_3)
    for seed in range(20):
        built = build(algebra_3, len(families), seed)
        report = check_slp(built.feature_map)
        assert report.passed
        assert report.details["rep_rank"] == len(families)
        # full orbit matrix has the same rank as the representatives
        assert report.details["full_rank"] == len(families)


def test_rank_against_numpy_oracle(algebra_3):
    families = compute_families(algebra_3)
    for seed in range(5):
        built = build(algebra_3, len(families) + 3, seed)
        reps = built.feature_map.matrix[families[:, 0]]
        assert np.linalg.matrix_rank(reps) == \
            check_slp(built.feature_map).details["rep_rank"]


def test_duplicated_representative_rows_lose_rank(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 1).feature_map
    matrix = fmap.matrix.copy()
    fam_a, fam_b = families[0], families[1]
    # overwrite family B with family A's rows, column by column: each
    # column is one LogicalOp, so the signs match member-wise
    matrix[fam_b] = matrix[fam_a]
    broken = FeatureMap(algebra_3, matrix)
    report = check_slp(broken)
    assert not report.passed
    assert report.details["rep_rank"] == len(families) - 1
    # but equivariance still holds, isolating the rank failure
    assert check_logical_equivariance(broken).passed


def test_zero_map_has_rank_zero(algebra_3):
    queries = enumerate_queries(algebra_3)
    fmap = FeatureMap(algebra_3, np.zeros((len(queries), 4)))
    report = check_slp(fmap)
    assert not report.passed and report.details["rep_rank"] == 0


def test_undersized_width_cannot_reach_rank(algebra_3):
    families = compute_families(algebra_3)
    built = build(algebra_3, len(families) - 2, 0)
    report = check_slp(built.feature_map)
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
    moved = FeatureMap(algebra_3, fmap.matrix @ change)
    equiv = check_logical_equivariance(moved)
    assert equiv.passed and equiv.max_deviation == 0.0
    assert check_slp(moved).passed


# ------------------------------------------------------------------ kernels

def test_kernel_dimension_slp(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 0).feature_map
    report = check_family_kernel_decomposition(fmap)
    assert report.details["kernel_dim"] == len(fmap.matrix) - len(families)
    assert kernel_basis(fmap.matrix).shape[0] == report.details["kernel_dim"]


def test_kernel_of_injective_map_trivial(algebra_2):
    n_queries = len(enumerate_queries(algebra_2))
    fmap = FeatureMap(algebra_2, np.eye(n_queries))
    assert fmap.spectrum.kernel_rank == n_queries
    assert kernel_basis(fmap.matrix).shape[0] == 0


def test_kernel_of_zero_map_is_everything(algebra_3):
    queries = enumerate_queries(algebra_3)
    fmap = FeatureMap(algebra_3, np.zeros((len(queries), 3)))
    report = check_family_kernel_decomposition(fmap)
    assert report.passed and report.details["kernel_dim"] == len(queries)
    assert kernel_basis(fmap.matrix).shape[0] == len(queries)


def test_kernel_vectors_annihilate_features(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 4).feature_map
    tol = numerics.rank_threshold(fmap.matrix)
    for v in kernel_basis(fmap.matrix):
        assert np.linalg.norm(fmap.matrix.T @ v) <= tol
    # the span projector fixes every feature column, so its complement, the
    # kernel the family check reads, annihilates the features too
    spec = fmap.spectrum
    u_k = spec.u[:, :spec.kernel_rank]
    assert np.max(np.abs(fmap.matrix - u_k @ (u_k.T @ fmap.matrix))) <= tol


def test_family_kernel_decomposition_holds_for_slp(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 5).feature_map
    report = check_family_kernel_decomposition(fmap)
    assert report.passed
    assert report.details["kernel_dim"] == len(fmap.matrix) - len(families)
    # the margin of the kernel's rank decision, read off the cached spectrum
    margin = report.details["kernel_rank"]
    spec = fmap.spectrum
    assert margin == numerics.rank_margin(spec.sv, spec.kernel_threshold)
    assert margin["smallest_kept_sv"] > margin["threshold"] \
        >= margin["largest_rejected_sv"]
    assert np.sum(spec.sv > margin["threshold"]) == len(families)


def test_family_kernel_decomposition_detects_cross_family_dependency(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 6).feature_map
    matrix = fmap.matrix.copy()
    fam_a, fam_b = families[0], families[1]
    # give family B features proportional to family A's: equivariant, not SLP
    matrix[fam_b] = 0.5 * matrix[fam_a]
    broken = FeatureMap(algebra_3, matrix)
    report = check_family_kernel_decomposition(broken)
    assert not report.passed
    assert report.details["violations"] == 2
    queries = enumerate_queries(algebra_3)
    assert report.details["failing_families"] == [
        list(queries[fam_a[0]]), list(queries[fam_b[0]])]
    assert report.max_deviation > report.details["tol"]
    assert_checks_agree(broken)


def test_family_kernel_check_fails_just_above_its_tolerance(algebra_3):
    # one representative row takes eps times another family's: the largest
    # cross-family leak, about 0.19 eps, lies between PROJECTOR_TOL and ten
    # times it at eps = 1e-7, and below PROJECTOR_TOL at its 1e-8 twin
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 5).feature_map

    def mixed(eps):
        matrix = np.array(fmap.matrix)
        matrix[families[2, 0]] += eps * matrix[families[5, 0]]
        return check_family_kernel_decomposition(FeatureMap(algebra_3,
                                                            matrix))

    tol = numerics.PROJECTOR_TOL
    above, below = mixed(1e-7), mixed(1e-8)
    assert tol < above.max_deviation < 10 * tol and not above.passed
    assert decode_queries(families[2, 0], 3, algebra_3.size) \
        in above.details["failing_families"]
    assert tol / 10 < below.max_deviation <= tol and below.passed


def test_empty_kernel_vacuous_pass(algebra_2):
    # an injective map has no kernel vector to restrict to a family
    fmap = FeatureMap(algebra_2, np.eye(len(enumerate_queries(algebra_2))))
    report = check_family_kernel_decomposition(fmap)
    assert report.passed and report.details["kernel_dim"] == 0


def assert_checks_agree(fmap):
    """The projector check and the kernel-basis reference agree."""
    report = check_family_kernel_decomposition(fmap)
    passed, kernel_dim, failing = family_kernel_reference(fmap)
    families = fmap.families
    assert report.passed == passed
    assert report.details["kernel_dim"] == kernel_dim
    assert report.details["violations"] == len(failing)
    assert report.details["failing_families"] == [
        decode_queries(families[i, 0], fmap.n, fmap.size) for i in failing]
    return report


@pytest.mark.parametrize("n,seed,parity,extra", [
    (3, 0, None, 0), (3, 1, "+", 0), (3, 2, "-", 0), (3, 3, None, 5),
    (4, 0, None, 0), (4, 1, "+", 0), (4, 2, "-", 0),
    (5, 0, None, 0), (5, 1, "-", 0)])
def test_projector_check_agrees_with_kernel_basis_reference(n, seed, parity,
                                                            extra):
    rng = np.random.default_rng(seed)
    algebra = close_unary([random_proper_relation(EntitySet.of_size(n), rng,
                                                  name="r0")])
    families = compute_families(algebra)
    fmap = build(algebra, len(families) + extra, seed,
                 parity=parity).feature_map
    assert_checks_agree(fmap)


def test_projector_check_agrees_on_a_row_summed_from_two_families(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 6).feature_map
    matrix = fmap.matrix.copy()
    a, b, c = families[:3, 0]
    matrix[c] = matrix[a] + matrix[b]
    report = assert_checks_agree(FeatureMap(algebra_3, matrix))
    queries = enumerate_queries(algebra_3)
    assert report.details["failing_families"] == [
        list(queries[a]), list(queries[b]), list(queries[c])]


# -------------------------------------------------------------------- lifts

def test_lift_defining_property(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 7).feature_map
    for g in (GroupElementH((1, 0, 2), 1), GroupElementH((2, 0, 1), -1)):
        lift = lift_renaming(fmap, g)
        for q in enumerate_queries(algebra_3):
            target = fmap.matrix[fmap.index(*apply_renaming(g, q, algebra_3))]
            row = fmap.matrix[fmap.index(*q)]
            assert np.max(np.abs(lift.matrix @ row - target)) <= 1e-9


def test_negation_lift_is_minus_identity_on_span(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 8).feature_map
    g = GroupElementH((0, 1, 2), -1)
    lift = lift_renaming(fmap, g)
    # M + I annihilates every feature row
    gap = np.max(np.abs(fmap.matrix @ (lift.matrix + np.eye(fmap.dim)).T))
    assert gap <= 1e-9


def test_identity_lift_is_identity_on_span(algebra_3):
    fmap = build(algebra_3, 9, 9).feature_map
    lift = lift_renaming(fmap, GroupElementH((0, 1, 2)))
    gap = np.max(np.abs(fmap.matrix @ (lift.matrix - np.eye(fmap.dim)).T))
    assert gap <= 1e-9


def test_lift_homomorphism_all_144_pairs(algebra_3):
    fmap = build(algebra_3, 9, 10).feature_map
    elements = [GroupElementH(p, s) for p in symmetric_group(3)
                for s in (1, -1)]
    lifts = {g: lift_renaming(fmap, g) for g in elements}
    for g1, g2 in itertools.product(elements, elements):
        composed = compose_renamings(g1, g2)
        gap = np.max(np.abs(lifts[g1].matrix @ lifts[g2].matrix -
                            lifts[composed].matrix))
        assert gap <= 1e-9


def test_sign_flip_between_lifts(algebra_3):
    fmap = build(algebra_3, 9, 11).feature_map
    for perm in symmetric_group(3):
        plus = lift_renaming(fmap, GroupElementH(perm, 1))
        minus = lift_renaming(fmap, GroupElementH(perm, -1))
        assert np.max(np.abs(plus.matrix + minus.matrix)) <= 1e-9


def test_lift_rejects_non_invariant_kernel(algebra_3):
    queries = enumerate_queries(algebra_3)
    rng = np.random.default_rng(3)
    fmap = FeatureMap(algebra_3, rng.standard_normal((len(queries), 6)))
    with pytest.raises(KernelNotInvariantError):
        lift_renaming(fmap, GroupElementH((1, 0, 2), 1))


def test_span_lifts_are_orthogonal_and_compose(algebra_3):
    fmap = build(algebra_3, 13, 10).feature_map
    spec = fmap.spectrum
    r = spec.span_rank
    elements = [GroupElementH(p, s) for p in symmetric_group(3)
                for s in (1, -1)]
    lifts = {g: lift_renaming(fmap, g) for g in elements}
    v_r, s_r = spec.vt[:r].T, spec.sv[:r]
    for g, lift in lifts.items():
        assert lift.span.shape == (r, r) and r < fmap.dim
        assert np.max(np.abs(lift.span @ lift.span.T - np.eye(r))) <= 1e-12
        ambient = v_r @ np.diag(s_r) @ lift.span @ np.diag(1 / s_r) @ v_r.T
        assert np.max(np.abs(lift.matrix - ambient)) <= 1e-12
    for g1, g2 in itertools.product(elements, elements):
        gap = np.max(np.abs(lifts[g1].span @ lifts[g2].span
                            - lifts[compose_renamings(g1, g2)].span))
        assert gap <= 1e-12


def test_kernel_not_invariant_names_renaming_and_deviation(algebra_3):
    fmap = build(algebra_3, 4, 3).feature_map   # 4 < 9 families
    g = GroupElementH((1, 0, 2), 1)
    with pytest.raises(KernelNotInvariantError) as info:
        lift_renaming(fmap, g)
    assert info.value.renaming == g
    assert info.value.deviation > numerics.PROJECTOR_TOL
    spec = fmap.spectrum
    u_r = spec.u[:, :spec.span_rank]
    rho = u_r[per_query_permutation(fmap, g)].T @ u_r
    assert info.value.deviation == np.max(np.abs(rho @ rho.T
                                                 - np.eye(len(rho))))


def test_lift_range_and_kernel_follow_span(algebra_3):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families) + 4, 12).feature_map
    spec = fmap.spectrum
    basis = spec.vt[:spec.span_rank]
    off_span = np.eye(fmap.dim) - basis.T @ basis
    lift = lift_renaming(fmap, GroupElementH((1, 2, 0), -1))
    # min-norm lift vanishes off the span and maps into it
    assert np.max(np.abs(lift.matrix @ off_span)) <= 1e-9
    assert np.max(np.abs(off_span @ lift.matrix)) <= 1e-9


def test_lift_rejects_renaming_of_wrong_length(algebra_3):
    fmap = build(algebra_3, n_families(algebra_3), 7).feature_map
    assert (fmap.n, fmap.size, fmap.matrix.shape[0]) == (3, 4, 36)
    # unchecked, (1, 0, 2, 3) would lift as (1, 0, 2), never reading
    # perm[3], and the tail 3 of (0, 1, 3, 2) would alias the next
    # relation's tail 0, overflowing the grid only on the last relation
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (1, 0)):
        with pytest.raises(ValueError,
                           match=f"{len(perm)} entities .* 3 entities"):
            lift_renaming(fmap, GroupElementH(perm, 1))


def per_query_permutation(fmap, g):
    """The per-query reference: one scalar apply_renaming per grid query."""
    n, size = fmap.n, fmap.size
    images = (apply_renaming(g, Query(*q), fmap.algebra) for q in
              itertools.product(range(n), range(size), range(n)))
    return np.array([(h * size + r) * n + t for h, r, t in images])


def assert_lift_matches_per_query(fmap, g):
    lift = lift_renaming(fmap, g)
    perm = per_query_permutation(fmap, g)
    assert np.array_equal(lift.perm, perm), g
    spec = fmap.spectrum
    u_r = spec.u[:, :spec.span_rank]
    assert lift.span.tobytes() == (u_r[perm].T @ u_r).tobytes(), g


def drawn_algebra(entities, max_relations):
    return entities.flatmap(lambda n: st.lists(
        proper_relation_strategy(n), min_size=1,
        max_size=max_relations)).map(close_unary)


@given(drawn_algebra(st.integers(2, 3), 2), st.integers(0, 2**16))
def test_grid_lifts_match_per_query_reference_whole_group(algebra, seed):
    fmap = build(algebra, n_families(algebra), seed).feature_map
    for perm in symmetric_group(algebra.entity_set.n):
        for sign in (1, -1):
            assert_lift_matches_per_query(fmap, GroupElementH(perm, sign))


@settings(max_examples=15)
@given(drawn_algebra(st.integers(4, 5), 1), st.integers(0, 2**16),
       st.data())
def test_grid_lifts_match_per_query_reference_sampled(algebra, seed, data):
    fmap = build(algebra, n_families(algebra), seed).feature_map
    n = algebra.entity_set.n
    for perm in data.draw(st.lists(st.permutations(range(n)), min_size=1,
                                   max_size=3)):
        for sign in (1, -1):
            assert_lift_matches_per_query(fmap,
                                          GroupElementH(tuple(perm), sign))


def test_one_lift_renames_the_grid_once(monkeypatch):
    entity_set = EntitySet.of_size(5)
    algebra = close_unary([Relation.from_pairs(
        entity_set, [(0, 1), (1, 2), (3, 4)], "r0")])
    fmap = build(algebra, n_families(algebra), 0).feature_map
    assert fmap.matrix.shape[0] >= 100
    calls = []

    def counted(*args):
        calls.append(args)
        return apply_renaming(*args)

    monkeypatch.setattr(featspace, "apply_renaming", counted)
    lift_renaming(fmap, GroupElementH((1, 2, 0, 4, 3), -1))
    lift_renaming(fmap, GroupElementH((4, 2, 0, 1, 3), 1))
    assert len(calls) == 2
    # both renamed the one grid the map caches, which no caller can write
    grid = fmap.query_grid
    assert calls[0][1] is calls[1][1] is grid
    assert not any(a.flags.writeable for a in grid)


# ---------------------------------------------------------------- partition

def counted_partition(monkeypatch, *modules):
    """Count the compute_families calls made through each module's binding."""
    calls = []

    def counted(algebra):
        calls.append(algebra)
        return compute_families(algebra)

    for module in modules:
        monkeypatch.setattr(module, "compute_families", counted)
    return calls


def test_a_map_computes_its_partition_once(monkeypatch, algebra_3):
    # a fresh map: a build's map has already read its partition
    fmap = FeatureMap(algebra_3, build(algebra_3, 9, 13).feature_map.matrix)
    calls = counted_partition(monkeypatch, featspace)
    assert check_logical_equivariance(fmap).passed
    assert check_slp(fmap).passed
    assert check_family_kernel_decomposition(fmap).passed
    assert propagation_audit(fmap, 0, 0.25).passed
    assert calls == [algebra_3]


def test_verify_slp_computes_the_partition_once(monkeypatch, tmp_path,
                                                 algebra_3):
    path = tmp_path / "map.json"
    save_feature_map(build(algebra_3, 9, 13).feature_map, path)
    calls = counted_partition(monkeypatch, featspace, cli)
    assert cli.main(["verify-slp", "--load", str(path),
                     "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv, expected", [
    (["build-slp", "--entities", "3", "--relations", "2"], 1),
    (["factorize", "--entities", "3", "--relations", "2"], 1),
    (["parity", "--entities", "3", "--relations", "2"], 1),
    (["audit", "--entities", "3", "--relations", "2"], 1),
    (["isotypic", "--entities", "3", "--relations", "1"], 1),
    # width 3 cannot reach full rank, so the build redraws: a second map
    (["build-slp", "--entities", "4", "--relations", "2", "--context-dim",
      "3", "--seed", "5"], 2),
], ids=["build-slp", "factorize", "parity", "audit", "isotypic", "redraw"])
def test_build_commands_compute_the_partition_once_per_map(
        monkeypatch, tmp_path, argv, expected):
    # the default width and term count are counted, not partitioned
    calls = counted_partition(monkeypatch, featspace, cli)
    cli.main(argv + ["--out", str(tmp_path / "report.json")])
    assert len(calls) == expected


# ---------------------------------------------------------------- equality

def test_array_holders_compare_by_identity(algebra_3):
    matrix = build(algebra_3, 9, 13).feature_map.matrix
    fmap, twin = FeatureMap(algebra_3, matrix), FeatureMap(algebra_3, matrix)
    lift = lift_renaming(fmap, GroupElementH((1, 0, 2)))
    other = lift_renaming(fmap, GroupElementH((1, 0, 2)))
    for value, copy in ((fmap, twin), (lift, other)):
        assert value != copy and not value == copy
        assert value == value and hash(value) == hash(value)
        assert len({value, copy}) == 2


# -------------------------------------------------------------- propagation

def test_propagation_audit_signs_and_gram(algebra_3):
    families = compute_families(algebra_3)
    built = build(algebra_3, len(families), 13)
    for edited in (0, len(families) // 2):
        report = propagation_audit(built.feature_map, edited, eta=0.25)
        assert report.passed and report.max_deviation == 0.0
        responses = report.details["responses"]
        assert responses["neg"] == -responses["id"]
        assert responses["rev"] == responses["id"]
        assert responses["negrev"] == -responses["id"]
        assert report.details["gram_rank"] == len(families)


def test_propagation_audit_fails_one_ulp_off_a_signed_copy(algebra_3):
    # the within-family bound is exact: a negated member one ulp off -R
    # gives a nonzero deviation far below any float tolerance, and fails;
    # its twin, the exact signed copy, passes at 0.0
    fmap = build(algebra_3, n_families(algebra_3), 13).feature_map
    family = fmap.families[0].tolist()
    assert len(set(family)) == 4
    assert propagation_audit(fmap, 0, 0.25).max_deviation == 0.0
    matrix = fmap.matrix.copy()
    neg = family[1]
    matrix[neg, 0] = np.nextafter(matrix[neg, 0], np.inf)
    report = propagation_audit(FeatureMap(fmap.algebra, matrix), 0, 0.25)
    assert not report.passed
    assert 0.0 < report.max_deviation <= 1e-12
    responses = report.details["responses"]
    assert responses["neg"] != -responses["id"]
    assert responses["rev"] == responses["id"]


def test_propagation_audit_zero_step(algebra_3):
    families = compute_families(algebra_3)
    built = build(algebra_3, len(families), 14)
    report = propagation_audit(built.feature_map, 0, 0.0)
    assert report.passed
    assert all(v == 0.0 for v in report.details["responses"].values())
    assert all(v == 0.0
               for v in report.details["other_family_responses"].values())


def test_propagation_audit_rejects_a_family_off_the_partition(algebra_3):
    fmap = build(algebra_3, n_families(algebra_3), 13).feature_map
    assert len(fmap.families) == 9
    # -1 would audit the last family and list it among the other families
    for edited in (-1, 9):
        with pytest.raises(ValueError, match=r"\[0, 9\), the family count"):
            propagation_audit(fmap, edited, 0.25)
    assert len(propagation_audit(fmap, 8, 0.25)
               .details["other_family_responses"]) == 8


# ------------------------------------------------------------------ storage

@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_save_load_round_trip_exact(tmp_path, algebra_3, fmt):
    families = compute_families(algebra_3)
    fmap = build(algebra_3, len(families), 15).feature_map
    path = tmp_path / f"map.{fmt}"
    save_feature_map(fmap, path, fmt)
    loaded = load_feature_map(path, fmt)
    algebra = loaded.algebra
    assert (loaded.n, loaded.size) == (fmap.n, fmap.size)
    assert np.array_equal(loaded.matrix, fmap.matrix)
    assert algebra.size == algebra_3.size
    assert algebra.closed == algebra_3.closed
    # the loaded map still passes the full check battery at exact tolerance
    report = check_logical_equivariance(loaded)
    assert report.passed and report.max_deviation == 0.0


def reference_save(fmap, path, fmt):
    """The byte format that save_feature_map keeps: json.dumps of the whole
    document, or csv.writer over repr(float(x)) plus a json sidecar."""
    sidecar = {
        "entities": list(fmap.algebra.entity_set.labels),
        "base_relations": [
            {"name": r.name or f"r{i}", "pairs": [[h, t] for h, t in r.pairs()]}
            for i, r in enumerate(fmap.algebra.base)],
        "queries": decode_queries(np.arange(len(fmap.matrix)), fmap.n,
                                  fmap.size),
    }
    if fmt == "json":
        doc = {**sidecar, "matrix": fmap.matrix.tolist()}
        path.write_text(json.dumps(doc, sort_keys=True) + "\n",
                        encoding="utf-8")
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in fmap.matrix:
            writer.writerow([repr(float(x)) for x in row])
    Path(f"{path}.index.json").write_text(
        json.dumps(sidecar, sort_keys=True) + "\n", encoding="utf-8")


def assert_saved_as_reference(fmap, directory):
    for fmt in ("json", "csv"):
        saved, expected = directory / f"saved.{fmt}", directory / f"ref.{fmt}"
        save_feature_map(fmap, saved, fmt)
        reference_save(fmap, expected, fmt)
        assert saved.read_bytes() == expected.read_bytes(), fmt
        if fmt == "csv":
            assert (Path(f"{saved}.index.json").read_bytes()
                    == Path(f"{expected}.index.json").read_bytes())
        loaded = load_feature_map(saved, fmt)
        # bit for bit, so that -0.0 counts
        assert np.array_equal(loaded.matrix.view(np.int64),
                              fmap.matrix.astype(float).view(np.int64)), fmt


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("parity", [None, "+", "-"])
@pytest.mark.parametrize("width", ["families", 1])
def test_saved_built_maps_match_the_reference_writer(tmp_path, n, parity,
                                                     width):
    rng = np.random.default_rng(n)
    algebra = close_unary([random_proper_relation(EntitySet.of_size(n), rng,
                                                  name="r0")])
    dim = n_families(algebra) if width == "families" else width
    fmap = build(algebra, dim, n, parity=parity).feature_map
    assert_saved_as_reference(fmap, tmp_path)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_saved_random_map_matches_the_reference_writer(tmp_path, algebra_3x2,
                                                       dtype):
    n_queries = 9 * algebra_3x2.size
    rng = np.random.default_rng(4)
    matrix = (10 * rng.standard_normal((n_queries, 5))).astype(dtype)
    fmap = FeatureMap(algebra_3x2, matrix)
    assert not check_logical_equivariance(fmap).passed
    assert_saved_as_reference(fmap, tmp_path)


EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-320, 1e-05, 1e+16, 1.2345678901234568e+17]


def edge_matrix(n_queries, width):
    """The edge floats and their negations, in a seeded order."""
    values = np.array(EDGE_FLOATS + [-x for x in EDGE_FLOATS])
    return np.random.default_rng(0).choice(values, (n_queries, width))


@pytest.mark.parametrize("block_entries", [featspace._BLOCK_ENTRIES, 7, 1])
def test_saved_edge_floats_match_the_reference_writer(tmp_path, monkeypatch,
                                                      algebra_2,
                                                      block_entries):
    # 7 entries make blocks of one and of two rows, with a short last one
    monkeypatch.setattr(featspace, "_BLOCK_ENTRIES", block_entries)
    n_queries = 4 * algebra_2.size
    for width in (1, 3, 8):
        matrix = edge_matrix(n_queries, width)
        assert set(map(repr, matrix.ravel().tolist())) >= {"-0.0", "0.0"}
        assert_saved_as_reference(FeatureMap(algebra_2, matrix), tmp_path)


def test_saved_map_over_many_blocks_matches_the_reference_writer(
        tmp_path, monkeypatch, algebra_3x2):
    fmap = build(algebra_3x2, 18, 2).feature_map
    monkeypatch.setattr(featspace, "_BLOCK_ENTRIES", 100)
    assert fmap.matrix.size > 10 * featspace._BLOCK_ENTRIES
    assert_saved_as_reference(fmap, tmp_path)


def test_feature_map_validation(algebra_2):
    n_queries = len(enumerate_queries(algebra_2))
    with pytest.raises(ValueError):
        FeatureMap(algebra_2, np.zeros((n_queries, 0)))  # dim must be >= 1
    with pytest.raises(ValueError):
        FeatureMap(algebra_2, np.zeros((n_queries + 1, 2)))  # row count
    matrix = np.zeros((n_queries, 2))
    matrix[3, 1] = np.inf
    with pytest.raises(ValueError):
        FeatureMap(algebra_2, matrix)


def test_rows_are_found_by_arithmetic_on_the_grid(algebra_3x2):
    matrix = np.arange(9 * algebra_3x2.size, dtype=float)[:, None]
    fmap = FeatureMap(algebra_3x2, matrix)
    assert not hasattr(fmap, "queries")
    for i, q in enumerate(enumerate_queries(algebra_3x2)):
        assert fmap.index(*q) == i and fmap.matrix[i, 0] == i
    heads, rels, tails = np.array(enumerate_queries(algebra_3x2)).T
    assert np.array_equal(fmap.index(heads, rels, tails), np.arange(len(matrix)))
    # (0, 0, 3) would alias (0, 1, 0), and (0, size, 0) would alias (1, 0, 0)
    for q in ((0, 0, 3), (0, algebra_3x2.size, 0), (-1, 0, 0)):
        with pytest.raises(ValueError):
            fmap.index(*q)


def test_rows_given_in_another_order_are_put_in_grid_order(algebra_3):
    queries = enumerate_queries(algebra_3)
    matrix = np.arange(len(queries), dtype=float)[:, None]
    order = np.random.default_rng(0).permutation(len(queries))
    fmap = FeatureMap(algebra_3, matrix[order],
                      [list(queries[i]) for i in order])
    assert np.array_equal(fmap.matrix, matrix)


@pytest.mark.parametrize("bad,replaced", [
    # each off-grid query stands in for the query at its computed position
    ((0, 0, 3), (0, 1, 0)), ((0, 4, 0), (1, 0, 0)), ((-1, 3, 3), (0, 0, 0)),
    ((0, 0, 0.0), (0, 0, 0)), (("0", 0, 0), (0, 0, 0)), ((0, 0), (0, 0, 0))])
def test_queries_off_the_grid_are_rejected(algebra_3, bad, replaced):
    queries = [list(q) for q in enumerate_queries(algebra_3)]
    matrix = np.zeros((len(queries), 2))
    FeatureMap(algebra_3, matrix, queries)
    queries[queries.index(list(replaced))] = list(bad)
    with pytest.raises(ValueError):
        FeatureMap(algebra_3, matrix, queries)


def test_queries_must_name_each_query_once(algebra_3):
    queries = [list(q) for q in enumerate_queries(algebra_3)]
    queries[1] = queries[0]
    with pytest.raises(ValueError, match="each query"):
        FeatureMap(algebra_3, np.zeros((len(queries), 2)), queries)