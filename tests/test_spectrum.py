"""The cached spectra: one thin SVD of a feature map's representative rows,
read by the rank check, the build's redraw and the audit's Gram rank, and
one of the whole map, read by the family kernel check and lifts, which is
derived from the representative rows' on an exact signed copy of them."""

import itertools
import json

import numpy as np
import pytest

from conftest import (enumerate_queries, kernel_basis, random_proper_relation,
                      rank)
from slplab import numerics
from slplab.cli import main
from slplab.factorize import build_slp_map, isotypic_decompose
from slplab.featspace import (FeatureMap, KernelNotInvariantError,
                              check_family_kernel_decomposition, check_slp,
                              lift_renaming, load_feature_map,
                              propagation_audit, save_feature_map)
from slplab.queryspace import (GroupElementH, apply_renaming,
                               compute_families, symmetric_group)
from slplab.relalg import EntitySet, Relation, close_unary


def seeded_map(n, seed):
    rng = np.random.default_rng(seed)
    algebra = close_unary([random_proper_relation(EntitySet.of_size(n), rng,
                                                  name="r0")])
    families = compute_families(algebra)
    return algebra, build_slp_map(algebra, len(families), 1, None, seed)


def reference_lift(fmap, g, algebra):
    """The per-call construction: own kernel SVD, own least-squares solve."""
    m = np.array(fmap.matrix)
    queries = enumerate_queries(algebra)
    idx = {q: i for i, q in enumerate(queries)}
    perm = np.array([idx[apply_renaming(g, q, algebra)] for q in queries])
    tol = numerics.rank_threshold(m)
    for v in kernel_basis(m):
        moved = np.zeros_like(v)
        moved[perm] = v
        residual = float(np.linalg.norm(m.T @ moved))
        if residual > tol:
            raise KernelNotInvariantError(g, residual)
    return numerics.minnorm_lstsq(m, m[perm]).T


def group(n):
    return [GroupElementH(p, s) for p in symmetric_group(n) for s in (1, -1)]


@pytest.mark.parametrize("n,seed", [(3, 0), (3, 1), (4, 0), (4, 1)])
def test_cached_lifts_match_per_call_reference(n, seed):
    algebra, built = seeded_map(n, seed)
    fmap = built.feature_map
    for g in group(n):
        lift = lift_renaming(fmap, g)
        ref = reference_lift(fmap, g, algebra)
        assert np.max(np.abs(lift.matrix - ref)) <= 1e-10, g
        m = fmap.matrix
        assert np.max(np.abs(m @ lift.matrix.T - m[lift.perm])) <= 1e-10


@pytest.mark.parametrize("n,seed", [(3, 2), (4, 2)])
def test_kernel_projector_matches_per_call_reference(n, seed):
    _, built = seeded_map(n, seed)
    fmap = built.feature_map
    spec = fmap.spectrum
    u_k = spec.u[:, :spec.kernel_rank]
    ref = kernel_basis(fmap.matrix)
    assert len(fmap.matrix) - spec.kernel_rank == ref.shape[0] > 0
    # the complement of the span projector is the reference kernel projector
    kernel_projector = np.eye(len(fmap.matrix)) - u_k @ u_k.T
    assert np.max(np.abs(kernel_projector - ref.T @ ref)) <= 1e-10


def test_spectrum_thresholds_are_the_column_and_row_scales():
    _, built = seeded_map(3, 3)
    m = built.feature_map.matrix
    spec = built.feature_map.spectrum
    assert spec.kernel_threshold == numerics.rank_threshold(m.T)
    assert spec.span_threshold == numerics.rank_threshold(m)
    # thin factors: no left basis beyond min(m.shape) columns
    k = min(m.shape)
    assert spec.u.shape == (m.shape[0], k) and spec.vt.shape == (k, m.shape[1])
    assert spec.kernel_rank <= k and spec.span_rank <= k
    assert built.feature_map.spectrum is spec


def test_isotypic_on_a_warm_map_is_bit_identical_to_a_cold_map():
    algebra, warm = seeded_map(4, 5)
    _, cold = seeded_map(4, 5)
    check_family_kernel_decomposition(warm.feature_map)
    for g in group(4)[:6]:
        lift_renaming(warm.feature_map, g)
    warm_proj, warm_props, warm_names = isotypic_decompose(warm.feature_map)
    cold_proj, cold_props, cold_names = isotypic_decompose(cold.feature_map)
    assert warm_props == cold_props and warm_names == cold_names
    for a, b in zip(warm_proj, cold_proj):
        assert a.irrep == b.irrep and a.image_dim == b.image_dim
        assert np.array_equal(a.matrix, b.matrix)


def test_gram_rank_matches_the_rank_of_the_formed_gram():
    for n, seed in itertools.product((2, 3, 4), range(6)):
        algebra, built = seeded_map(n, seed)
        fmap = built.feature_map
        reps = fmap.matrix[fmap.families[:, 0]]
        assert fmap.rep_spectrum.gram_rank() == rank(reps @ reps.T)
    rng = np.random.default_rng(0)
    for rows, cols, k in [(5, 3, 3), (8, 8, 4), (3, 9, 2), (6, 6, 1)]:
        m = rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
        assert numerics.Spectrum(m).gram_rank() == rank(m @ m.T) == k
        # one large row lifts the threshold over the Gram's other directions
        m[0] *= 1e6
        assert numerics.Spectrum(m).gram_rank() == rank(m @ m.T)
    for shape in [(0, 3), (3, 0), (4, 2)]:
        m = np.zeros(shape)
        assert numerics.Spectrum(m).gram_rank() == rank(m @ m.T) == 0


def test_writes_to_the_source_array_do_not_reach_the_spectrum():
    algebra, built = seeded_map(3, 6)
    source = np.array(built.feature_map.matrix)
    original = source.copy()
    fmap = FeatureMap(algebra, source)
    source[:] = 0.0
    assert np.array_equal(fmap.matrix, original)
    spec = fmap.spectrum
    # derived from the original's representative rows, bit for bit
    reps = original[fmap.families[:, 0]]
    assert np.array_equal(spec.sv, 2 * np.linalg.svd(reps)[1])
    assert kernel_basis(original).shape[0] \
        == original.shape[0] - spec.kernel_rank
    with pytest.raises(ValueError):
        fmap.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        spec.u[0, 0] = 1.0


@pytest.mark.parametrize("command", ["isotypic", "factorize"])
def test_reports_carry_the_lift_rank_margin(capsys, command):
    code = main([command, "--entities", "3", "--relations", "1",
                 "--seed", "3"])
    margin = json.loads(capsys.readouterr().out)["details"]["lift_rank"]
    assert code == 0
    assert set(margin) == {"threshold", "smallest_kept_sv",
                           "largest_rejected_sv"}
    assert margin["smallest_kept_sv"] > margin["threshold"] \
        >= margin["largest_rejected_sv"]


@pytest.fixture
def spectra(monkeypatch):
    """How each `numerics.Spectrum` made while it is active got its factors,
    "svd" or "derived", and the row count of its matrix."""
    made = []

    class Counted(numerics.Spectrum):
        def __init__(self, matrix, factors=None):
            super().__init__(matrix, factors)
            made.append(("svd" if factors is None else "derived",
                         len(self.matrix)))

    monkeypatch.setattr(numerics, "Spectrum", Counted)
    return made


@pytest.mark.parametrize("command,whole", [
    ("parity", False), ("audit", False), ("build-slp", True),
    ("factorize", True), ("isotypic", True)])
def test_each_command_decomposes_each_matrix_once(capsys, spectra, command,
                                                  whole):
    # `families` draws the closure the build commands draw at one seed
    assert main(["families", "--seed", "3"]) == 0
    counts = json.loads(capsys.readouterr().out)["details"]
    n_fam, n_queries = counts["n_families"], counts["n_queries"]
    assert n_queries == 4 * n_fam
    assert main([command, "--seed", "3"]) == 0
    # the representative rows are decomposed; the whole map, read only
    # where a check reads it, is their exact signed copy, so its factors
    # are derived from theirs
    assert spectra == [("svd", n_fam)] + (
        [("derived", n_queries)] if whole else [])


def test_verify_slp_decomposes_only_the_representatives_of_an_exact_map(
        capsys, spectra, tmp_path):
    path = tmp_path / "m.json"
    assert main(["build-slp", "--seed", "3", "--save", str(path)]) == 0
    n_fam = json.loads(capsys.readouterr().out)["details"]["slp_rank"][
        "details"]["n_families"]
    spectra.clear()
    assert main(["verify-slp", "--load", str(path)]) == 0
    assert spectra == [("svd", n_fam), ("derived", 4 * n_fam)]


def test_the_build_decides_its_redraw_without_the_whole_map_spectrum():
    algebra, built = seeded_map(4, 7)
    fmap = built.feature_map
    assert "spectrum" not in vars(fmap)
    reps = fmap.rep_spectrum
    assert reps.span_rank == len(fmap.families)
    assert np.array_equal(reps.matrix, fmap.matrix[fmap.families[:, 0]])
    # an undersized width is redrawn once, still without the whole map's
    narrow = build_slp_map(algebra, 2, 1, None, 7)
    assert narrow.redrawn and "spectrum" not in vars(narrow.feature_map)


def test_the_rank_check_and_the_audit_read_one_representative_spectrum():
    _, built = seeded_map(3, 8)
    fmap = built.feature_map
    reps = fmap.rep_spectrum
    report = check_slp(fmap)
    assert report.details["rep_rank"] == reps.span_rank
    assert {k: report.details[k] for k in reps.span_margin()} \
        == reps.span_margin()
    audit = propagation_audit(fmap, 0, 0.5)
    assert audit.details["gram_rank"] == reps.gram_rank()
    assert fmap.rep_spectrum is reps


def assert_spectra_agree(derived, dense):
    """Equal ranks and thresholds, margins within 1e-13 of the largest
    singular value, and span and kernel projectors within PROJECTOR_TOL."""
    assert derived.span_threshold == dense.span_threshold
    assert derived.kernel_threshold == dense.kernel_threshold
    assert derived.span_rank == dense.span_rank
    assert derived.kernel_rank == dense.kernel_rank
    scale = 1e-13 * dense.sv[0]
    for margin in ("span_margin", "kernel_margin"):
        got, ref = getattr(derived, margin)(), getattr(dense, margin)()
        assert all(abs(got[k] - ref[k]) <= scale for k in ref), (got, ref)
    for rank_ in (dense.span_rank, dense.kernel_rank):
        got, ref = derived.u[:, :rank_], dense.u[:, :rank_]
        assert np.max(np.abs(got @ got.T - ref @ ref.T),
                      initial=0.0) <= numerics.PROJECTOR_TOL
    r = dense.span_rank
    assert np.max(np.abs(derived.vt[:r].T @ derived.vt[:r]
                         - dense.vt[:r].T @ dense.vt[:r]),
                  initial=0.0) <= numerics.PROJECTOR_TOL


def test_the_derived_spectrum_agrees_with_the_dense_reference(spectra):
    derived = 0
    rng = np.random.default_rng(37)
    for n, relations, _ in itertools.product(range(2, 7), range(1, 4),
                                             range(2)):
        for parity in (None, "+", "-"):
            entity_set = EntitySet.of_size(n)
            algebra = close_unary([
                random_proper_relation(entity_set, rng, name=f"r{i}")
                for i in range(relations)])
            n_fam = len(compute_families(algebra))
            if 4 * n_fam != algebra.size * n * n:
                continue  # a reversal-fixed family: the dense path
            widths = {1, 2, n_fam // 2, n_fam - 1, n_fam, n_fam + 1,
                      3 * n_fam // 2, 2 * n_fam} - {0}
            for width in sorted(widths):
                seed = int(rng.integers(2 ** 31))
                fmap = build_slp_map(algebra, width, 2, parity,
                                     seed).feature_map
                fmap.rep_spectrum  # a redraw leaves it unread
                spectra.clear()
                spec = fmap.spectrum
                assert spectra == [("derived", len(fmap.matrix))]
                assert spec.u.shape == (len(fmap.matrix), min(n_fam, width))
                assert_spectra_agree(spec, numerics.Spectrum(fmap.matrix))
                derived += 1
    assert derived >= 500


def dense_spectrum(fmap, spectra):
    """The map's spectrum, asserted to decompose the whole map itself."""
    spectra.clear()
    spec = fmap.spectrum
    assert spectra == [("svd", len(fmap.matrix))]
    assert spec.u.shape == (len(fmap.matrix), min(fmap.matrix.shape))
    return spec


def test_a_map_one_ulp_off_its_signed_copy_is_decomposed_itself(spectra):
    algebra, built = seeded_map(4, 9)
    matrix = np.array(built.feature_map.matrix)
    assert len(matrix) == 4 * len(built.feature_map.families)
    q = built.feature_map.families[3, 2]
    matrix[q, 0] = np.nextafter(matrix[q, 0], np.inf)
    dense_spectrum(FeatureMap(algebra, matrix), spectra)


def test_a_map_with_a_reversal_fixed_family_is_decomposed_itself(spectra):
    # a symmetric relation: reversal fixes each (h, r, h)
    entity_set = EntitySet.of_size(3)
    symmetric = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=bool)
    algebra = close_unary([Relation(entity_set, symmetric, "r0")])
    families = compute_families(algebra)
    assert 4 * len(families) > algebra.size * 9
    fmap = build_slp_map(algebra, len(families), 2, None, 0).feature_map
    spec = dense_spectrum(fmap, spectra)
    assert check_slp(fmap).passed and spec.span_rank == len(families)


def test_a_loaded_map_off_its_signed_copy_is_decomposed_itself(
        spectra, tmp_path):
    algebra, built = seeded_map(3, 10)
    matrix = np.array(built.feature_map.matrix)
    assert len(matrix) == 4 * len(built.feature_map.families)
    matrix[built.feature_map.families[0, 1]] *= 1 + 1e-12
    path = tmp_path / "m.json"
    save_feature_map(FeatureMap(algebra, matrix), path)
    dense_spectrum(load_feature_map(path), spectra)
