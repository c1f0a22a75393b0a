"""The cached spectra: one thin SVD per feature map, read by the family
kernel check and lifts, and one of its representative rows, read by the
rank check, the build's redraw and the audit's Gram rank."""

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
                              lift_renaming, propagation_audit)
from slplab.queryspace import (GroupElementH, apply_renaming,
                               compute_families, symmetric_group)
from slplab.relalg import EntitySet, close_unary


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
    assert np.array_equal(spec.sv, np.linalg.svd(original)[1])
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
    """The matrices of every `numerics.Spectrum` made while it is active."""
    made = []

    class Counted(numerics.Spectrum):
        def __init__(self, matrix):
            super().__init__(matrix)
            made.append(self.matrix)

    monkeypatch.setattr(numerics, "Spectrum", Counted)
    return made


@pytest.mark.parametrize("command,whole", [
    ("parity", False), ("audit", False), ("build-slp", True),
    ("factorize", True)])
def test_each_command_decomposes_each_matrix_once(capsys, spectra, command,
                                                  whole):
    # `families` draws the closure the build commands draw at one seed
    assert main(["families", "--seed", "3"]) == 0
    counts = json.loads(capsys.readouterr().out)["details"]
    assert main([command, "--seed", "3"]) == 0
    # the representative rows, and the whole map only where a check reads it
    assert [len(m) for m in spectra] == [counts["n_families"]] + (
        [counts["n_queries"]] if whole else [])


def test_verify_slp_decomposes_the_map_and_its_representatives_once(
        capsys, spectra, tmp_path):
    path = tmp_path / "m.json"
    assert main(["build-slp", "--seed", "3", "--save", str(path)]) == 0
    spectra.clear()
    assert main(["verify-slp", "--load", str(path)]) == 0
    assert len(spectra) == 2 and spectra[0].shape != spectra[1].shape


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
