"""The cached spectrum: one SVD per feature map, read by kernel, span and lifts."""

import json

import numpy as np
import pytest

from conftest import random_proper_relation
from slplab import numerics
from slplab.cli import main
from slplab.factorize import BlockSpec, build_slp_map, isotypic_decompose
from slplab.featspace import (FeatureMap, KernelNotInvariantError, kernel,
                              lift_renaming)
from slplab.queryspace import (GroupElementH, apply_renaming,
                               compute_families, symmetric_group)
from slplab.relalg import EntitySet, close_unary


def seeded_map(n, seed):
    rng = np.random.default_rng(seed)
    algebra = close_unary([random_proper_relation(EntitySet.of_size(n), rng,
                                                  name="r0")])
    dim = len(compute_families(algebra))
    return algebra, build_slp_map(algebra, [BlockSpec(dim)], seed)


def nullspace(matrix):
    """Reference null space: rows of a full SVD's vt past the numerical rank."""
    m = np.asarray(matrix, dtype=float)
    _, sv, vt = np.linalg.svd(m, full_matrices=True)
    return vt[int(np.sum(sv > numerics.rank_threshold(m))):]


def reference_lift(fmap, g, algebra):
    """The per-call construction: own kernel SVD, own least-squares solve."""
    m = np.array(fmap.matrix)
    idx = {q: i for i, q in enumerate(fmap.queries)}
    perm = np.array([idx[apply_renaming(g, q, algebra)] for q in fmap.queries])
    tol = numerics.rank_threshold(m)
    for v in nullspace(m.T):
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
        lift = lift_renaming(fmap, g, algebra)
        ref = reference_lift(fmap, g, algebra)
        assert np.max(np.abs(lift.matrix - ref)) <= 1e-10, g
        assert lift.residual <= 1e-10


@pytest.mark.parametrize("n,seed", [(3, 2), (4, 2)])
def test_kernel_projector_matches_per_call_reference(n, seed):
    _, built = seeded_map(n, seed)
    fmap = built.feature_map
    ker = kernel(fmap)
    ref = nullspace(np.array(fmap.matrix).T)
    assert ker.dim == ref.shape[0] > 0
    assert ker.tol == numerics.rank_threshold(fmap.matrix)
    assert np.max(np.abs(ker.basis.T @ ker.basis - ref.T @ ref)) <= 1e-10


def test_spectrum_thresholds_are_the_column_and_row_scales():
    _, built = seeded_map(3, 3)
    m = built.feature_map.matrix
    spec = built.feature_map.spectrum()
    assert spec.kernel_threshold == numerics.rank_threshold(m.T)
    assert spec.span_threshold == numerics.rank_threshold(m)
    assert spec.kernel_basis.shape == (m.shape[0] - spec.kernel_rank,
                                       m.shape[0])
    assert spec.span_basis.shape == (spec.span_rank, m.shape[1])
    assert built.feature_map.spectrum() is spec


def test_isotypic_on_a_warm_map_is_bit_identical_to_a_cold_map():
    algebra, warm = seeded_map(4, 5)
    _, cold = seeded_map(4, 5)
    kernel(warm.feature_map)
    warm.feature_map.spectrum().span_basis
    for g in group(4)[:6]:
        lift_renaming(warm.feature_map, g, algebra)
    warm_proj, warm_props = isotypic_decompose(warm)
    cold_proj, cold_props = isotypic_decompose(cold)
    assert warm_props == cold_props
    for a, b in zip(warm_proj, cold_proj):
        assert a.irrep == b.irrep and a.image_dim == b.image_dim
        assert np.array_equal(a.matrix, b.matrix)


def test_writes_to_the_source_array_do_not_reach_the_spectrum():
    _, built = seeded_map(3, 6)
    source = np.array(built.feature_map.matrix)
    original = source.copy()
    fmap = FeatureMap(built.feature_map.queries, source)
    source[:] = 0.0
    assert np.array_equal(fmap.matrix, original)
    spec = fmap.spectrum()
    assert np.array_equal(spec.sv, np.linalg.svd(original)[1])
    assert kernel(fmap).dim == original.shape[0] - numerics.rank(original)
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
