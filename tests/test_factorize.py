"""Tensor-factorized builds: form audits, splits, isotypic pieces, Hom law."""

import itertools

import numpy as np
import pytest

from conftest import (conjugate_lift_at, enumerate_queries, perm_sign,
                      random_proper_relation, rank, standard_rep,
                      sym_generators)
from slplab import characters, factorize
from slplab.factorize import (ConverseInvarianceError, FactorizedMap,
                              assemble_rows, build_slp_map,
                              character_hom_dim, commutant_hom_dimension,
                              hom_dimension_check, involution_dims,
                              involution_split, isotypic_decompose,
                              negation_split, pair_space_representation,
                              parity_decompose, relation_sign_representation,
                              verify_factorized_form)
from slplab.featspace import (FeatureMap, check_logical_equivariance,
                              check_slp, lift_renaming)
from slplab.numerics import PROJECTOR_TOL, projector_trace_dim
from slplab.queryspace import (GroupElementH, Query, compute_families,
                               symmetric_group)
from slplab.relalg import EntitySet, Relation, close_unary, converse


def build(algebra, dim, seed, terms=1, parity=None):
    return build_slp_map(algebra, dim, terms, parity, seed)


# --------------------------------------------------------------- form audit

def test_verify_passes_on_builds(algebra_3):
    for seed in range(10):
        built = build(algebra_3, 9, seed)
        report = verify_factorized_form(built)
        assert report.passed and report.max_deviation == 0.0
        assert report.details["rows_exact"] is True
        assert report.details["sign_faults"] == []


def with_factors(u, v, algebra):
    """The factorized map that the factors sum to."""
    return FactorizedMap(u, v, FeatureMap(algebra, assemble_rows(u, v, algebra)))


def interleaved(a, b):
    """a[0], b[0], a[1], b[1], ...: two stacks of terms, term by term."""
    return np.stack([a, b], axis=1).reshape(-1, *a.shape[1:])


def test_injected_sign_fault_located(algebra_3):
    built = build(algebra_3, 9, 0)
    v_bad = built.v.copy()
    r = 0
    v_bad[0, algebra_3.images[1, r]] = v_bad[0, r]  # break v(not r) = -v(r)
    broken = with_factors(built.u, v_bad, algebra_3)
    report = verify_factorized_form(broken)
    assert not report.passed
    faults = report.details["sign_faults"]
    assert faults, "fault must be reported"
    located = {(f["term"], f["relation"]) for f in faults}
    # both members of the complement pair show the violation
    assert (0, r) in located and (0, algebra_3.images[1, r]) in located
    expected = abs(2.0 * built.v[0, r])
    assert any(np.isclose(f["deviation"], expected) for f in faults)


def per_relation_sign_faults(v, algebra):
    """The sign audit one term and relation at a time, the oracle for its
    order."""
    return [{"term": ki, "relation": r,
             "deviation": float(abs(vk[algebra.images[1, r]] + vk[r]))}
            for ki, vk in enumerate(v)
            for r in range(algebra.size)
            if abs(vk[algebra.images[1, r]] + vk[r]) != 0.0]


def test_sign_faults_pinned_against_a_per_relation_loop(algebra_3x2):
    built = build(algebra_3x2, 4, 2, terms=2)
    assert len(built.u) == len(built.v) == 4
    # break the law in both terms of the second raw sample, and once in
    # the first
    breaks = {1: {0: 0.5}, 2: {2: -0.25, 5: 0.75},
              3: {algebra_3x2.images[1, 3]: 0.125}}
    v = built.v.copy()
    for ki, row in breaks.items():
        for r, delta in row.items():
            v[ki, r] += delta
    broken = with_factors(built.u, v, algebra_3x2)
    report = verify_factorized_form(broken)
    expected = per_relation_sign_faults(v, algebra_3x2)
    assert report.details["sign_faults"] == expected
    assert {f["term"] for f in expected} == set(breaks)
    assert len(expected) == 2 * sum(map(len, breaks.values()))
    assert report.max_deviation == max(f["deviation"] for f in expected)
    assert not report.passed


def sampled_v(images, parity, rng):
    """One relation factor as the per-sample builder drew it: one uniform
    call for every orbit, in order of its smallest relation, whose value is
    written over the orbit through the four rows of `images`."""
    conv_sign = 1.0 if parity == "+" else -1.0
    reps = np.flatnonzero(images.min(axis=0) == np.arange(images.shape[1]))
    value = rng.uniform(-1.0, 1.0, size=len(reps))
    if parity == "-":
        value[images[2, reps] == reps] = 0.0
    v = np.empty(images.shape[1])
    # a converse-fixed orbit is written twice; the id and neg rows go last,
    # so a zeroed one reads +0.0 at the representative, -0.0 at its complement
    for row, sign in ((2, conv_sign), (3, -conv_sign), (0, 1.0), (1, -1.0)):
        v[images[row, reps]] = sign * value
    return v


def reference_build(algebra, context_dim, terms, parity, seed):
    """The per-sample builder that `build_slp_map` replaced: one RNG call
    for each raw sample's context factor and one for each of its relation
    factors, one term at a time.  Returns (u, v, matrix, redrawn)."""
    rng = np.random.default_rng(seed)
    n, images = algebra.entity_set.n, algebra.images

    def draw():
        us, vs = [], []
        for _ in range(terms):
            raw = rng.uniform(-1.0, 1.0, size=(n, n, context_dim))
            image = raw.transpose(1, 0, 2)
            if parity in (None, "+"):
                us.append((raw + image) / 2.0)
                vs.append(sampled_v(images, "+", rng))
            if parity in (None, "-"):
                us.append((raw - image) / 2.0)
                vs.append(sampled_v(images, "-", rng))
        u = np.array(us).reshape(-1, n, n, context_dim)
        v = np.array(vs).reshape(-1, algebra.size)
        return u, v, FeatureMap(algebra, assemble_rows(u, v, algebra))

    u, v, fmap = draw()
    redrawn = fmap.rep_spectrum.span_rank != len(fmap.families)
    if redrawn:
        u, v, fmap = draw()
    return u, v, fmap.matrix, redrawn


def assert_built_as_the_reference(algebra, context_dim, terms, parity, seed):
    built = build_slp_map(algebra, context_dim, terms, parity, seed)
    u, v, matrix, redrawn = reference_build(algebra, context_dim, terms,
                                            parity, seed)
    assert built.u.shape == u.shape and built.u.tobytes() == u.tobytes()
    assert built.v.shape == v.shape and built.v.tobytes() == v.tobytes()
    assert built.feature_map.matrix.tobytes() == matrix.tobytes()
    assert built.redrawn is redrawn
    return built


def walked_v(algebra, parity, rng):
    """The orbit walk `sampled_v` replaced: one draw and one stack walk per
    orbit, in order of the orbit's smallest relation."""
    conv_sign = 1.0 if parity == "+" else -1.0
    v = np.zeros(algebra.size)
    assigned = [False] * algebra.size
    for i in range(algebra.size):
        if assigned[i]:
            continue
        value = rng.uniform(-1.0, 1.0)
        if algebra.images[2, i] == i and parity == "-":
            value = 0.0
        pending = [(i, value)]
        while pending:
            j, val = pending.pop()
            if assigned[j]:
                assert v[j] == val, "inconsistent sign propagation"
                continue
            v[j] = val
            assigned[j] = True
            pending.append((algebra.images[1, j], -val))
            pending.append((algebra.images[2, j], conv_sign * val))
    return v


def algebras_with_symmetric_relations(count, seed):
    """Random closures, most with a symmetric base relation r | conv(r)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        entity_set = EntitySet.of_size(int(rng.integers(2, 5)))
        base = [random_proper_relation(entity_set, rng)
                for _ in range(int(rng.integers(1, 3)))]
        symmetric = base[0].matrix | converse(base[0]).matrix
        if not symmetric.all():
            base.append(Relation(entity_set, symmetric))
        yield close_unary(base)


@pytest.mark.parametrize("parity", ["+", "-"])
def test_sampled_v_matches_the_orbit_walk_bit_for_bit(parity):
    fixed = signed_zeros = 0
    for seed, algebra in enumerate(algebras_with_symmetric_relations(150, 7)):
        images = algebra.images
        fixed += int(np.sum(images[2] == np.arange(algebra.size)))
        rng, walk_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            v = sampled_v(images, parity, rng)
            assert v.tobytes() == walked_v(algebra, parity, walk_rng).tobytes()
            signed_zeros += int(np.sum(np.signbit(v) & (v == 0.0)))
        # both consumed the same number of draws
        assert rng.random() == walk_rng.random()
    assert fixed > 0
    assert (signed_zeros > 0) == (parity == "-")


def test_one_uniform_call_draws_what_consecutive_calls_draw():
    sizes = ((2, 3), (5,), (1, 4), (0,), (3, 1))
    for seed in range(50):
        one, many = np.random.default_rng(seed), np.random.default_rng(seed)
        block = one.uniform(-1.0, 1.0, size=sum(np.prod(s) for s in sizes))
        parts = np.concatenate([many.uniform(-1.0, 1.0, size=s).ravel()
                                for s in sizes])
        assert block.tobytes() == parts.tobytes()
        assert one.random() == many.random()


@pytest.mark.parametrize("parity", [None, "+", "-"])
def test_builds_equal_the_per_sample_reference_bitwise(parity):
    redrawn = 0
    for seed, algebra in enumerate(algebras_with_symmetric_relations(12, 5)):
        n_families = len(compute_families(algebra))
        for width, terms in ((n_families, 1), (3, 2), (1, 1)):
            built = assert_built_as_the_reference(algebra, width, terms,
                                                  parity, seed)
            redrawn += built.redrawn
    # width 1 falls short of the family count, so it draws twice
    assert redrawn >= 12


@pytest.mark.parametrize("parity", [None, "+", "-"])
@pytest.mark.parametrize("step", [0, 1, 2, 3])
def test_builds_over_several_draw_blocks_equal_the_reference(
        monkeypatch, algebra_3x2, parity, step):
    """Blocks of `step` samples (one sample for 0) over 7 samples, so a
    last block is short, at the family count's width and at an undersized
    width 2, which is redrawn."""
    images = algebra_3x2.images
    orbits = int(np.sum(images.min(axis=0) == np.arange(algebra_3x2.size)))
    n_families = len(compute_families(algebra_3x2))
    for width, redrawn in ((n_families, False), (2, True)):
        sample = 9 * width + (2 if parity is None else 1) * orbits
        # one cell short of step + 1 samples
        monkeypatch.setattr(factorize, "_BLOCK_CELLS",
                            max(1, (step + 1) * sample - 1))
        for seed in range(3):
            built = assert_built_as_the_reference(algebra_3x2, width, 7,
                                                  parity, seed)
            # a single parity falls short of full rank at any width
            assert built.redrawn is (redrawn or parity is not None)


def test_build_draws_one_uniform_block_per_step(monkeypatch):
    """20 samples of 9,000 context values and one orbit value each: blocks
    of 7, 7 and 6 samples under 2^16 cells."""
    algebra = close_unary([Relation.from_pairs(EntitySet.of_size(3),
                                               [(0, 1)], "r0")])
    sizes = []
    real = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.rng = real(seed)

        def uniform(self, low, high, size):
            sizes.append(size)
            return self.rng.uniform(low, high, size)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    for parity in (None, "+", "-"):
        sizes.clear()
        built = build_slp_map(algebra, 1000, 20, parity, 3)
        # one orbit: r0, its complement, converse and complemented converse
        sample = 9000 + (2 if parity is None else 1)
        assert sizes == [(7, sample), (7, sample), (6, sample)] * \
            (1 + built.redrawn)
        assert 7 * sample <= factorize._BLOCK_CELLS < 8 * sample


def test_rows_recomputed_exactly_from_many_terms(algebra_3):
    for built in (build(algebra_3, 4, 5, terms=2),
                  build(algebra_3, 3, 5, terms=3, parity="+")):
        assert verify_factorized_form(built).passed
        rebuilt = assemble_rows(built.u, built.v, algebra_3)
        assert np.array_equal(rebuilt, built.feature_map.matrix)


def gathered_rows(u, v, queries):
    """Reference: the terms gathered through per-query index arrays, term by
    term in order, as rows were assembled before the grid form."""
    heads, rels, tails = np.array(queries, dtype=int).reshape(-1, 3).T
    acc = np.zeros((len(queries), u.shape[3]))
    for uk, vk in zip(u, v):
        acc += uk[heads, tails, :] * vk[rels][:, None]
    return acc


def assert_near_the_gather(rows, u, v, queries):
    """`rows` within the recursive-summation bound of the gather: each sum
    of K products, in any order, is within K eps times the sum of their
    magnitudes of the gather's (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1, with room for the gather's own rounding)."""
    bound = len(u) * np.finfo(float).eps * \
        gathered_rows(np.abs(u), np.abs(v), queries)
    assert np.all(np.abs(rows - gathered_rows(u, v, queries)) <= bound)


def cross_terms(decomp):
    """The cross-parity terms (u+, v-), (u-, v+) of each term, interleaved
    term by term."""
    return (interleaved(decomp.u_plus, decomp.u_minus),
            interleaved(decomp.v_minus, decomp.v_plus))


def integer_valued(built, scale=8.0):
    """The build's factors scaled and rounded to small integers.  Rounding
    is odd and commutes with the transpose, so the sign law and each
    term's converse parity survive, and every sum of their products is
    exact in any order."""
    return np.round(built.u * scale), np.round(built.v * scale)


@pytest.mark.parametrize("parity", ["+", "-", None])
def test_grid_rows_equal_the_query_gather_bitwise(parity):
    checked = 0
    for seed, algebra in enumerate(algebras_with_symmetric_relations(20, 3)):
        queries = enumerate_queries(algebra)
        built = build(algebra, 3, seed, terms=2, parity=parity)
        u, v = integer_valued(built)
        assert assemble_rows(u, v, algebra).tobytes() == \
            gathered_rows(u, v, queries).tobytes()
        # uniform draws sum in the product's order, near the gather's
        assert_near_the_gather(built.feature_map.matrix, built.u, built.v,
                               queries)
        assert built.feature_map.matrix.tobytes() == \
            assemble_rows(built.u, built.v, algebra).tobytes()
        checked += len(built.u)
    assert checked == 20 * (4 if parity is None else 2)


def test_grid_rows_of_no_terms_and_of_the_cross_terms(algebra_3x2):
    queries = enumerate_queries(algebra_3x2)
    n = algebra_3x2.entity_set.n
    u, v = np.zeros((0, n, n, 4)), np.zeros((0, algebra_3x2.size))
    assert assemble_rows(u, v, algebra_3x2).tobytes() == \
        gathered_rows(u, v, queries).tobytes()
    assert assemble_rows(u, v, algebra_3x2).shape == (len(queries), 4)
    for seed in range(4):
        for integers in (True, False):
            decomp = parity_decompose(
                mismatched_map(algebra_3x2, seed, integers), tol=np.inf)
            cross = cross_terms(decomp)
            rows = assemble_rows(*cross, algebra_3x2)
            if integers:
                assert rows.tobytes() == \
                    gathered_rows(*cross, queries).tobytes()
                assert decomp.max_cross_residual == float(np.max(np.abs(rows)))
            else:
                assert_near_the_gather(rows, *cross, queries)


def test_oversized_factors_fail_the_form_audit(algebra_3):
    """A u over n + 1 entities and a v one relation too long are read on
    the grid's corner, as the gather read them, and flagged, not raised."""
    built = build(algebra_3, 9, 0)
    u, v = integer_valued(built)
    k = len(u)
    u_big = np.zeros((k, 4, 4, 9))
    u_big[:, :3, :3] = u
    v_long = np.concatenate([v, np.full((k, 1), 0.5)], axis=1)
    queries = enumerate_queries(algebra_3)
    exact = assemble_rows(u, v, algebra_3).tobytes()
    for big_u, long_v in ((u_big, v), (u, v_long), (u_big, v_long)):
        rows = assemble_rows(big_u, long_v, algebra_3)
        assert rows.tobytes() == gathered_rows(big_u, long_v,
                                               queries).tobytes()
        assert rows.tobytes() == exact
        report = verify_factorized_form(with_factors(big_u, long_v,
                                                     algebra_3))
        assert report.details["dims_consistent"] is False
        assert report.details["rows_exact"] is True
        assert report.passed is False
    assert verify_factorized_form(with_factors(u, v, algebra_3)).passed
    assert verify_factorized_form(built).passed


@pytest.mark.parametrize("parity", ["+", "-", None])
@pytest.mark.parametrize("width, terms", [(1, 600), (1500, 2)])
def test_builds_past_the_blas_blocks_stay_exact(parity, width, terms):
    """600 raw samples at width 1 sum over more terms than one BLAS block
    of the product's inner dimension holds, and width 1500 makes its
    columns wider than one; equivariance, the cross residual and the form
    audit stay exact."""
    algebra = close_unary([Relation.from_pairs(EntitySet.of_size(3),
                                               [(0, 1), (1, 1)], "r0")])
    built = build(algebra, width, 4, terms=terms, parity=parity)
    assert len(built.u) == terms * (2 if parity is None else 1)
    equivariance = check_logical_equivariance(built.feature_map)
    assert equivariance.passed and equivariance.max_deviation == 0.0
    assert parity_decompose(built).max_cross_residual == 0.0
    report = verify_factorized_form(built)
    assert report.passed and report.details["rows_exact"] is True


def test_factor_validation(algebra_3):
    v = np.zeros((2, algebra_3.size))
    for bad_u in (np.zeros((2, 3, 4)), np.zeros((2, 2, 3, 4))):
        with pytest.raises(ValueError, match="u must"):
            assemble_rows(bad_u, v, algebra_3)
    u = np.zeros((2, 3, 3, 4))
    for bad_v in (np.zeros(algebra_3.size), np.zeros((3, algebra_3.size)),
                  np.zeros((2, algebra_3.size, 1))):
        with pytest.raises(ValueError, match="v must"):
            assemble_rows(u, bad_v, algebra_3)
    # factors shorter than the grid cannot cover it; a one-relation v is
    # not spread over every relation
    for short_u, short_v in ((np.zeros((2, 2, 2, 4)), v), (u, v[:, :1])):
        with pytest.raises(ValueError):
            assemble_rows(short_u, short_v, algebra_3)


@pytest.mark.parametrize("parity", ["both", "", 0])
def test_build_rejects_an_unknown_parity(algebra_3, parity):
    # it drew no term and returned an all-zero map, redrawn
    with pytest.raises(ValueError, match=repr(parity)):
        build_slp_map(algebra_3, 9, 1, parity, 0)


# ------------------------------------------------------------ negation split

def test_negation_split_is_minus_identity_sector(algebra_3):
    families = compute_families(algebra_3)
    built = build(algebra_3, len(families), 1)
    split = negation_split(built.feature_map)
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
    split = negation_split(built.feature_map)
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
    # a zero span, as on a map whose every factor is zero
    plus, minus = involution_split(np.zeros((0, 0)))
    assert plus.shape == minus.shape == (0, 0)


# ----------------------------------------------------------------- isotypic

@pytest.mark.parametrize("n", [2, 3, 4])
def test_isotypic_projector_properties(n):
    entity_set = EntitySet.of_size(n)
    rng = np.random.default_rng(n)
    base = random_proper_relation(entity_set, rng, name="r0")
    algebra = close_unary([base])
    families = compute_families(algebra)
    built = build(algebra, len(families), seed=n)
    projectors, props, _ = isotypic_decompose(built.feature_map)
    assert props["idempotence"] <= PROJECTOR_TOL
    assert props["annihilation"] <= PROJECTOR_TOL
    assert props["completeness_on_span"] <= PROJECTOR_TOL
    assert props["commutation"] <= PROJECTOR_TOL
    assert sum(p.image_dim for p in projectors) == props["span_dim"]


def test_trivial_isotypic_piece_matches_group_average(algebra_3):
    families = compute_families(algebra_3)
    built = build(algebra_3, len(families), 2)
    perms = symmetric_group(3)
    lifts = [lift_renaming(built.feature_map, GroupElementH(p, 1))
             for p in perms]
    avg = np.mean([l.span for l in lifts], axis=0)
    projectors, _, _ = isotypic_decompose(built.feature_map)
    trivial = next(p for p in projectors if p.irrep == (3,))
    assert np.max(np.abs(trivial.matrix - avg)) <= 1e-9


def test_class_sum_projectors_match_the_element_sum():
    """Second witness: (dim / |G|) sum over all 24 elements of chi(g) rho(g)."""
    rng = np.random.default_rng(4)
    algebra = close_unary([random_proper_relation(EntitySet.of_size(4), rng,
                                                  name="r0")])
    built = build(algebra, len(compute_families(algebra)), 4)
    perms = symmetric_group(4)
    rhos = [lift_renaming(built.feature_map, GroupElementH(p, 1)).span
            for p in perms]
    projectors, props, _ = isotypic_decompose(built.feature_map)
    for proj in projectors:
        ref = sum(characters.mn_character(proj.irrep, characters.cycle_type(p))
                  * rho for p, rho in zip(perms, rhos)) * proj.irrep_dim / 24
        assert np.max(np.abs(proj.matrix - ref)) <= 1e-12
    assert props["orthogonality"] <= PROJECTOR_TOL


def test_isotypic_on_a_wide_map_stays_in_span_coordinates(algebra_3):
    """Eleven features beyond the span of 9: every projector is 9 x 9."""
    built = build(algebra_3, 20, 1)
    projectors, props, _ = isotypic_decompose(built.feature_map)
    assert props["span_dim"] == 9
    assert all(p.matrix.shape == (9, 9) for p in projectors)
    assert sum(p.image_dim for p in projectors) == 9
    assert max(props[k] for k in ("idempotence", "annihilation",
                                  "completeness_on_span", "commutation",
                                  "orthogonality")) <= PROJECTOR_TOL


def stacked_isotypic_reference(built):
    """Projectors and properties from the stacked formulas: one stack of
    every lift, class sums started from 0.0, the orthogonality of the whole
    stack, one commutator per generator and the full k x k product table.
    Also returns commutation with every lift, as an oracle for the
    generators' value."""
    perms = symmetric_group(built.feature_map.n)
    rhos = np.stack([
        factorize.lift_renaming(built.feature_map, GroupElementH(p, 1)).span
        for p in perms])
    class_sums = {}
    for perm, rho in zip(perms, rhos):
        mu = characters.cycle_type(perm)
        class_sums[mu] = class_sums.get(mu, 0.0) + rho
    mats = np.stack([
        (characters.irrep_dimension(lam) / len(perms)) * sum(
            characters.mn_character(lam, mu) * c
            for mu, c in class_sums.items())
        for lam in characters.partitions(built.feature_map.n)])

    def worst(dev):
        return float(np.max(np.abs(dev), initial=0.0))

    def commutation(rho):
        return worst(mats @ rho - rho @ mats)

    eye = np.eye(rhos.shape[1])
    pairs = mats[:, None] @ mats[None]
    generators = set(sym_generators(built.feature_map.n))
    return mats, {
        "idempotence": worst(pairs[np.diag_indices(len(mats))] - mats),
        "annihilation": worst(pairs[np.triu_indices(len(mats), 1)]),
        "completeness_on_span": worst(mats.sum(axis=0) - eye),
        "commutation": max(commutation(rho) for perm, rho in zip(perms, rhos)
                           if perm in generators),
        "orthogonality": worst(rhos @ rhos.transpose(0, 2, 1) - eye)
    }, max(commutation(rho) for rho in rhos)


def isotypic_map(n, seed, extra_width=0):
    rng = np.random.default_rng(seed)
    algebra = close_unary([random_proper_relation(EntitySet.of_size(n), rng,
                                                  name="r0")])
    return build(algebra, len(compute_families(algebra)) + extra_width, seed)


def test_two_sym5_decompositions_walk_each_permutation_once():
    maps = [isotypic_map(5, 5), isotypic_map(5, 5, 3)]
    characters.cycle_type.cache_clear()
    for built in maps:
        isotypic_decompose(built.feature_map)
    # each of the 120 elements of Sym(5) walked once, in the first call
    assert characters.cycle_type.cache_info().misses <= 120


@pytest.mark.parametrize("n,seed,extra_width,fault",
                         [(3, 0, 0, None), (3, 1, 4, None), (4, 2, 0, None),
                          (4, 4, 3, None), (5, 5, 0, None), (5, 5, 3, None),
                          (4, 2, 0, (1, 2, 0, 3)), (5, 5, 0, (1, 2, 0, 3, 4))])
def test_isotypic_properties_equal_the_stacked_formulas(monkeypatch, n, seed,
                                                        extra_width, fault):
    """`fault`, if given, is a 3-cycle, not a generator, whose lift is
    conjugated: the generators still see that its class sum is wrong."""
    built = isotypic_map(n, seed, extra_width)
    calls = conjugate_lift_at(monkeypatch, fault)
    projectors, props, offenders = isotypic_decompose(built.feature_map)
    assert len(calls) == len(symmetric_group(n))  # one lift per element
    mats, ref, everywhere = stacked_isotypic_reference(built)
    assert np.array_equal(np.stack([p.matrix for p in projectors]), mats)
    assert {k: props[k] for k in ref} == ref
    # the generators' commutators are among every lift's, bit for bit
    assert props["commutation"] <= everywhere
    if fault is None:
        assert everywhere <= PROJECTOR_TOL
    else:
        assert props["commutation"] > PROJECTOR_TOL
    renaming = offenders["commutation"]["renaming"]
    assert tuple(renaming["perm"]) in sym_generators(n)
    r = props["span_dim"]
    for perm in symmetric_group(n):
        lift = lift_renaming(built.feature_map, GroupElementH(perm, 1))
        assert lift.deviation == np.max(np.abs(lift.span @ lift.span.T
                                               - np.eye(r)), initial=0.0)


def test_isotypic_offenders_sit_at_each_maximum():
    built = isotypic_map(4, 2)
    projectors, props, offenders = isotypic_decompose(built.feature_map)
    mats = {str(list(p.irrep)): p.matrix for p in projectors}

    def rho(renaming):
        return lift_renaming(built.feature_map,
                             GroupElementH(tuple(renaming["perm"]),
                                           renaming["sign"])).span

    def worst(dev):
        return float(np.max(np.abs(dev)))

    idem = mats[str(offenders["idempotence"]["irrep"])]
    assert worst(idem @ idem - idem) == props["idempotence"]
    a, b = (mats[str(lam)] for lam in offenders["annihilation"]["irreps"])
    assert worst(a @ b) == props["annihilation"]
    assert offenders["completeness_on_span"] == {}
    proj = mats[str(offenders["commutation"]["irrep"])]
    g = rho(offenders["commutation"]["renaming"])
    assert worst(proj @ g - g @ proj) == props["commutation"]
    g = rho(offenders["orthogonality"]["renaming"])
    assert worst(g @ g.T - np.eye(len(g))) == props["orthogonality"]


def test_isotypic_rejects_large_groups():
    entity_set = EntitySet.of_size(6)
    base = Relation.from_pairs(entity_set, [(0, 1)], "r0")
    algebra = close_unary([base])
    built = build(algebra, 4, 0)
    with pytest.raises(ValueError):
        isotypic_decompose(built.feature_map)


def test_pair_space_rep_is_permutation_homomorphism():
    for n in (2, 3):
        perms = symmetric_group(n)
        mats = pair_space_representation(n, perms)
        table = dict(zip(perms, mats))
        for p, q in itertools.product(perms, perms):
            composed = tuple(p[q[i]] for i in range(n))
            assert np.array_equal(table[p] @ table[q], table[composed])


def pair_swap_matrix(n):
    """Reference: the involution e_(h,t) -> e_(t,h) on the pair space."""
    return characters.permutation_matrix(
        tuple(t * n + h for h in range(n) for t in range(n)))


def relation_converse_matrix(algebra):
    """Reference: the involution e_r -> e_(conv r) on the relation space."""
    return characters.permutation_matrix(algebra.images[2])


def pair_swap_perm(n):
    """The pair swap as the index permutation the parity command reads."""
    return np.arange(n * n).reshape(n, n).T.ravel()


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
        assert np.array_equal(
            characters.permutation_matrix(tuple(pair_swap_perm(n))), ref)
        if n < 2:
            continue
        for n_rel in (1, 2):
            entity_set = EntitySet.of_size(n)
            algebra = close_unary([random_proper_relation(entity_set, rng)
                                   for _ in range(n_rel)])
            size = algebra.size
            neg_ref, conv_ref = np.zeros((size, size)), np.zeros((size, size))
            for r in range(size):
                neg_ref[algebra.images[1, r], r] = 1.0
                conv_ref[algebra.images[2, r], r] = 1.0
            eye, neg = relation_sign_representation(algebra)
            assert np.array_equal(eye, np.eye(size))
            assert np.array_equal(neg, neg_ref)
            assert np.array_equal(relation_converse_matrix(algebra), conv_ref)


# -------------------------------------------------------------- parity split

def trace_dims(mat):
    """Reference: the traces of the eigenprojectors (I +- M)/2."""
    plus, minus = involution_split(mat)
    return projector_trace_dim(plus), projector_trace_dim(minus)


def test_pair_swap_split_dims_n2():
    assert involution_dims(pair_swap_perm(2)) == (3, 1)


@pytest.mark.parametrize("n,expected", [(2, (3, 1)), (3, (6, 3)), (4, (10, 6))])
def test_pair_swap_split_dims_formula(n, expected):
    # (I +- swap)/2 project onto symmetric/antisymmetric pair combinations
    algebra = close_unary([Relation.from_pairs(EntitySet.of_size(n),
                                               [(0, 1)], "r0")])
    pair_dims = involution_dims(pair_swap_perm(n))
    rel_dims = involution_dims(algebra.images[2])
    assert pair_dims == expected
    assert pair_dims == (n * (n + 1) // 2, n * (n - 1) // 2)
    assert sum(rel_dims) == algebra.size
    # the count reads the same dimensions as a rank decision
    plus, minus = involution_split(pair_swap_matrix(n))
    assert pair_dims == (rank(plus), rank(minus))
    plus, minus = involution_split(relation_converse_matrix(algebra))
    assert rel_dims == (rank(plus), rank(minus))


def test_involution_dims_equal_the_projector_trace_dims():
    for n in range(1, 7):
        assert involution_dims(pair_swap_perm(n)) == \
            trace_dims(pair_swap_matrix(n))
    fixed = 0
    for algebra in algebras_with_symmetric_relations(40, 11):
        conv = algebra.images[2]
        fixed += int(np.sum(conv == np.arange(algebra.size)))
        assert involution_dims(conv) == \
            trace_dims(relation_converse_matrix(algebra))
    # symmetric base relations give the converse fixed points
    assert fixed > 0


def test_involution_dims_reject_a_non_involution():
    for perm in ([1, 2, 0], [0, 0], [1, 0, 3, 4, 2]):
        with pytest.raises(ValueError):
            involution_dims(np.array(perm))
    assert involution_dims(np.array([], dtype=int)) == (0, 0)


def test_swap_and_converse_matrices_are_involutions():
    for n in (2, 3):
        swap = pair_swap_matrix(n)
        assert np.array_equal(swap @ swap, np.eye(n * n))
        assert np.array_equal(pair_swap_perm(n)[pair_swap_perm(n)],
                              np.arange(n * n))
    algebra = close_unary([Relation.from_pairs(EntitySet.of_size(3),
                                               [(0, 1), (1, 2)], "r0")])
    conv = relation_converse_matrix(algebra)
    assert np.array_equal(conv @ conv, np.eye(algebra.size))
    images = algebra.images[2]
    assert np.array_equal(images[images], np.arange(algebra.size))


def test_parity_decompose_round_trip(algebra_3):
    built = build(algebra_3, 9, 3)
    decomp = parity_decompose(built)
    assert decomp.max_cross_residual == 0.0
    rebuilt = assemble_rows(interleaved(decomp.u_plus, decomp.u_minus),
                            interleaved(decomp.v_plus, decomp.v_minus),
                            algebra_3)
    original = assemble_rows(built.u, built.v, algebra_3)
    assert np.max(np.abs(rebuilt - original)) <= 1e-12
    assert len(decomp.u_plus) == len(decomp.v_minus) == len(built.u)
    swap = (0, 2, 1, 3)
    assert np.array_equal(decomp.u_plus, decomp.u_plus.transpose(swap))
    assert np.array_equal(decomp.u_minus, -decomp.u_minus.transpose(swap))
    conv = algebra_3.images[2]
    assert np.array_equal(decomp.v_plus, decomp.v_plus[:, conv])
    assert np.array_equal(decomp.v_minus, -decomp.v_minus[:, conv])


def test_parity_halves_equal_the_per_term_halves(algebra_3x2):
    """Each term's halves, as the per-term split formed them, bitwise."""
    mismatched = mismatched_map(algebra_3x2, 5)
    decomp = parity_decompose(mismatched, tol=np.inf)
    conv = algebra_3x2.images[2]
    for k, (u, v) in enumerate(zip(mismatched.u, mismatched.v)):
        u_image, v_image = u.transpose(1, 0, 2), v[conv]
        for got, want in ((decomp.u_plus[k], (u + u_image) / 2.0),
                          (decomp.u_minus[k], (u - u_image) / 2.0),
                          (decomp.v_plus[k], (v + v_image) / 2.0),
                          (decomp.v_minus[k], (v - v_image) / 2.0)):
            assert got.tobytes() == want.tobytes()


def test_mismatched_parity_term_raises(algebra_3):
    rng = np.random.default_rng(7)
    n = 3
    raw = rng.uniform(-1.0, 1.0, size=(n, n, 4))
    u_antisym = (raw - raw.transpose(1, 0, 2)) / 2.0
    # v is converse-even: the mismatch (u odd, v even) breaks rev-invariance
    v = np.zeros(algebra_3.size)
    v[algebra_3.images[:, 0]] = 1.0, -1.0, 1.0, -1.0
    mismatched = with_factors(u_antisym[None], v[None], algebra_3)
    fmap = mismatched.feature_map
    with pytest.raises(ConverseInvarianceError) as excinfo:
        parity_decompose(mismatched)
    assert excinfo.value.deviation > 0.0
    q = excinfo.value.query
    assert type(q) is Query and all(type(c) is int for c in q)
    # the recorded worst query really deviates by the recorded amount
    rev_q = Query(q.tail, algebra_3.images[2, q.rel], q.head)
    dev = np.max(np.abs(fmap.matrix[fmap.index(*rev_q)]
                        - fmap.matrix[fmap.index(*q)]))
    assert dev == excinfo.value.deviation


def mismatched_map(algebra, seed, integers=False):
    """Reversal-breaking map: an antisymmetric context factor paired with a
    relation factor that is a random mix of both converse parities; with
    `integers`, the factors are small integers, so every sum of their
    halves' products is exact in any order."""
    rng = np.random.default_rng(seed)
    n = algebra.entity_set.n

    def draw(*shape):
        if integers:
            return rng.integers(-4, 5, size=shape).astype(float)
        return rng.uniform(-1.0, 1.0, size=shape)

    u, v = [], []
    for _ in range(3):
        raw = draw(n, n, 3)
        u += [raw - raw.transpose(1, 0, 2), raw]
        v += [draw(algebra.size), draw(algebra.size)]
    return with_factors(np.array(u), np.array(v), algebra)


@pytest.mark.parametrize("seed", range(6))
def test_converse_failure_names_first_worst_query(seed):
    rng = np.random.default_rng(100 + seed)
    entity_set = EntitySet.of_size(2 + seed % 3)
    algebra = close_unary([random_proper_relation(entity_set, rng)
                           for _ in range(1 + seed % 2)])
    mismatched = mismatched_map(algebra, seed)
    fmap = mismatched.feature_map
    worst_q, worst_dev = None, -1.0
    for i, q in enumerate(enumerate_queries(algebra)):
        rev_q = Query(q.tail, algebra.images[2, q.rel], q.head)
        dev = float(np.max(np.abs(fmap.matrix[fmap.index(*rev_q)]
                                 - fmap.matrix[i])))
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
    queries = enumerate_queries(algebra_3x2)
    for integers in (True, False):
        decomp = parity_decompose(
            mismatched_map(algebra_3x2, seed, integers), tol=np.inf)
        cross = cross_terms(decomp)
        direct = float(np.max(np.abs(gathered_rows(*cross, queries))))
        # halves of small integers sum exactly in any order; uniform draws
        # within the bound of `assert_near_the_gather`
        bound = 0.0 if integers else len(cross[0]) * np.finfo(float).eps * \
            float(np.max(gathered_rows(*map(np.abs, cross), queries)))
        assert abs(decomp.max_cross_residual - direct) <= bound
        assert decomp.max_cross_residual > 0.1


def test_single_parity_builds(algebra_3):
    plus_only = build(algebra_3, 9, 4, parity="+")
    minus_only = build(algebra_3, 9, 5, parity="-")
    for built in (plus_only, minus_only):
        assert verify_factorized_form(built).passed
        assert parity_decompose(built).max_cross_residual == 0.0
    # pure-symmetric features identify (h,r,t) with (t,r,h): rank deficit
    assert not check_slp(plus_only.feature_map).passed


def test_converse_fixed_relation_forces_zero_odd_factor():
    entity_set = EntitySet.of_size(3)
    sym = Relation.from_pairs(entity_set, [(0, 1), (1, 0)], "sym")
    algebra = close_unary([sym])
    built = build(algebra, 6, 0, parity="-")
    assert built.v.shape == (1, algebra.size)
    assert np.array_equal(built.v, np.zeros_like(built.v))


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
    return [perm_sign(p) * characters.permutation_matrix(p)
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
    std = standard_rep(perms3, 3)
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
    std = standard_rep(symmetric_group(3), 3)
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
