"""Acceptance gate: twelve checks, one test and one pass/fail line each.

Every tolerance below is pinned; do not loosen one to make a failure go away.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import random_proper_relation
from slplab import numerics
from slplab.conjunction import (check_kernel_stability, collapse_certificate,
                                conj, fit_bilinear, possible_worlds_assignment)
from slplab.factorize import (BlockSpec, ConverseInvarianceError,
                              FactorizedMap, Term, TensorBlock, assemble_rows,
                              build_slp_map, hom_dimension_check,
                              isotypic_decompose, pair_space_representation,
                              parity_decompose, parity_involution,
                              relation_sign_representation,
                              verify_factorized_form)
from slplab.featspace import (FeatureMap, check_logical_equivariance,
                              check_slp, lift_renaming)
from slplab.gradlab import (alignment_experiment, edit_step,
                            finite_difference_gradient, generate_kb, gradient,
                            make_mlp, make_slp_linear, train)
from slplab.queryspace import (GroupElementH, LogicalOp, Query, apply_logical,
                               compute_families, enumerate_queries,
                               symmetric_group)
from slplab.relalg import (EntitySet, Relation, all_relations, close_unary,
                           compose, converse, negate, random_relation)


def record(criterion: int, text: str) -> None:
    print(f"criterion {criterion:02d} PASS — {text}")


def seeded_algebra(n: int, k: int, seed: int):
    entity_set = EntitySet.of_size(n)
    rng = np.random.default_rng(seed)
    return close_unary([random_proper_relation(entity_set, rng, name=f"r{i}")
                        for i in range(k)])


def test_criterion_01_relation_algebra_laws():
    started = time.perf_counter()
    entity_set_3 = EntitySet.of_size(3)
    for r in all_relations(entity_set_3):
        assert negate(negate(r)) == r
        assert converse(converse(r)) == r
        assert negate(converse(r)) == converse(negate(r))
    entity_set_4 = EntitySet.of_size(4)
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        r = random_relation(entity_set_4, rng)
        s = random_relation(entity_set_4, rng)
        assert converse(compose(r, s)) == compose(converse(s), converse(r))
    for _ in range(1_000):
        r = random_relation(entity_set_4, rng)
        s = random_relation(entity_set_4, rng)
        t = random_relation(entity_set_4, rng)
        assert compose(compose(r, s), t) == compose(r, compose(s, t))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    record(1, f"512 exhaustive unary, 10000 pairs, 1000 triples, "
              f"{elapsed:.2f}s < 10s")


def test_criterion_02_family_partition_exhaustive():
    checked = 0
    for n, k in itertools.product((2, 3, 4), (1, 2, 3)):
        for seed in (0, 1):
            algebra = seeded_algebra(n, k, seed)
            queries = enumerate_queries(algebra)
            families = compute_families(algebra)
            covered = [q for fam in families for q in fam.members]
            assert sorted(covered) == sorted(queries)       # cover
            assert len(covered) == len(set(covered))        # disjoint
            for fam in families:
                assert len(fam.members) in (2, 4)
                orbit = {apply_logical(op, fam.representative, algebra)
                         for op in LogicalOp}
                assert orbit == set(fam.members)
                # well-defined signs: every op reaching a member agrees
                for op in LogicalOp:
                    member = apply_logical(op, fam.representative, algebra)
                    assert fam.signs[member] == op.sign
            checked += 1
    record(2, f"{checked} algebras over |E| in 2..4, bases 1..3: cover, "
              f"disjoint, sizes in {{2,4}}, signs well-defined")


def test_criterion_03_twenty_builds_and_sign_fault():
    algebra = seeded_algebra(3, 2, 0)
    families = compute_families(algebra)
    # one raw sample spans at most |E|^2 = 9 row directions, so full rank
    # over 15 families needs a second term
    spec = [BlockSpec(len(families), 2, None)]
    for seed in range(20):
        built = build_slp_map(algebra, spec, seed)
        equiv = check_logical_equivariance(built.feature_map, families,
                                           algebra)
        assert equiv.passed and equiv.max_deviation == 0.0
        rank = check_slp(built.feature_map, families)
        assert rank.passed and rank.details["rep_rank"] == len(families)
    built = build_slp_map(algebra, spec, 0)
    block = built.blocks[0]
    term = block.terms[0]
    v_bad = term.v.copy()
    v_bad[algebra.neg(0)] = v_bad[0]
    bad_block = TensorBlock(block.context_dim,
                            (Term(term.u, v_bad, term.parity),)
                            + block.terms[1:])
    rows = assemble_rows((bad_block,), built.feature_map.queries)
    broken = FactorizedMap(algebra, (bad_block,),
                           FeatureMap(built.feature_map.queries, rows))
    report = verify_factorized_form(broken)
    assert not report.passed
    assert any(f["relation"] in (0, algebra.neg(0))
               for f in report.details["sign_faults"])
    record(3, f"20 seeded builds: equivariance deviation 0.0, rank "
              f"{len(families)} = family count; injected sign fault detected")


def test_criterion_04_lift_homomorphism_and_negation_lift():
    algebra = seeded_algebra(3, 1, 0)
    families = compute_families(algebra)
    built = build_slp_map(algebra, [BlockSpec(len(families), 1, None)], 4)
    fmap = built.feature_map
    perms = symmetric_group(3)
    lifts = {p: lift_renaming(fmap, GroupElementH(p, 1), algebra)
             for p in perms}
    worst = 0.0
    for p1, p2 in itertools.product(perms, perms):
        composed = GroupElementH(p1, 1).compose(GroupElementH(p2, 1)).perm
        gap = float(np.max(np.abs(lifts[p1].matrix @ lifts[p2].matrix
                                  - lifts[composed].matrix)))
        worst = max(worst, gap)
    assert worst <= 1e-9
    neg_lift = lift_renaming(fmap, GroupElementH(tuple(range(3)), -1), algebra)
    neg_gap = float(np.max(np.abs(neg_lift.matrix + np.eye(fmap.dim))))
    assert neg_gap <= 1e-9
    record(4, f"36 of 36 pairs within {worst:.2e} <= 1e-9; "
              f"negation lift is -I within {neg_gap:.2e}")


def test_criterion_05_isotypic_projector_properties():
    worsts = []
    for n in (2, 3, 4):
        algebra = seeded_algebra(n, 1, n)
        families = compute_families(algebra)
        built = build_slp_map(algebra, [BlockSpec(len(families), 1, None)], n)
        _, props = isotypic_decompose(built)
        worst = max(props["idempotence"], props["annihilation"],
                    props["completeness_on_span"], props["commutation"])
        assert worst <= 1e-8, (n, props)
        worsts.append(worst)
    two_entity = seeded_algebra(2, 1, 0)
    assert parity_involution(two_entity).pair_dims == (3, 1)
    record(5, f"projector properties within {max(worsts):.2e} <= 1e-8 at "
              f"|E| in {{2,3,4}}; n=2 pair split dims (3,1)")


def test_criterion_06_parity_exactness_and_fault():
    algebra = seeded_algebra(3, 1, 1)
    families = compute_families(algebra)
    for parity in ("+", "-", None):
        built = build_slp_map(algebra,
                              [BlockSpec(len(families), 1, parity)], 6)
        decomp = parity_decompose(built, tol=0.0)  # raises unless exact
        assert decomp.max_cross_residual == 0.0
        queries = built.feature_map.queries
        for original_block, pairs in zip(built.blocks, decomp.blocks):
            terms = tuple(t for pair in pairs for t in (pair.plus, pair.minus))
            rebuilt = assemble_rows((TensorBlock(original_block.context_dim,
                                                 terms),), queries)
            original = assemble_rows((original_block,), queries)
            assert np.array_equal(rebuilt, original)
    rng = np.random.default_rng(2)
    raw = rng.uniform(-1.0, 1.0, size=(3, 3, 2))
    u_odd = (raw - raw.transpose(1, 0, 2)) / 2.0
    v_even = np.zeros(algebra.size)
    v_even[0], v_even[algebra.neg(0)] = 1.0, -1.0
    v_even[algebra.conv(0)] = 1.0
    v_even[algebra.neg(algebra.conv(0))] = -1.0
    block = TensorBlock(2, (Term(u_odd, v_even),))
    queries = enumerate_queries(algebra)
    mismatched = FactorizedMap(
        algebra, (block,),
        FeatureMap(queries, assemble_rows((block,), queries)))
    with pytest.raises(ConverseInvarianceError) as excinfo:
        parity_decompose(mismatched)
    assert excinfo.value.deviation > 0.0
    record(6, "parity builds converse-invariant exactly, decomposition "
              "round-trips bit-for-bit; mismatched term raises with "
              f"deviation {excinfo.value.deviation:.3f} > 0")


def test_criterion_07_hom_dimension_product_law():
    perms4 = symmetric_group(4)
    perms3 = symmetric_group(3)
    perms2 = symmetric_group(2)
    algebra = seeded_algebra(3, 1, 0)
    pair4 = pair_space_representation(4, perms4)
    pair3 = pair_space_representation(3, perms3)
    pair2 = pair_space_representation(2, perms2)
    rel_reg = relation_sign_representation(algebra)
    sign1 = [np.eye(1), -np.eye(1)]
    triv3 = [np.eye(1) for _ in perms3]
    configs = [
        ("pair3/pair3 x reg/reg", pair3, pair3, rel_reg, rel_reg),
        ("pair3/pair3 x reg/sign", pair3, pair3, rel_reg, sign1),
        ("pair2/pair2 x sign/sign", pair2, pair2, sign1, sign1),
        ("pair3/trivial x reg/trivial", pair3, triv3, rel_reg,
         [np.eye(1), np.eye(1)]),
        ("pair4/pair4 x reg/reg", pair4, pair4, rel_reg, rel_reg),
    ]
    laws = []
    for name, ctx, ctx_t, rel, rel_t in configs:
        report = hom_dimension_check(ctx, ctx_t, rel, rel_t)
        assert report.passed, (name, report.details)
        assert report.details["witness_mismatch"] == [], name
        laws.append(f"{name}: {report.details['product_law']}")
    record(7, "; ".join(laws) + " (commutant and character witnesses agree)")


def test_criterion_08_possible_worlds_feasible_regime():
    worst_fit = 0.0
    for d in (2, 4, 8):
        for atoms in (2, 4):
            assignment, _ = possible_worlds_assignment(atoms, d,
                                                       seed=10 * atoms + d)
            fit = fit_bilinear(assignment)
            assert fit.max_residual <= 1e-9, (d, atoms)
            worst_fit = max(worst_fit, fit.max_residual)
            feats = assignment.features
            order = assignment.order
            for p, q in itertools.combinations_with_replacement(order, 2):
                predicted = fit.operator.apply(feats[p], feats[q])
                oracle = feats[p] * feats[q]
                assert np.max(np.abs(predicted - oracle)) <= 1e-9
            stability = check_kernel_stability(assignment)
            assert stability.passed
            assert stability.details["contexts_skipped"] == 0
    record(8, f"bilinear fit residual <= {worst_fit:.2e} <= 1e-9 for d in "
              f"{{2,4,8}}, atoms in {{2,4}}; elementwise-product oracle and "
              f"kernel stability hold")


def test_criterion_09_collapse_certificate():
    rng = np.random.default_rng(9)
    unit = rng.normal(size=5)
    unit /= np.linalg.norm(unit)
    cert = collapse_certificate([unit], enforce_neg_equiv=True)
    assert abs(cert.residual_sq - 2.0) <= 1e-6
    assert cert.verdict == "infeasible"

    zero = collapse_certificate([np.zeros(4), np.zeros(4)],
                                enforce_neg_equiv=True)
    assert zero.residual <= 1e-9 and zero.verdict == "feasible"
    for scale in (1e-3, 1e-1, 1.0):
        nonzero = collapse_certificate([np.full(4, scale)],
                                       enforce_neg_equiv=True)
        assert nonzero.residual > 1e-9

    truth = rng.integers(0, 2, size=(4, 6)).astype(float)
    worlds = collapse_certificate(list(truth), enforce_neg_equiv=False)
    assert worlds.residual <= 1e-9 and worlds.verdict == "feasible"
    record(9, f"unit atom residual^2 = {cert.residual_sq:.9f} within 1e-6 of "
              f"2.0; residual 0 iff features 0; worlds model feasible at "
              f"{worlds.residual:.2e}")


def test_criterion_10_slp_linear_exactness():
    kb = generate_kb(4, 1, 0.5, seed=0)
    model = make_slp_linear(kb, context_dim=len(compute_families(kb.algebra)),
                            seed=0)
    n_pairs = 0
    for q, _ in kb.facts:
        neg_q = apply_logical(LogicalOp.NEG, q, kb.algebra)
        rev_q = apply_logical(LogicalOp.REV, q, kb.algebra)
        assert numerics.cosine(gradient(model, q, "all"),
                               gradient(model, neg_q, "all")) == -1.0
        assert numerics.cosine(gradient(model, q, "all"),
                               gradient(model, rev_q, "all")) == 1.0
        report = edit_step(model, q, eta=0.2, block="all")
        assert report.exact_delta["neg"] == -report.exact_delta["id"]
        n_pairs += 1
    record(10, f"{n_pairs} pairs: negation cosine exactly -1, reversal "
               f"cosine exactly +1, edit deltas exact sign flips")


def test_criterion_11_trained_mlp_direction():
    means = []
    slowest = 0.0
    for seed in range(20):
        started = time.perf_counter()
        kb = generate_kb(6, 2, 0.5, seed=seed)
        model = make_mlp(kb, hidden=16, embed_dim=16, seed=seed)
        result = train(model, kb, epochs=500, lr=0.5)
        report = alignment_experiment(result.model, kb, block="all")
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        assert elapsed < 60.0
        means.append(report.mean)
    positive = sum(m > 0.0 for m in means)
    assert positive >= 18
    record(11, f"{positive}/20 seeds positive (need >= 18); mean of means "
               f"{np.mean(means):.3f}, range [{min(means):.3f}, "
               f"{max(means):.3f}] (reported, not asserted); slowest seed "
               f"{slowest:.2f}s < 60s")


def test_criterion_12_numerics_hygiene():
    kb = generate_kb(3, 2, 0.5, seed=0)
    mlp = make_mlp(kb, hidden=8, embed_dim=8, seed=1)
    slp = make_slp_linear(kb, context_dim=len(compute_families(kb.algebra)),
                          seed=1)
    queries = [q for q, _ in kb.training_set()]
    assert len(queries) == 36
    samples = 0
    worst = 0.0
    for q in queries[:16]:
        for block in ("emb", "hidden", "head", "all"):
            g = gradient(mlp, q, block)
            fd = finite_difference_gradient(mlp, q, block)
            err = float(np.linalg.norm(g - fd)
                        / max(np.linalg.norm(fd), 1e-12))
            assert err < 1e-5, (q, block, err)
            worst = max(worst, err)
            samples += 1
    for q in queries:
        g = gradient(slp, q, "all")
        fd = finite_difference_gradient(slp, q, "all")
        err = float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12))
        assert err < 1e-5, (q, err)
        worst = max(worst, err)
        samples += 1
    assert samples == 100

    trained = train(mlp, kb, epochs=100, lr=0.5).model
    ratios = []
    for model in (mlp, trained):
        for block in ("emb", "hidden", "all"):
            gap = {}
            for eta in (1e-3, 5e-4):
                rep = edit_step(model, kb.facts[0][0], eta=eta, block=block)
                gap[eta] = abs(rep.exact_delta["id"]
                               - rep.first_order_delta["id"])
            ratio = gap[1e-3] / gap[5e-4]
            assert 3.5 <= ratio <= 4.5, (block, ratio)
            ratios.append(ratio)
    record(12, f"100 finite-difference samples, worst relative error "
               f"{worst:.2e} < 1e-5; step-halving ratios in "
               f"[{min(ratios):.3f}, {max(ratios):.3f}] within [3.5, 4.5]")
