"""Gradient-alignment laboratory: scorers, training, edits, finite differences."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import enumerate_queries, finite_difference_gradient
from slplab import numerics
from slplab.gradlab import (BLOCK_NAMES, _apply_block_update,
                            _relation_classes, alignment_experiment, edit_step, encode_queries,
                            generate_kb, gradient,
                            make_mlp, make_slp_linear, score, scores, train)
from slplab.queryspace import (LogicalOp, Query, apply_logical,
                               compute_families)


@pytest.fixture(scope="module")
def kb():
    return generate_kb(4, 1, 0.5, seed=0)


@pytest.fixture(scope="module")
def mlp(kb):
    return make_mlp(kb, hidden=8, embed_dim=8, seed=0)


@pytest.fixture(scope="module")
def slp(kb):
    return make_slp_linear(kb, context_dim=len(compute_families(kb.algebra)),
                           seed=0)


# ----------------------------------------------------------------- kb shape

def test_kb_counts_and_labels(kb):
    n = kb.algebra.entity_set.n
    assert len(kb.facts) == n * n
    assert len(kb.partners) == n * n
    assert kb.training_set() == kb.facts + kb.partners
    base = kb.algebra.closed[0]
    for (q, label), (p, partner_label) in zip(kb.facts, kb.partners):
        assert label == int(base.matrix[q.head, q.tail])
        assert p.rel == kb.algebra.images[1, q.rel]
        assert (p.head, p.tail) == (q.head, q.tail)
        assert partner_label == 1 - label


def test_kb_multiple_relations_counted():
    kb = generate_kb(3, 2, 0.5, seed=1)
    assert len(kb.facts) == 2 * 9
    rels = {q.rel for q, _ in kb.facts}
    assert rels == {0, 1}


@pytest.mark.parametrize("entities, relations", [(2, 2), (2, 3), (3, 2),
                                                  (3, 3)])
def test_kb_labels_follow_the_closure_on_coincident_draws(entities,
                                                          relations):
    """Seeds whose base relations repeat: each label is read on the closed
    relation its query names, and a repeat is labeled once."""
    repeats = 0
    for seed in range(300):
        try:
            kb = generate_kb(entities, relations, 0.5, seed)
        except ValueError:  # a degenerate draw, redrawn and degenerate again
            continue
        closed = kb.algebra.closed
        for q, label in kb.training_set():
            assert label == int(closed[q.rel].matrix[q.head, q.tail])
        distinct = len(set(kb.algebra.base))
        assert len(kb.facts) == distinct * entities ** 2
        assert {q.rel for q, _ in kb.facts} == set(range(distinct))
        repeats += distinct < relations
    assert repeats > 0


def test_kb_draw_is_deterministic():
    def draw(seed):
        kb = generate_kb(4, 2, 0.5, seed=seed)
        return kb.facts, kb.partners

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)


def test_kb_validation():
    with pytest.raises(ValueError):
        generate_kb(1, 1, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_kb(3, 0, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_kb(3, 1, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_kb(3, 1, 1.0, seed=0)


def test_kb_degenerate_after_redraw_raises():
    with pytest.raises(ValueError, match="after one redraw"):
        generate_kb(2, 1, 1e-9, seed=0)
    with pytest.raises(ValueError, match="after one redraw"):
        generate_kb(2, 1, 1.0 - 1e-9, seed=0)


# ----------------------------------------------------------------- encoding

def test_encoding_is_one_hot_with_flag(kb, mlp):
    n = kb.algebra.entity_set.n
    for q, _ in kb.facts:
        row = encode_queries(mlp, [q])[0]
        assert row[q.head] == 1.0 and np.sum(row[:n]) == 1.0
        assert row[n + q.tail] == 1.0 and np.sum(row[n:2 * n]) == 1.0
        assert np.sum(row[2 * n:2 * n + mlp.n_classes]) == 1.0
        assert row[-1] in (0.0, 1.0)


def test_negation_partner_flips_only_the_flag_bit(kb, mlp):
    for (q, _), (p, _) in zip(kb.facts, kb.partners):
        row_q = encode_queries(mlp, [q])[0]
        row_p = encode_queries(mlp, [p])[0]
        diff = np.nonzero(row_q != row_p)[0]
        assert list(diff) == [mlp.input_dim - 1]
        assert abs(row_q[-1] - row_p[-1]) == 1.0


def test_converse_relations_are_encodable(kb, mlp):
    # every closed relation, not just the bases, has a (class, flag) code
    assert set(mlp.rel_coding) == set(range(kb.algebra.size))
    for r, (cls, flag) in mlp.rel_coding.items():
        assert 0 <= cls < mlp.n_classes and flag in (0, 1)
        cls_neg, flag_neg = mlp.rel_coding[kb.algebra.images[1, r]]
        assert cls_neg == cls and flag_neg == 1 - flag


def test_relation_classes_number_pairs_by_first_appearance():
    for seed in range(20):
        algebra = generate_kb(3, 1 + seed % 3, 0.5, seed).algebra
        reps, coding = [], {}
        for r in range(algebra.size):
            rep = min(r, algebra.images[1, r])
            if rep not in reps:
                reps.append(rep)
            coding[r] = (reps.index(rep), 0 if r == rep else 1)
        assert _relation_classes(algebra) == (len(reps), coding)


def test_make_model_validation(kb):
    with pytest.raises(ValueError):
        make_mlp(kb, hidden=0, embed_dim=4, seed=0)
    with pytest.raises(ValueError):
        make_mlp(kb, hidden=4, embed_dim=0, seed=0)


def test_scores_batch_matches_single(kb, mlp, slp):
    # batch and single-row evaluation may differ by a last-ulp BLAS detail
    queries = [q for q, _ in kb.training_set()]
    for model in (mlp, slp):
        batch = scores(model, queries)
        assert batch.shape == (len(queries),)
        for i, q in enumerate(queries):
            assert batch[i] == pytest.approx(score(model, q), rel=1e-12,
                                             abs=1e-12)


# ---------------------------------------------------------------- gradients

def test_gradient_rejects_unknown_block(kb, mlp):
    with pytest.raises(ValueError):
        gradient(mlp, kb.facts[0][0], "nope")


def test_gradient_block_lengths(kb, mlp):
    q = kb.facts[0][0]
    p = mlp.params
    lengths = {
        "emb": p["emb"].size,
        "hidden": p["hidden_w"].size + p["hidden_b"].size,
        "head": p["head_w"].size + 1,
    }
    lengths["all"] = sum(lengths.values())
    for block in BLOCK_NAMES:
        assert gradient(mlp, q, block).shape == (lengths[block],)


def test_mlp_gradient_matches_finite_differences(kb, mlp):
    queries = [q for q, _ in kb.training_set()][:6]
    for q in queries:
        for block in BLOCK_NAMES:
            g = gradient(mlp, q, block)
            fd = finite_difference_gradient(mlp, q, block)
            err = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            assert err < 1e-5, (q, block, err)


def test_trained_mlp_gradient_still_matches_fd(kb, mlp):
    trained = train(mlp, kb, epochs=50, lr=0.5).model
    q = kb.facts[3][0]
    for block in ("emb", "all"):
        g = gradient(trained, q, block)
        fd = finite_difference_gradient(trained, q, block)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5


def test_all_block_is_the_other_blocks_concatenated(kb, mlp):
    # compared as bit patterns, so that a signed zero counts too
    for q, _ in kb.training_set()[::5]:
        parts = [gradient(mlp, q, block) for block in ("emb", "hidden", "head")]
        assert np.array_equal(gradient(mlp, q, "all").view(np.int64),
                              np.concatenate(parts).view(np.int64))


def test_block_update_touches_only_its_block(kb, mlp, slp):
    arrays = {"emb": {"emb"}, "hidden": {"hidden_w", "hidden_b"},
              "head": {"head_w", "head_b"}}
    arrays["all"] = set(mlp.params)
    q = kb.facts[0][0]
    rng = np.random.default_rng(0)
    for block in BLOCK_NAMES:
        delta = rng.standard_normal(gradient(mlp, q, block).size)
        edited = _apply_block_update(mlp, delta, block)
        for name, value in mlp.params.items():
            assert edited.params[name] is not value
            assert edited.params[name].shape == value.shape
            if name in arrays[block]:
                assert not np.array_equal(edited.params[name], value), block
            else:
                assert np.array_equal(edited.params[name], value), block
        # the delta lands in the block's arrays in gradient order
        moved = np.concatenate([edited.params[name].ravel()
                                - mlp.params[name].ravel()
                                for name in ("emb", "hidden_w", "hidden_b",
                                             "head_w", "head_b")
                                if name in arrays[block]])
        assert np.allclose(moved, delta, rtol=0.0, atol=1e-12)
    for model in (mlp, slp):
        with pytest.raises(ValueError, match="unknown block"):
            _apply_block_update(model, np.zeros(1), "nope")


@pytest.mark.parametrize("arch", ["mlp", "slp_linear"])
def test_one_epoch_moves_parameters_by_summed_query_gradients(kb, mlp, slp,
                                                              arch):
    """The batched backward pass of `train` against per-query gradients."""
    model = mlp if arch == "mlp" else slp
    lr = 0.3
    data = kb.training_set()
    y = np.array([1.0 if label else -1.0 for _, label in data])
    margin = y * scores(model, [q for q, _ in data])
    ds = -y / (1.0 + np.exp(margin)) / len(y)
    step = sum(d * gradient(model, q, "all") for d, (q, _) in zip(ds, data))
    expected = _apply_block_update(model, -lr * step, "all")
    trained = train(model, kb, epochs=1, lr=lr).model
    assert set(trained.params) == set(model.params)
    for name, value in trained.params.items():
        assert not np.array_equal(value, model.params[name]), name
        assert np.allclose(value, expected.params[name], rtol=0.0,
                           atol=1e-12), name


def test_scalar_model_gradient_closed_form(kb):
    model = make_mlp(kb, hidden=1, embed_dim=1, seed=2)
    q = kb.facts[1][0]
    x = encode_queries(model, [q])[0]
    p, w_mat, b = model.params["emb"][0], model.params["hidden_w"], \
        model.params["hidden_b"]
    w_out, c = model.params["head_w"][0], model.params["head_b"][0]
    e = float(p @ x)
    z = float(w_mat[0, 0] * e + b[0])
    sech2 = 1.0 / math.cosh(z) ** 2
    assert score(model, q) == pytest.approx(w_out * math.tanh(z) + c, abs=1e-12)
    assert gradient(model, q, "head") == pytest.approx(
        np.array([math.tanh(z), 1.0]), abs=1e-12)
    assert gradient(model, q, "hidden") == pytest.approx(
        np.array([w_out * sech2 * e, w_out * sech2]), abs=1e-12)
    assert gradient(model, q, "emb") == pytest.approx(
        w_out * sech2 * w_mat[0, 0] * x, abs=1e-12)


def test_slp_gradient_is_the_feature_row(kb, slp):
    fm = slp.feature_map.feature_map
    queries = enumerate_queries(kb.algebra)
    for q, _ in kb.training_set():
        for block in BLOCK_NAMES:
            assert np.array_equal(gradient(slp, q, block),
                                  fm.matrix[queries.index(q)])
    q = kb.facts[0][0]
    fd = finite_difference_gradient(slp, q, "all")
    g = gradient(slp, q, "all")
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5


# ---------------------------------------------------------------- alignment

def test_slp_alignment_cosines_exactly_minus_one(kb, slp):
    report = alignment_experiment(slp, kb, block="all")
    assert report.arch == "slp_linear"
    assert report.excluded == 0
    assert len(report.cosines) == len(kb.facts)
    assert all(c == -1.0 for c in report.cosines)
    assert report.mean == -1.0 and report.std == 0.0
    # every cosine lands in the leftmost histogram bin
    assert report.bin_counts[0] == len(kb.facts)
    assert sum(report.bin_counts) == len(kb.facts)


def test_slp_reversal_cosines_exactly_plus_one(kb, slp):
    for q, _ in kb.facts:
        rev_q = apply_logical(LogicalOp.REV, q, kb.algebra)
        c = numerics.cosine(gradient(slp, q, "all"),
                            gradient(slp, rev_q, "all"))
        assert c == 1.0


def test_mlp_alignment_report_shape(kb, mlp):
    report = alignment_experiment(mlp, kb, block="head",
                                  hyperparams={"lr": 0.5})
    assert report.block == "head" and report.arch == "mlp"
    assert len(report.bin_edges) == 41
    assert len(report.bin_counts) == 40
    assert sum(report.bin_counts) == len(report.cosines)
    assert report.hyperparams == {"lr": 0.5}
    assert all(-1.0 <= c <= 1.0 for c in report.cosines)


def test_histogram_csv_round_trip(kb, slp):
    report = alignment_experiment(slp, kb, block="all")
    lines = report.histogram_csv().strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 41
    total = 0
    for line, lo, hi, count in zip(lines[1:], report.bin_edges[:-1],
                                   report.bin_edges[1:], report.bin_counts):
        cells = line.split(",")
        assert float(cells[0]) == lo and float(cells[1]) == hi
        assert int(cells[2]) == count
        total += int(cells[2])
    assert total == len(report.cosines)


def test_zero_gradient_pairs_are_excluded_not_averaged(kb, mlp):
    dead = replace(mlp, params={**mlp.params,
                                "head_w": np.zeros_like(mlp.params["head_w"])})
    report = alignment_experiment(dead, kb, block="emb")
    assert report.excluded == len(kb.facts)
    assert report.cosines == ()
    assert report.mean == 0.0 and report.std == 0.0


def test_cosine_nan_on_zero_vectors():
    assert math.isnan(numerics.cosine(np.zeros(3), np.ones(3)))
    assert math.isnan(numerics.cosine(np.ones(3), np.zeros(3)))
    v = np.array([0.3, -0.7, 0.2])
    assert numerics.cosine(v, v) == 1.0
    assert numerics.cosine(v, -v) == -1.0


# ----------------------------------------------------------------- training

def test_lr_zero_leaves_parameters_unchanged(kb, mlp, slp):
    res = train(mlp, kb, epochs=5, lr=0.0)
    for key in mlp.params:
        assert np.array_equal(res.model.params[key], mlp.params[key])
    assert len(set(res.losses)) == 1
    res_slp = train(slp, kb, epochs=5, lr=0.0)
    assert np.array_equal(res_slp.model.params["theta"], slp.params["theta"])


def test_training_is_deterministic(kb, mlp):
    a = train(mlp, kb, epochs=20, lr=0.5)
    b = train(mlp, kb, epochs=20, lr=0.5)
    assert a.losses == b.losses
    for key in a.model.params:
        assert np.array_equal(a.model.params[key], b.model.params[key])


def test_both_architectures_fit_the_kb(kb, mlp, slp):
    res_mlp = train(mlp, kb, epochs=300, lr=0.5)
    assert res_mlp.losses[-1] < res_mlp.losses[0]
    assert res_mlp.accuracy >= 0.95
    res_slp = train(slp, kb, epochs=300, lr=0.5)
    assert res_slp.losses[-1] < res_slp.losses[0]
    assert res_slp.accuracy >= 0.95


def test_divergence_aborts_with_epoch(kb, mlp, slp):
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match="diverged at epoch"):
            train(mlp, kb, epochs=10, lr=1e307)
        broken = replace(slp, params={"theta": np.full_like(
            slp.params["theta"], np.inf)})
        with pytest.raises(RuntimeError, match="diverged at epoch 0"):
            train(broken, kb, epochs=3, lr=0.1)


# --------------------------------------------------------------- edit steps

def test_edit_step_covers_the_logical_family(kb, slp):
    q = kb.facts[0][0]
    report = edit_step(slp, q, eta=0.1, block="all")
    assert set(report.family_queries) == {"id", "neg", "rev", "negrev"}
    assert report.family_queries["id"] == tuple(q)
    assert report.family_queries["neg"] == \
        tuple(apply_logical(LogicalOp.NEG, q, kb.algebra))


def test_slp_edit_deltas_are_exact_sign_flips(kb, slp):
    for q, _ in kb.facts[:8]:
        report = edit_step(slp, q, eta=0.25, block="all")
        exact = report.exact_delta
        assert exact["neg"] == -exact["id"]
        assert exact["negrev"] == -exact["rev"]
        assert exact["rev"] == exact["id"]
        # a linear scorer has no second-order term; the two deltas are the
        # same quantity computed along two float paths, so compare tightly
        for name in exact:
            assert report.first_order_delta[name] == pytest.approx(
                exact[name], rel=1e-10, abs=1e-12)
        assert exact["id"] > 0.0  # moving along the gradient raises the score


def test_edit_step_eta_zero_is_a_no_op(kb, mlp):
    report = edit_step(mlp, kb.facts[0][0], eta=0.0, block="all")
    assert all(v == 0.0 for v in report.exact_delta.values())
    assert all(v == 0.0 for v in report.first_order_delta.values())


def test_mlp_second_order_gap_quarters_when_eta_halves(kb, mlp):
    q = kb.facts[0][0]
    trained = train(mlp, kb, epochs=100, lr=0.5).model
    for model in (mlp, trained):
        for block in ("emb", "hidden", "all"):
            gap = {}
            for eta in (1e-3, 5e-4):
                r = edit_step(model, q, eta=eta, block=block)
                gap[eta] = abs(r.exact_delta["id"] - r.first_order_delta["id"])
            assert gap[5e-4] > 0.0
            assert 3.5 <= gap[1e-3] / gap[5e-4] <= 4.5


def test_mlp_head_block_is_exactly_linear(kb, mlp):
    q = kb.facts[2][0]
    report = edit_step(mlp, q, eta=0.01, block="head")
    assert abs(report.exact_delta["id"] - report.first_order_delta["id"]) \
        <= 1e-10


def test_edit_step_moves_score_as_reported(kb, mlp):
    q = kb.facts[0][0]
    eta, block = 0.05, "hidden"
    report = edit_step(mlp, q, eta, block)
    delta = eta * gradient(mlp, q, block)
    assert report.first_order_delta["id"] == pytest.approx(
        float(np.dot(gradient(mlp, q, block), delta)), abs=1e-15)
    assert report.exact_delta["id"] > 0.0
