import math

import numpy as np
import pytest

from gvgkit import gradkit as gk
from gvgkit import hrs
from gvgkit.geometry import BBox
from gvgkit.hrs import (
    AblationFlags,
    EmptyTextError,
    HrsParams,
    Level0Vocabulary,
    ProposalFeatures,
    TextFeatures,
    coarse_image_type,
    fuse,
    level0_logits,
    loss_constrained,
    loss_hmce,
    loss_lvl0,
    loss_lvl1,
    loss_total,
    referring_score,
    score_expression,
    stack_texts,
)

from gradient_check import check_gradients

D_V = 12
D_T = 12


def make_params(seed=0, d=16, heads=2, d_ff=24, d_hidden=8):
    return HrsParams(d_v=D_V, d_t=D_T, d=d, heads=heads, d_ff=d_ff,
                     d_hidden=d_hidden, seed=seed)


def make_text(rng, tokens=5, valid=None):
    emb = rng.normal(size=(tokens, D_T))
    mask = np.ones(tokens, dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    return TextFeatures(token_embeddings=emb, valid_mask=mask)


def project_tokens(texts, params):
    emb, mask = stack_texts(texts)
    return gk.matmul(gk.constant(emb), params.text_proj), mask


def make_proposals(rng, n=4):
    feats = rng.normal(size=(n, D_V))
    boxes = [BBox(0.5, 0.5, 0.1, 0.1) for _ in range(n)]
    return ProposalFeatures(features=feats, boxes=boxes)


class TestTypes:
    def test_sentence_feature_is_masked_maxpool(self):
        rng = np.random.default_rng(0)
        text = make_text(rng, tokens=6, valid=[1, 1, 0, 1, 0, 1])
        expected = text.token_embeddings[text.valid_mask].max(axis=0)
        assert np.array_equal(text.sentence_feature, expected)

    def test_all_invalid_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(EmptyTextError):
            make_text(rng, tokens=3, valid=[0, 0, 0])

    def test_proposal_row_box_alignment(self):
        with pytest.raises(ValueError):
            ProposalFeatures(features=np.ones((2, 4)), boxes=[BBox(0.5, 0.5, 0.1, 0.1)])

    def test_vocabulary_invariants(self):
        vocab = Level0Vocabulary()
        assert vocab.sentences[vocab.empty_index] == "[EMPTY]"
        assert vocab.true_class("crop_only") == 1
        with pytest.raises(ValueError):
            Level0Vocabulary(sentences=("a", "b"))  # no [EMPTY]
        with pytest.raises(ValueError):
            vocab.true_class("underwater")

    def test_ablation_exclusivity(self):
        with pytest.raises(ValueError):
            AblationFlags(sentence_only=True, word_only=True)


class TestFuse:
    def test_deterministic_and_shape(self):
        rng = np.random.default_rng(2)
        params = HrsParams(d_v=D_V, d_t=D_T, d=64, heads=4, d_ff=128, d_hidden=32, seed=3)
        props = ProposalFeatures(features=rng.normal(size=(5, D_V)),
                                 boxes=[BBox(0.5, 0.5, 0.1, 0.1)] * 5)
        text = make_text(rng, tokens=7)
        tokens, mask = project_tokens([text], params)
        out1 = fuse(props, tokens, mask, params)
        out2 = fuse(props, tokens, mask, params)
        assert out1.value.shape == (1, 5, 64)
        assert np.array_equal(out1.value, out2.value)

    def test_masked_token_cannot_influence_output(self):
        rng = np.random.default_rng(3)
        params = make_params(seed=4)
        props = make_proposals(rng)
        emb = rng.normal(size=(5, D_T))
        mask = np.array([1, 1, 1, 1, 0], dtype=bool)
        base = score_expression(props, [TextFeatures(emb, mask)], params)
        perturbed = emb.copy()
        perturbed[4] += rng.normal(size=D_T) * 10
        changed = score_expression(props, [TextFeatures(perturbed, mask)], params)
        assert np.array_equal(base.referring_scores.value, changed.referring_scores.value)


class TestReferringScore:
    def test_eq2_identity_exact(self):
        rng = np.random.default_rng(4)
        params = make_params(seed=5)
        props = make_proposals(rng, n=6)
        text = make_text(rng, tokens=5, valid=[1, 1, 1, 0, 1])
        out = score_expression(props, [text], params)
        w = out.sentence_weight.value[0, 0]
        packed_mask = stack_texts([text])[1][0]
        word_max = np.where(packed_mask, out.word_scores.value[0], -np.inf).max(axis=1)
        recomputed = w * out.sentence_scores.value[0] + (1 - w) * word_max
        assert np.max(np.abs(out.referring_scores.value[0] - recomputed)) <= 1e-12
        assert 0.0 < w < 1.0

    def test_sentence_only_limit(self):
        rng = np.random.default_rng(5)
        params = make_params(seed=6)
        props = make_proposals(rng)
        text = make_text(rng)
        out = score_expression(props, [text], params, AblationFlags(sentence_only=True))
        assert np.array_equal(out.referring_scores.value, out.sentence_scores.value)

    def test_word_only_limit(self):
        rng = np.random.default_rng(6)
        params = make_params(seed=7)
        props = make_proposals(rng)
        text = make_text(rng)
        out = score_expression(props, [text], params, AblationFlags(word_only=True))
        word_max = out.word_scores.value[0].max(axis=1)
        assert np.allclose(out.referring_scores.value[0], word_max, atol=1e-15)

    def test_parallel_feature_hits_inverse_temperature(self):
        rng = np.random.default_rng(7)
        params = make_params(seed=8)
        text = make_text(rng, tokens=4)
        t_proj = text.token_embeddings @ params.text_proj.value
        f_s = t_proj.max(axis=0)
        fused = gk.constant(np.stack([f_s, rng.normal(size=params.d)])[None])
        tokens, mask = project_tokens([text], params)
        out = referring_score(fused, tokens, mask, params)
        assert out.sentence_scores.value[0, 0] == pytest.approx(1 / 0.07, rel=1e-9)
        assert out.sentence_scores.value[0, 0] == pytest.approx(14.2857, abs=1e-3)

    def test_zero_norm_feature_rejected(self):
        rng = np.random.default_rng(8)
        params = make_params(seed=9)
        text = make_text(rng, tokens=3)
        fused = gk.constant(np.zeros((1, 2, params.d)))
        tokens, mask = project_tokens([text], params)
        with pytest.raises(gk.DomainError):
            referring_score(fused, tokens, mask, params)


class TestLevel0:
    def test_uniform_and_dominant(self):
        probs = gk.softmax(gk.tensor([2.0, 2.0, 2.0, 2.0])).value
        assert np.allclose(probs, 0.25, atol=1e-12)
        probs = gk.softmax(gk.tensor([0.0, 50.0, 0.0])).value
        assert abs(probs[1] - 1.0) <= 1e-20

    def test_hand_computed_softmax(self):
        probs = gk.softmax(gk.tensor([1.0, 2.0, 3.0])).value
        assert np.allclose(probs, [0.0900, 0.2447, 0.6652], atol=5e-5)

    def test_distribution_over_vocabulary(self):
        rng = np.random.default_rng(9)
        params = make_params(seed=10)
        props = make_proposals(rng, n=3)
        vocab_texts = [make_text(rng, tokens=3) for _ in range(4)]
        scores = score_expression(props, vocab_texts, params).referring_scores
        logits = level0_logits(scores, 4)
        assert logits.value.shape == (4,)
        # the class distribution is the softmax of the pooled logits, as
        # loss_lvl0's cross-entropy takes it
        probs = gk.softmax(logits)
        assert probs.value.sum() == pytest.approx(1.0, abs=1e-10)
        # pooled logits really are maxima of per-proposal referring scores
        for k, text in enumerate(vocab_texts):
            assert logits.value[k] == scores.value[k].max()
            alone = score_expression(props, [text], params).referring_scores.value[0]
            assert logits.value[k] == pytest.approx(alone.max(), abs=1e-12)

    def test_argmax_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(10)
        scores = [rng.normal(size=5) for _ in range(4)]
        pooled = np.array([s.max() for s in scores])
        for c in (0.1, 3.0, 42.0):
            scaled = np.array([(c * s).max() for s in scores])
            assert np.argmax(scaled) == np.argmax(pooled)

    def test_needs_two_sentences(self):
        rng = np.random.default_rng(11)
        params = make_params(seed=12)
        scores = score_expression(make_proposals(rng), [make_text(rng)] * 2,
                                  params).referring_scores
        with pytest.raises(ValueError):
            level0_logits(scores, 1)
        with pytest.raises(ValueError):
            level0_logits(scores, 3)


class TestLosses:
    def test_lvl0_values(self):
        assert loss_lvl0(gk.tensor([1.0, 1.0, 1.0, 1.0]), 0).item() == pytest.approx(math.log(4), abs=1e-12)
        assert loss_lvl0(gk.tensor([0.0, 50.0, 0.0]), 1).item() == pytest.approx(0.0, abs=1e-12)
        assert loss_lvl0(gk.tensor([1.0, 2.0, 3.0]), 2).item() == pytest.approx(0.4076, abs=5e-5)
        with pytest.raises(IndexError):
            loss_lvl0(gk.tensor([1.0, 2.0]), 2)

    def test_lvl1_values(self):
        scores = gk.tensor([0.0, 0.0, 0.0])
        for targets in ([0, 0, 0], [1, 1, 1], [1, 0, 1]):
            assert loss_lvl1(scores, np.array(targets)).item() == pytest.approx(math.log(2), abs=1e-12)
        sep = gk.tensor([50.0, -50.0])
        assert loss_lvl1(sep, np.array([1, 0])).item() == pytest.approx(0.0, abs=1e-12)
        mixed = gk.tensor([1.0, -1.0])
        assert loss_lvl1(mixed, np.array([1, 0])).item() == pytest.approx(0.3133, abs=5e-5)

    def test_lvl1_block_gives_each_rows_loss(self):
        # a (k, N) block: one loss per row, each equal, with its gradient,
        # to the loss of that row alone
        rng = np.random.default_rng(21)
        values = rng.normal(size=(5, 7)) * 4
        targets = (rng.random((5, 7)) > 0.6).astype(float)
        block = gk.tensor(values, requires_grad=True)
        losses = loss_lvl1(block, targets)
        assert losses.shape == (5,)
        gk.backward(gk.reduce_sum(losses))
        for k in range(5):
            row = gk.tensor(values[k], requires_grad=True)
            alone = loss_lvl1(row, targets[k])
            assert alone.shape == ()
            assert losses.value[k] == alone.value
            gk.backward(alone)
            assert np.array_equal(block.grad[k], row.grad)

    def test_constrained_floors_each_row(self):
        l1 = gk.tensor([0.2, 0.7, 0.4], requires_grad=True)
        l0 = gk.tensor(0.5, requires_grad=True)
        floored = loss_constrained(l1, l0)
        assert floored.value.tolist() == [0.5, 0.7, 0.5]
        gk.backward(gk.reduce_sum(floored))
        assert l1.grad.tolist() == [0.0, 1.0, 0.0]
        assert l0.grad == 2.0

    def test_constrained_is_max(self):
        assert loss_constrained(gk.tensor(0.2), gk.tensor(0.5)).item() == 0.5
        assert loss_constrained(gk.tensor(0.5), gk.tensor(0.2)).item() == 0.5
        rng = np.random.default_rng(12)
        for _ in range(1000):
            l1, l0 = rng.uniform(0, 3, 2)
            out = loss_constrained(gk.tensor(l1), gk.tensor(l0)).item()
            assert out >= l1 and out >= l0
            assert out == max(l1, l0)

    def test_constrained_gradient_routes_to_active_branch(self):
        a = gk.tensor(0.2, requires_grad=True)
        b = gk.tensor(0.5, requires_grad=True)
        gk.backward(loss_constrained(a, b))
        assert a.grad is None or float(a.grad) == 0.0
        assert float(b.grad) == 1.0
        # finite differences agree on a composed objective
        x = gk.tensor(0.3, requires_grad=True)
        y = gk.tensor(0.9, requires_grad=True)
        report = check_gradients(
            lambda: loss_constrained(gk.mul(x, x), gk.mul(y, 0.5)),
            [("x", x), ("y", y)])
        assert report.passed, str(report)

    def test_hmce_weights(self):
        l0, l1c = gk.tensor(1.0), gk.tensor(2.0)
        assert loss_hmce(l0, l1c, "mixed").item() == pytest.approx(6.0)
        assert loss_hmce(gk.tensor(0.0), gk.tensor(1.0), "single").item() == pytest.approx(2.0)
        out = loss_hmce(gk.tensor(0.7), gk.tensor(123.0), "empty")
        assert out.item() == pytest.approx(0.7, abs=0.0)
        with pytest.raises(ValueError):
            loss_hmce(l0, l1c, "nocturnal")

    def test_total_is_sum(self):
        assert loss_total(gk.tensor(0.0), gk.tensor(0.0)).item() == 0.0
        assert loss_total(gk.tensor(1.5), gk.tensor(0.5)).item() == 2.0
        hmce = gk.tensor(1.25)
        assert loss_total(hmce, 0.0) is hmce

    def test_coarse_image_type(self):
        assert coarse_image_type("crop_only") == "single"
        assert coarse_image_type("weed_only") == "single"
        assert coarse_image_type("mixed") == "mixed"
        assert coarse_image_type("empty") == "empty"
        with pytest.raises(ValueError):
            coarse_image_type("dense")


class TestEndToEndGradients:
    def test_full_loss_gradcheck_small(self):
        rng = np.random.default_rng(13)
        params = make_params(seed=14)
        props = make_proposals(rng, n=3)
        text = make_text(rng, tokens=5, valid=[1, 1, 1, 1, 0])
        vocab_texts = [make_text(rng, tokens=3) for _ in range(4)]
        targets = np.array([1, 0, 0], dtype=float)

        def f():
            scores = score_expression(props, vocab_texts + [text], params).referring_scores
            l0 = loss_lvl0(level0_logits(scores, 4), 1)
            l1 = loss_lvl1(gk.reshape(gk.narrow(scores, 0, 4, 1), (-1,)), targets)
            return loss_total(loss_hmce(l0, loss_constrained(l1, l0), "mixed"), 0.0)

        report = check_gradients(f, params.leaves(), max_entries_per_param=4)
        assert report.passed, str(report)

    def test_save_load_roundtrip(self, tmp_path):
        params = make_params(seed=15)
        path = tmp_path / "params.json"
        params.save(path, seed=15)
        loaded = HrsParams.load(path)
        for (name, a), (_, b) in zip(params.leaves(), loaded.leaves()):
            assert np.array_equal(a.value, b.value), name
        assert loaded.temperature == pytest.approx(0.07)

    def test_load_rejects_bad_format(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "other", "version": 1}')
        with pytest.raises(ValueError):
            HrsParams.load(bad)

    def test_trainable_excludes_frozen_projections(self):
        params = make_params(seed=16)
        full = params.trainable()
        frozen = params.trainable(AblationFlags(no_projection=True))
        assert len(full) - len(frozen) == 2

    def test_projections_start_shared_but_train_separately(self):
        params = make_params(seed=17)
        start = params.visual_proj.value.copy()
        assert np.array_equal(params.text_proj.value, start)
        params.text_proj.value += 1.0  # an in-place edit would leak through a shared array
        assert np.array_equal(params.visual_proj.value, start)
        params.text_proj.grad = np.ones_like(start)
        gk.Adam(params.trainable()).step()
        assert np.array_equal(params.visual_proj.value, start)
        assert not np.array_equal(params.text_proj.value, start + 1.0)

    def test_frozen_scores_alike_and_records_no_graph(self):
        rng = np.random.default_rng(19)
        params = make_params(seed=19)
        props, texts = make_proposals(rng), [make_text(rng), make_text(rng, tokens=3)]
        frozen = params.frozen()
        assert all(a.value is b.value for (_, a), (_, b) in zip(params.leaves(),
                                                                  frozen.leaves()))
        live = score_expression(props, texts, params).referring_scores
        still = score_expression(props, texts, frozen).referring_scores
        assert np.array_equal(live.value, still.value)
        assert live.requires_grad and not still.requires_grad and still._parents == ()

    def test_text_projection_drawn_when_dims_differ(self):
        params = HrsParams(d_v=D_V, d_t=D_T + 2, d=16, heads=2, seed=18)
        assert params.text_proj.value.shape == (D_T + 2, 16)
