import itertools
import math

import numpy as np
import pytest

from gvgkit import gradkit as gk
from gvgkit import hrs
from gvgkit.datagen import IMAGE_NEGATIVE_TEXT, IMAGE_TYPES
from gvgkit.hrs import (
    HMCE_WEIGHTS,
    LEVEL0_CLASS,
    LEVEL0_SENTENCES,
    VARIANTS,
    EmptyTextError,
    HrsParams,
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


def make_params(seed=0, d=16, heads=2, d_ff=24, d_hidden=8, ablation="full"):
    return HrsParams(d_v=D_V, d_t=D_T, d=d, heads=heads, d_ff=d_ff,
                     d_hidden=d_hidden, seed=seed, ablation=ablation)


def make_text(rng, rows=5, dim=D_T):
    """A text: the (rows, dim) embeddings of its content words."""
    return rng.normal(size=(rows, dim))


def project_tokens(texts, params):
    emb, mask = stack_texts(texts)
    return gk.matmul(gk.constant(emb), params.text_proj), mask


def make_proposals(rng, n=4):
    """The (n, D_V) feature matrix of n proposals."""
    return rng.normal(size=(n, D_V))


class TestTypes:
    def test_sentence_feature_is_masked_maxpool(self):
        # the pooling ``referring_score`` applies to a stacked token block,
        # which holds each text's rows to the left and zeros after them
        rng = np.random.default_rng(0)
        texts = [make_text(rng, rows=4), make_text(rng, rows=1)]
        emb, mask = stack_texts(texts)
        assert mask.tolist() == [[True] * 4, [True] + [False] * 3]
        pooled = gk.masked_max_pool(gk.constant(emb), mask[:, :, None], axis=1).value
        for text, block, row in zip(texts, emb, pooled):
            assert np.array_equal(block, np.vstack([text, np.zeros((4 - len(text), D_T))]))
            assert np.array_equal(row, text.max(axis=0))

    def test_all_invalid_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(EmptyTextError):
            stack_texts([make_text(rng), np.zeros((0, D_T))])

    def test_vocabulary_invariants(self):
        assert LEVEL0_SENTENCES.count("[EMPTY]") == 1
        assert len(set(LEVEL0_SENTENCES)) == len(LEVEL0_SENTENCES)
        assert sorted(LEVEL0_CLASS.values()) == list(range(len(LEVEL0_SENTENCES)))
        assert LEVEL0_CLASS["crop_only"] == 1

    def test_the_type_tables_are_keyed_by_the_image_types(self):
        # hrs imports nothing from datagen; this pins their agreement
        assert list(LEVEL0_CLASS) == list(IMAGE_TYPES)
        assert list(HMCE_WEIGHTS) == list(IMAGE_TYPES)

    @pytest.mark.parametrize("image_type", IMAGE_TYPES)
    def test_each_type_is_the_row_of_its_absence_sentence(self, image_type):
        # a scene's level-0 class is the sentence it is trained to deny;
        # a mixed scene denies nothing and reads [EMPTY]
        want = IMAGE_NEGATIVE_TEXT.get(image_type, "[EMPTY]")
        assert LEVEL0_SENTENCES[LEVEL0_CLASS[image_type]] == want


class TestFuse:
    def test_deterministic_and_shape(self):
        rng = np.random.default_rng(2)
        params = HrsParams(d_v=D_V, d_t=D_T, d=64, heads=4, d_ff=128, d_hidden=32, seed=3)
        props = rng.normal(size=(5, D_V))
        text = make_text(rng, rows=7)
        tokens, mask = project_tokens([text], params)
        out1 = fuse(props, tokens, mask, params)
        out2 = fuse(props, tokens, mask, params)
        assert out1.value.shape == (1, 5, 64)
        assert np.array_equal(out1.value, out2.value)


class TestReferringScore:
    def test_eq2_identity_exact(self):
        rng = np.random.default_rng(4)
        params = make_params(seed=5)
        props = make_proposals(rng, n=6)
        text = make_text(rng, rows=4)
        out = score_expression(props, [text], params)
        w = out.sentence_weight.value[0, 0]
        word_max = out.word_scores.value[0].max(axis=1)
        recomputed = w * out.sentence_scores.value[0] + (1 - w) * word_max
        assert np.max(np.abs(out.referring_scores.value[0] - recomputed)) <= 1e-12
        assert 0.0 < w < 1.0

    def test_sentence_only_limit(self):
        rng = np.random.default_rng(5)
        params = make_params(seed=6, ablation="sentence-only")
        props = make_proposals(rng)
        text = make_text(rng)
        out = score_expression(props, [text], params)
        assert np.array_equal(out.referring_scores.value, out.sentence_scores.value)

    def test_word_only_limit(self):
        rng = np.random.default_rng(6)
        params = make_params(seed=7, ablation="word-only")
        props = make_proposals(rng)
        text = make_text(rng)
        out = score_expression(props, [text], params)
        word_max = out.word_scores.value[0].max(axis=1)
        assert np.allclose(out.referring_scores.value[0], word_max, atol=1e-15)

    @pytest.mark.parametrize("variant, weight", [("sentence-only", 1.0), ("word-only", 0.0)],
                             ids=["sentence_only-1.0", "word_only-0.0"])
    def test_the_variant_comes_from_the_params(self, variant, weight):
        # the same weights as the full model: only the variant the params
        # carry fixes the sentence weight, in a live pass and a frozen one
        rng = np.random.default_rng(9)
        props, texts = make_proposals(rng), [make_text(rng), make_text(rng, rows=3)]
        full = score_expression(props, texts, make_params(seed=10))
        ablated = make_params(seed=10, ablation=variant)
        for params in (ablated, ablated.frozen()):
            out = score_expression(props, texts, params)
            assert np.array_equal(out.sentence_weight.value, np.full((2, 1), weight))
            assert np.array_equal(out.sentence_scores.value, full.sentence_scores.value)
            assert not np.allclose(out.referring_scores.value, full.referring_scores.value)

    def test_parallel_feature_hits_inverse_temperature(self):
        rng = np.random.default_rng(7)
        params = make_params(seed=8)
        text = make_text(rng, rows=4)
        t_proj = text @ params.text_proj.value
        f_s = t_proj.max(axis=0)
        fused = gk.constant(np.stack([f_s, rng.normal(size=params.d)])[None])
        tokens, mask = project_tokens([text], params)
        out = referring_score(fused, tokens, mask, params)
        assert out.sentence_scores.value[0, 0] == pytest.approx(1 / 0.07, rel=1e-9)
        assert out.sentence_scores.value[0, 0] == pytest.approx(14.2857, abs=1e-3)

    def test_zero_norm_feature_rejected(self):
        rng = np.random.default_rng(8)
        params = make_params(seed=9)
        text = make_text(rng, rows=3)
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
        vocab_texts = [make_text(rng, rows=3) for _ in range(4)]
        scores = score_expression(props, vocab_texts, params).referring_scores
        logits = level0_logits(scores)
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

    def test_needs_a_row_per_sentence(self):
        rng = np.random.default_rng(11)
        params = make_params(seed=12)
        scores = score_expression(make_proposals(rng), [make_text(rng)] * 5,
                                  params).referring_scores
        assert level0_logits(scores).value.shape == (len(LEVEL0_SENTENCES),)
        for rows in (1, len(LEVEL0_SENTENCES) - 1):
            with pytest.raises(gk.ShapeError):
                level0_logits(gk.narrow(scores, 0, 0, rows))


class TestLosses:
    def test_lvl0_values(self):
        assert float(loss_lvl0(gk.tensor([1.0, 1.0, 1.0, 1.0]), 0).value) == pytest.approx(math.log(4), abs=1e-12)
        assert float(loss_lvl0(gk.tensor([0.0, 50.0, 0.0]), 1).value) == pytest.approx(0.0, abs=1e-12)
        assert float(loss_lvl0(gk.tensor([1.0, 2.0, 3.0]), 2).value) == pytest.approx(0.4076, abs=5e-5)
        with pytest.raises(IndexError):
            loss_lvl0(gk.tensor([1.0, 2.0]), 2)

    def test_lvl1_values(self):
        scores = gk.tensor([0.0, 0.0, 0.0])
        for targets in ([0, 0, 0], [1, 1, 1], [1, 0, 1]):
            assert float(loss_lvl1(scores, np.array(targets)).value) == pytest.approx(math.log(2), abs=1e-12)
        sep = gk.tensor([50.0, -50.0])
        assert float(loss_lvl1(sep, np.array([1, 0])).value) == pytest.approx(0.0, abs=1e-12)
        mixed = gk.tensor([1.0, -1.0])
        assert float(loss_lvl1(mixed, np.array([1, 0])).value) == pytest.approx(0.3133, abs=5e-5)

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
        assert float(loss_constrained(gk.tensor(0.2), gk.tensor(0.5)).value) == 0.5
        assert float(loss_constrained(gk.tensor(0.5), gk.tensor(0.2)).value) == 0.5
        rng = np.random.default_rng(12)
        for _ in range(1000):
            l1, l0 = rng.uniform(0, 3, 2)
            out = float(loss_constrained(gk.tensor(l1), gk.tensor(l0)).value)
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
        assert float(loss_hmce(l0, l1c, "mixed").value) == pytest.approx(6.0)
        for single in ("crop_only", "weed_only"):
            assert float(loss_hmce(gk.tensor(0.0), gk.tensor(1.0), single).value) == \
                pytest.approx(2.0)
        out = loss_hmce(gk.tensor(0.7), gk.tensor(123.0), "empty")
        assert float(out.value) == pytest.approx(0.7, abs=0.0)

    def test_total_is_sum(self):
        assert float(loss_total(gk.tensor(0.0), gk.tensor(0.0)).value) == 0.0
        assert float(loss_total(gk.tensor(1.5), gk.tensor(0.5)).value) == 2.0
        hmce = gk.tensor(1.25)
        assert loss_total(hmce, 0.0) is hmce


class TestEndToEndGradients:
    def test_full_loss_gradcheck_small(self):
        rng = np.random.default_rng(13)
        params = make_params(seed=14)
        props = make_proposals(rng, n=3)
        text = make_text(rng, rows=4)
        vocab_texts = [make_text(rng, rows=3) for _ in range(4)]
        targets = np.array([1, 0, 0], dtype=float)

        def f():
            scores = score_expression(props, vocab_texts + [text], params).referring_scores
            l0 = loss_lvl0(level0_logits(scores), 1)
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

    def test_load_rejects_bad_format(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "other", "version": 1}')
        with pytest.raises(ValueError):
            HrsParams.load(bad)

    def test_trainable_excludes_frozen_projections(self):
        full = make_params(seed=16).trainable()
        frozen = make_params(seed=16, ablation="no-projection").trainable()
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
        # the frozen model runs the plain-array pass; every field must
        # match the graph's bit for bit, for every variant, for equal and
        # unequal input dims, for one text and for several whose row
        # counts 4, 1 and 9 put the token axis under and over the
        # short-axis limit
        text_sets = {"one text": [5], "several texts": [4, 1, 9]}
        for ablation, d_t, counts in itertools.product(VARIANTS, (D_T, D_T + 5), text_sets):
            case = f"{ablation}, d_t={d_t}, {counts}"
            rng = np.random.default_rng(19)
            params = HrsParams(d_v=D_V, d_t=d_t, d=16, heads=2, d_ff=24, d_hidden=8,
                               seed=19, ablation=ablation)
            props = make_proposals(rng, n=6)
            texts = [make_text(rng, rows=n, dim=d_t) for n in text_sets[counts]]
            frozen = params.frozen()
            assert all(a.value is b.value for (_, a), (_, b) in zip(params.leaves(),
                                                                      frozen.leaves()))
            live = score_expression(props, texts, params)
            still = score_expression(props, texts, frozen)
            assert live.referring_scores.requires_grad, case
            for name in ("sentence_scores", "word_scores", "sentence_weight",
                         "referring_scores"):
                want, got = getattr(live, name), getattr(still, name)
                assert got.value.shape == want.value.shape, (case, name)
                assert got.value.tobytes() == want.value.tobytes(), (case, name)
                assert not got.requires_grad and got._parents == (), (case, name)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_both_passes_score_through_one_function(self, monkeypatch, variant):
        # a frozen model and a trainable one reach their scores through
        # the same ``referring_score``, once per pass
        calls = []

        def counted(*args):
            calls.append(args)
            return referring_score(*args)

        monkeypatch.setattr(hrs, "referring_score", counted)
        rng = np.random.default_rng(21)
        props, texts = make_proposals(rng), [make_text(rng), make_text(rng, rows=2)]
        params = make_params(seed=21, ablation=variant)
        for model in (params, params.frozen()):
            calls.clear()
            score_expression(props, texts, model)
            assert len(calls) == 1, (variant, model is params)

    @pytest.mark.parametrize("frozen", [False, True], ids=["graph", "plain"])
    @pytest.mark.parametrize("fault, error", [("zero proposal row", gk.DomainError),
                                              ("zero temperature", gk.DomainError),
                                              ("hot temperature", OverflowError),
                                              ("no valid token", EmptyTextError)])
    def test_both_passes_raise_alike(self, frozen, fault, error):
        # under predict's errstate, a fault still raises on either pass
        rng = np.random.default_rng(20)
        params = make_params(seed=20)
        props, texts = make_proposals(rng), [make_text(rng), make_text(rng, rows=3)]
        if fault == "zero proposal row":
            # with no attention message and no feed-forward output, a
            # proposal's fused row is its projection: zero for a zero row
            for name in ("attn_out", "ffn_w2", "ffn_b2"):
                getattr(params, name).value[...] = 0.0
            props[2] = 0.0
        elif fault == "zero temperature":
            params.log_temperature.value = np.array(-1e4)
        elif fault == "hot temperature":
            params.log_temperature.value = np.array(1000.0)
        else:
            texts[1] = np.zeros((0, D_T))
        if frozen:
            params = params.frozen()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
                pytest.raises(error):
            score_expression(props, texts, params)

    def test_text_projection_drawn_when_dims_differ(self):
        params = HrsParams(d_v=D_V, d_t=D_T + 2, d=16, heads=2, seed=18)
        assert params.text_proj.value.shape == (D_T + 2, 16)
