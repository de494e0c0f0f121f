"""The batched scene pass against the per-text oracle: same losses,
gradients, rankings and level-0 classes, from far fewer tape nodes."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_text_oracle as oracle
import copy
from tape_walk_oracle import tape_walk_gradients

from gvgkit import gradkit as gk
from gvgkit import hrs
from gvgkit.hrs import HrsParams
from gvgkit.synth import SynthConfig, TrainConfig, gen_scenes, predict_split, train_two_stage
from gvgkit.synth.config import FEATURE_DIMS
from gvgkit.synth.encode import EmbeddingTable, encode_text
from gvgkit.synth.train import _scene_losses, encode_split, text_encoder

# the variants that change the stage-2 loss
ABLATIONS = ("full", "sentence-only", "word-only", "no-constraint")


@pytest.fixture(scope="module")
def setup():
    cfg = SynthConfig(n_scenes=30, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = gen_scenes(cfg)
    table = EmbeddingTable(cfg.seed)
    encoded = encode_split(dataset.splits["train"], cfg, table)
    return cfg, dataset, table, encoded


def pick_scenes(encoded):
    """One empty scene, one mixed scene and one single-type scene."""
    return [next(e for e in encoded if e.scene.image_type in kinds)
            for kinds in (("empty",), ("mixed",), ("crop_only", "weed_only"))]


def fresh_params(seed, ablation="full"):
    tcfg = TrainConfig()
    return HrsParams(d_v=FEATURE_DIMS, d_t=FEATURE_DIMS, d=tcfg.d,
                     heads=tcfg.heads, d_ff=tcfg.d_ff, d_hidden=tcfg.d_hidden, seed=seed,
                     ablation=ablation)


def loss_and_grads(loss_fn, params):
    """The objective ``loss_fn()`` returns, its terms as floats, and the
    objective's gradients."""
    for _, t in params.leaves():
        t.grad = None
    loss, terms = loss_fn()
    gk.backward(loss)
    grads = {name: np.zeros_like(t.value) if t.grad is None else t.grad.copy()
             for name, t in params.leaves()}
    return float(loss.value), {name: float(t.value) for name, t in terms.items()}, grads


@pytest.mark.parametrize("ablation", ABLATIONS, ids=lambda name: name.replace("-", "_"))
def test_scene_loss_and_gradients_match_the_oracle(setup, ablation):
    # the variant lives in the model; the config names the full model
    cfg, _, table, encoded = setup
    tcfg = TrainConfig(seed=11)
    params = fresh_params(seed=21, ablation=ablation)
    items = pick_scenes(encoded)
    # texts of unequal lengths, so the batched pass pads some of them
    assert len({len(t) for t in oracle.level0_texts(table, cfg.max_tokens)}) > 1
    encode = text_encoder(table, cfg.max_tokens)
    for k, item in enumerate(items):
        batched, batched_terms, batched_grads = loss_and_grads(
            lambda: _scene_losses(item, params, tcfg, np.random.default_rng(k), encode),
            params)
        reference, reference_terms, reference_grads = loss_and_grads(
            lambda: oracle.scene_loss(item, params, table, tcfg,
                                      np.random.default_rng(k), cfg.max_tokens), params)
        assert batched == pytest.approx(reference, abs=1e-10), item.scene.image_type
        assert batched_terms.keys() == reference_terms.keys()
        for name, value in reference_terms.items():
            assert batched_terms[name] == pytest.approx(value, abs=1e-10), \
                (item.scene.image_type, name)
        for name, grad in reference_grads.items():
            assert np.max(np.abs(batched_grads[name] - grad)) <= 1e-10, \
                (item.scene.image_type, name)
        if item.scene.image_type != "empty":
            assert np.any(reference_grads["attn_q"] != 0.0)


def test_one_scene_records_at_most_125_tape_nodes(setup):
    cfg, _, table, encoded = setup
    tcfg = TrainConfig(seed=11)
    item = next(e for e in encoded if e.scene.image_type == "mixed")
    objective, _ = _scene_losses(item, fresh_params(seed=22), tcfg, np.random.default_rng(0),
                                 text_encoder(table, cfg.max_tokens))
    assert len(gk.Tape(objective).nodes) <= 125


@pytest.mark.parametrize("kind, nodes", [("mixed", 119), ("empty", 94)])
def test_content_token_blocks_keep_the_graph(setup, kind, nodes):
    # the node counts of the same scenes when every text was padded to
    # its full token count, fillers included
    cfg, _, table, encoded = setup
    tcfg = TrainConfig(seed=11)
    item = next(e for e in encoded if e.scene.image_type == kind)
    objective, _ = _scene_losses(item, fresh_params(seed=22), tcfg, np.random.default_rng(0),
                                 text_encoder(table, cfg.max_tokens))
    assert len(gk.Tape(objective).nodes) == nodes


def test_stage2_batch_backward_matches_the_tape_walk(setup):
    cfg, _, table, encoded = setup
    tcfg = TrainConfig(seed=11)
    params = fresh_params(seed=24)
    rng = np.random.default_rng(3)
    encode = text_encoder(table, cfg.max_tokens)
    batch = pick_scenes(encoded) + [encoded[-1]]
    pieces = [_scene_losses(item, params, tcfg, rng, encode)[0] for item in batch]
    total = gk.mul(pieces[0], 1.0 / len(pieces))
    for extra in pieces[1:]:
        total = gk.add(total, gk.mul(extra, 1.0 / len(pieces)))
    reference = tape_walk_gradients(total)
    gk.backward(total)
    for name, leaf in params.leaves():
        assert np.max(np.abs(leaf.grad - reference[id(leaf)])) <= 1e-12, name
    assert any(np.any(leaf.grad != 0.0) for _, leaf in params.leaves())


TCFG_SHORT = TrainConfig(seed=11, stage1_epochs=2, stage2_epochs=2)


@pytest.fixture(scope="module")
def trained(setup):
    cfg, dataset, _, _ = setup
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return train_two_stage(dataset.splits["train"], cfg, TCFG_SHORT)


@pytest.fixture(scope="module")
def word_only(setup):
    cfg, dataset, _, _ = setup
    tcfg = dataclasses.replace(TCFG_SHORT, ablation="word-only")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return train_two_stage(dataset.splits["train"], cfg, tcfg, stages=(2,)).params


@pytest.mark.parametrize("gate", [True, False])
@pytest.mark.parametrize("checkpoint", ["trained", "offset", "word_only"])
def test_predictions_match_the_oracle(setup, trained, word_only, checkpoint, gate):
    # a word-only checkpoint is predicted as word-only: predict takes no
    # variant besides the one the checkpoint carries
    cfg, dataset, table, _ = setup
    params = copy.deepcopy(word_only if checkpoint == "word_only" else trained.params)
    if checkpoint == "offset":
        # a feed-forward bias offset drives every score of some texts below
        # zero, so the gate falls back to the background row for them
        params.ffn_b2.value += 5.0 * np.random.default_rng(0).normal(size=params.d)
    split = dataset.splits["test"]
    preds = predict_split(split, cfg, params, trained.refiner, gate_level0=gate)
    records = preds.by_expression()
    checked = fell_back = 0
    for scene, item in zip(split.scenes, encode_split(split, cfg, table)):
        level0_class, ranked = oracle.predict_scene(
            item.features, item.expressions, table, params, params.ablation,
            cfg.max_tokens, gate_level0=gate)
        refined = trained.refiner.refine(item.boxes).value
        corners = np.concatenate([refined[:, :2] - refined[:, 2:] / 2,
                                  refined[:, :2] + refined[:, 2:] / 2], axis=1)
        corners *= np.array([scene.width, scene.height, scene.width, scene.height])
        for expr, (order, scores, gated) in zip(item.expressions, ranked):
            record = records[expr.expression_id]
            assert (record.image_id, record.level0_class) == (scene.image_id, level0_class)
            assert np.array_equal(preds.tables[scene.image_id][record.ranking],
                                  corners[order]), expr.expression_id
            assert np.max(np.abs(record.scores - scores)) <= 1e-10
            checked += 1
            fell_back += gated
    assert checked == len(split.expressions)
    if gate and checkpoint == "offset":
        instances = sum(e.level == "instance" for e in split.expressions)
        assert 0 < fell_back < instances


@pytest.mark.parametrize("variant", hrs.VARIANTS)
def test_both_commands_score_a_scene_in_one_pass(setup, trained, monkeypatch, variant):
    # training and prediction each reach a scene's scores through one
    # ``score_scene`` call, which makes one ``score_expression`` call
    cfg, dataset, table, encoded = setup
    score_scene, score_expression = hrs.score_scene, hrs.score_expression
    inner_calls, outer_calls = [], []

    def expression_pass(*args):
        inner_calls.append(args)
        return score_expression(*args)

    def scene_pass(*args):
        before = len(inner_calls)
        out = score_scene(*args)
        outer_calls.append(len(inner_calls) - before)
        return out

    monkeypatch.setattr(hrs, "score_expression", expression_pass)
    monkeypatch.setattr(hrs, "score_scene", scene_pass)
    params = fresh_params(seed=26, ablation=variant)
    items = pick_scenes(encoded)
    encode = text_encoder(table, cfg.max_tokens)
    for k, item in enumerate(items):
        _scene_losses(item, params, TrainConfig(seed=11), np.random.default_rng(k), encode)
    assert outer_calls == [1] * len(items) and len(inner_calls) == len(items)
    outer_calls.clear()
    inner_calls.clear()
    predict_split(dataset.splits["test"], cfg, params, trained.refiner)
    scenes = len(dataset.splits["test"].scenes)
    assert outer_calls == [1] * scenes and len(inner_calls) == scenes


def test_fillers_leave_the_scores_unchanged(setup):
    # an expression scores as its content words alone, scored by itself
    # and next to texts of other lengths
    cfg, _, table, encoded = setup
    params = fresh_params(seed=25)
    item = next(e for e in encoded if e.scene.image_type == "mixed")
    with_fillers = encode_text("the small maize at the top left of the image", table)
    content_only = encode_text("small maize top left", table)
    others = oracle.level0_texts(table, cfg.max_tokens)[:2]
    for texts, row in (([with_fillers], 0), ([with_fillers] + others, 0),
                       (others + [with_fillers], 2)):
        got = hrs.score_expression(item.features, texts, params)
        want = hrs.score_expression(item.features, [content_only], params)
        for field in ("sentence_scores", "referring_scores"):
            diff = getattr(got, field).value[row] - getattr(want, field).value[0]
            assert np.max(np.abs(diff)) <= 1e-12, field
        # word scores index content-token slots, in the text's order
        word_diff = got.word_scores.value[row][:, :3] - want.word_scores.value[0]
        assert np.max(np.abs(word_diff)) <= 1e-12
    _, packed = hrs.stack_texts([with_fillers] + others)
    assert packed.shape[1] == max(len(t) for t in [with_fillers] + others)
    assert packed[0].tolist() == [True] * 3 + [False] * (packed.shape[1] - 3)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scoring_a_text_alone_or_in_a_padded_batch_agrees(setup, trained, data):
    # a text's row reads that text only: it scores the same, to rounding,
    # whatever texts share its batch, however many and long they are and
    # wherever the text sits among them, on the graph and frozen
    cfg, _, table, encoded = setup
    item = encoded[data.draw(st.integers(0, len(encoded) - 1), label="scene")]
    pool = oracle.level0_texts(table, cfg.max_tokens) + [
        encode_text(e.text, table, cfg.max_tokens) for e in item.expressions]

    def draw_text(label):
        text = pool[data.draw(st.integers(0, len(pool) - 1), label=label)]
        return text[:data.draw(st.integers(1, len(text)), label=f"{label} length")]

    text = draw_text("text")
    others = [draw_text(f"other {k}")
              for k in range(data.draw(st.integers(0, 8), label="others"))]
    row = data.draw(st.integers(0, len(others)), label="position")
    batch = others[:row] + [text] + others[row:]
    for params in (trained.params, trained.params.frozen()):
        alone = hrs.score_expression(item.features, [text], params)
        together = hrs.score_expression(item.features, batch, params)
        for field in ("sentence_scores", "sentence_weight", "referring_scores"):
            np.testing.assert_allclose(getattr(together, field).value[row],
                                       getattr(alone, field).value[0],
                                       rtol=0.0, atol=1e-12, err_msg=field)
        # word scores index content-token slots; the batch pads the rest
        np.testing.assert_allclose(together.word_scores.value[row][:, :len(text)],
                                   alone.word_scores.value[0], rtol=0.0, atol=1e-12)


def scene_readouts(item, params, encode, rows):
    """``score_scene``'s level-0 logits, and its expression and
    background rows over the proposals ``rows`` of ``item``, as arrays."""
    scores = hrs.score_scene(item.features[rows], [e.text for e in item.expressions],
                             params, encode)
    return scores.level0.value, scores.expressions.value, scores.background.value


@pytest.mark.parametrize("frozen", [False, True], ids=["graph", "frozen"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scores_follow_the_proposals_order(setup, trained, frozen, data):
    # no proposal reads another's position: a permuted scene permutes
    # every per-proposal row and leaves the level-0 logits alone, to
    # rounding (the sums run in another order)
    cfg, _, table, encoded = setup
    params = trained.params.frozen() if frozen else trained.params
    encode = text_encoder(table, cfg.max_tokens)
    item = encoded[data.draw(st.integers(0, len(encoded) - 1), label="scene")]
    n = len(item.features)
    perm = np.array(data.draw(st.permutations(range(n)), label="order"), dtype=np.intp)
    level0, expressions, background = scene_readouts(item, params, encode, np.arange(n))
    p_level0, p_expressions, p_background = scene_readouts(item, params, encode, perm)
    np.testing.assert_allclose(p_level0, level0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(p_expressions, expressions[:, perm], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(p_background, background[:, perm], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("frozen", [False, True], ids=["graph", "frozen"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dropped_proposals_leave_the_kept_scores(setup, trained, frozen, data):
    # no proposal attends to another, so the kept proposals score as
    # they did in the whole scene
    cfg, _, table, encoded = setup
    params = trained.params.frozen() if frozen else trained.params
    encode = text_encoder(table, cfg.max_tokens)
    item = encoded[data.draw(st.integers(0, len(encoded) - 1), label="scene")]
    n = len(item.features)
    keep = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="kept")),
                    dtype=np.intp)
    _, expressions, background = scene_readouts(item, params, encode, np.arange(n))
    _, k_expressions, k_background = scene_readouts(item, params, encode, keep)
    np.testing.assert_allclose(k_expressions, expressions[:, keep], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(k_background, background[:, keep], rtol=0.0, atol=1e-12)
