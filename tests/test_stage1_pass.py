"""Stage 1 trains each batch in one pass over assignments matched once:
the batched loss against the per-scene oracle, matching counted, and
rollback on divergence."""

import dataclasses
import warnings

import numpy as np
import pytest

from gvgkit import gradkit as gk
from gvgkit.matching import assign_optimal, build_cost_matrix
from gvgkit.synth import SynthConfig, TrainConfig, TrainingDiverged, gen_scenes
from gvgkit.synth import train as train_module
from gvgkit.synth.boxhead import BoxRefiner, giou_loss_diff, interp_iou_loss_diff
from gvgkit.synth.encode import EmbeddingTable
from gvgkit.synth.train import encode_split, match_scene, stage1_loss, train_stage1

from uniform_oracle import centre_rows, normalized_boxes


def stage1_scene_loss(item, refiner, tcfg):
    """Oracle: one scene's mean box loss, matched and refined on its own."""
    gts = normalized_boxes(item.scene)
    if not gts:
        return None
    cost = build_cost_matrix(item.boxes, centre_rows(gts), tcfg.lambda_centre,
                             tcfg.lambda_size)
    pairs = assign_optimal(cost)
    if not pairs:
        return None
    prop = np.array([item.boxes[i] for i, _ in pairs])
    gt = centre_rows([gts[j] for _, j in pairs])
    refined = refiner.refine(prop)
    weights = np.full(len(prop), 1 / len(prop))
    if refiner.ablation == "no-interp-iou":
        return giou_loss_diff(refined, gt, weights)
    return interp_iou_loss_diff(refined, gt, alpha=tcfg.interp_alpha, weights=weights)


def oracle_batch_loss(batch, refiner, tcfg):
    """Oracle: the mean over scenes with pairs of each scene's loss."""
    losses = [loss for loss in (stage1_scene_loss(item, refiner, tcfg)
                                for item in batch) if loss is not None]
    total = gk.mul(losses[0], 1.0 / len(losses))
    for extra in losses[1:]:
        total = gk.add(total, gk.mul(extra, 1.0 / len(losses)))
    return total


@pytest.fixture(scope="module")
def encoded():
    cfg = SynthConfig(n_scenes=40, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = gen_scenes(cfg)
    return encode_split(dataset.splits["train"], cfg, EmbeddingTable(cfg.seed))


def mixed_batch(encoded):
    """An empty scene, a one-pair scene and the densest scene."""
    empty = next(e for e in encoded if not e.scene.instances)
    some = next(e for e in encoded if e.scene.instances)
    single = dataclasses.replace(some, scene=dataclasses.replace(
        some.scene, instances=some.scene.instances[:1]))
    assert len(match_scene(single, TrainConfig())[0]) == 1
    dense = max(encoded, key=lambda e: len(e.scene.instances))
    assert len(dense.scene.instances) > 20
    return [empty, single, dense]


def loss_and_grads(loss_fn, refiner):
    for _, t in refiner.leaves():
        t.grad = None
    loss = loss_fn()
    gk.backward(loss)
    return float(loss.value), {name: t.grad.copy() for name, t in refiner.leaves()}


@pytest.mark.parametrize("ablation", ["full", "no-interp-iou"],
                         ids=["interp-iou", "no-interp-iou"])
def test_batch_loss_and_gradients_match_the_oracle(encoded, ablation):
    # the variant lives in the refiner; the config names the full model
    tcfg = TrainConfig(seed=11)
    refiner = BoxRefiner(seed=3, ablation=ablation)
    rng = np.random.default_rng(3)
    for _, t in refiner.leaves():    # away from the identity map
        t.value = t.value + rng.normal(scale=0.3, size=t.value.shape)
    batch = mixed_batch(encoded)
    for scenes in (batch, batch[1:2], batch[::-1], encoded[:4]):
        pairs = [p for p in (match_scene(item, tcfg) for item in scenes)
                 if p is not None]
        got, got_grads = loss_and_grads(lambda: stage1_loss(pairs, refiner, tcfg), refiner)
        want, want_grads = loss_and_grads(
            lambda: oracle_batch_loss(scenes, refiner, tcfg), refiner)
        assert got == pytest.approx(want, abs=1e-12)
        for name, grad in want_grads.items():
            assert np.any(grad), name
            np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-12,
                                       err_msg=name)


def test_a_no_interp_iou_refiner_trains_under_giou(encoded):
    # a default config names the full model: the refiner alone picks the loss
    tcfg = TrainConfig(seed=11)
    pairs = [match_scene(item, tcfg) for item in mixed_batch(encoded)[1:2]]
    (prop, gt), = pairs
    refiner = BoxRefiner(seed=3, ablation="no-interp-iou")
    got = stage1_loss(pairs, refiner, tcfg).value
    weights = np.full(len(prop), 1 / len(prop))
    assert got == giou_loss_diff(refiner.refine(prop), gt, weights).value
    assert got != interp_iou_loss_diff(refiner.refine(prop), gt, alpha=tcfg.interp_alpha,
                                       weights=weights).value


def test_one_batch_records_at_most_60_tape_nodes(encoded):
    # corner pairs and one IoU pass over [pred, mid]: the node count does
    # not grow with the scenes or rows of a batch
    tcfg = TrainConfig(seed=11)
    for scenes in (mixed_batch(encoded), encoded[:4]):
        pairs = [p for p in (match_scene(item, tcfg) for item in scenes)
                 if p is not None]
        assert len(gk.Tape(stage1_loss(pairs, BoxRefiner(seed=3), tcfg)).nodes) <= 60


def test_each_scene_is_matched_once(encoded, monkeypatch):
    # with the config's weights, each in its place
    calls = []

    def counted(p, g, lambda_centre, lambda_size):
        calls.append((lambda_centre, lambda_size))
        return build_cost_matrix(p, g, lambda_centre, lambda_size)

    monkeypatch.setattr(train_module, "build_cost_matrix", counted)
    scenes = encoded[:12]
    with_instances = sum(1 for item in scenes if item.scene.instances)
    for epochs in (1, 3):
        calls.clear()
        train_stage1(scenes, TrainConfig(seed=11, stage1_epochs=epochs, lambda_centre=3.0,
                                         lambda_size=0.25))
        assert calls == [(3.0, 0.25)] * with_instances


def test_match_scene_slices_the_paired_rows(encoded):
    # proposals in reverse order, so that the matcher pairs proposal
    # rows and instance rows of different indices
    tcfg = TrainConfig(seed=11)
    item = max(encoded, key=lambda e: len(e.scene.instances))
    item = dataclasses.replace(item, boxes=item.boxes[::-1].copy())
    gts = centre_rows(normalized_boxes(item.scene))
    pairs = assign_optimal(build_cost_matrix(item.boxes, gts, tcfg.lambda_centre,
                                             tcfg.lambda_size))
    assert any(i != j for i, j in pairs)
    prop, gt = match_scene(item, tcfg)
    assert np.array_equal(prop, np.array([item.boxes[i] for i, _ in pairs]))
    assert np.array_equal(gt, np.array([gts[j] for _, j in pairs]))


def test_batches_without_pairs_are_skipped(encoded):
    # scenes without instances give no pairs: no batch steps, and every
    # epoch logs a zero loss
    empty = [item for item in encoded if not item.scene.instances]
    refiner, log = train_stage1(empty, TrainConfig(seed=11, stage1_epochs=2))
    for (name, t), (_, fresh) in zip(refiner.leaves(), BoxRefiner(seed=11).leaves()):
        assert np.array_equal(t.value, fresh.value), name
    assert [(row.loss_total, row.terms) for row in log] == [(0.0, {})] * 2


@pytest.mark.parametrize("scenes,epoch", [(4, 1), (8, 0)])
def test_divergence_rolls_back_to_last_good_epoch(encoded, monkeypatch, scenes, epoch):
    # lr 1e307: one Adam step lifts every weight to ~1e307 and the next
    # refine overflows. With 4 scenes (one batch) epoch 0 completes and
    # epoch 1 fails; with 8 the second batch of epoch 0 fails after the
    # first one has stepped.
    items = [item for item in encoded if item.scene.instances][:scenes]
    tcfg = TrainConfig(seed=5, stage1_epochs=3, lr_init=1e307)
    if epoch:
        last_good, _ = train_stage1(items, dataclasses.replace(tcfg, stage1_epochs=epoch))
    else:
        last_good = BoxRefiner(seed=tcfg.seed)
    made = []

    class Recorded(BoxRefiner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(train_module, "BoxRefiner", Recorded)
    with pytest.raises(TrainingDiverged, match=f"stage 1 diverged in epoch {epoch}:"):
        train_stage1(items, tcfg)
    (refiner,) = made
    for (name, t), (_, good) in zip(refiner.leaves(), last_good.leaves()):
        assert np.array_equal(t.value, good.value), name
