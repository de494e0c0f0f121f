"""Two-stage training: box refinement first, relevance scoring second.

Stage 1 fits the box refinement head under the interpolated-IoU loss
with distance/size-aware matching; stage 2 freezes it and trains the
scoring head under the hierarchical objective. Batches of four cover
the four image types whenever the split provides them. Every random
choice derives from the run seed, so a rerun reproduces the training
bit for bit.

Both stages run on one epoch loop, each supplying only its batch loss.
The loop raises numpy's overflow, invalid-value and divide-by-zero
conditions: a diverging run rolls back to its last good epoch and
raises ``TrainingDiverged`` instead of printing warnings or saving a
collapsed model.
"""

from __future__ import annotations

import functools
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from gvgkit import gradkit as gk
from gvgkit import hrs
from gvgkit.datagen import IMAGE_TYPES, Expression, SceneAnnotation
from gvgkit.hrs import LEVEL0_CLASS, HrsParams
from gvgkit.matching import assign_optimal, build_cost_matrix
from gvgkit.synth.boxhead import BoxRefiner, giou_loss_diff, interp_iou_loss_diff
from gvgkit.synth.config import FEATURE_DIMS, SynthConfig, TrainConfig
from gvgkit.synth.encode import EmbeddingTable, encode_proposals, encode_text
from gvgkit.synth.scenes import SplitData


# numpy floating-point conditions that stop training as divergence
_RAISE = {"over": "raise", "invalid": "raise", "divide": "raise"}
_DIVERGENCE = (OverflowError, FloatingPointError, ValueError)


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class EncodedScene:
    """A scene with its proposals as ``encode_proposals`` returns them:
    row i of ``features``, ``boxes`` and ``source_ids`` is proposal i."""

    scene: SceneAnnotation
    features: np.ndarray        # (N, d_v)
    boxes: np.ndarray           # (N, 4) centre form
    source_ids: np.ndarray      # (N,) source instance ids, -1 for background
    expressions: list[Expression]


# the loss terms a run records, in their log.csv column order
LOG_TERMS = ("loss_lvl0", "loss_lvl1c", "loss_interp_iou")


@dataclass
class LogRow:
    epoch: int
    stage: int
    loss_total: float
    lr: float
    terms: dict[str, float] = field(default_factory=dict)   # by LOG_TERMS name


@dataclass
class TrainResult:
    """The models of the stages that ran; a stage that did not run
    leaves its model None."""

    params: HrsParams | None
    refiner: BoxRefiner | None
    log: list[LogRow] = field(default_factory=list)


def encode_split(split: SplitData, cfg: SynthConfig,
                 table: EmbeddingTable) -> list[EncodedScene]:
    """One ``EncodedScene`` per scene of ``split``, in split order. One
    pass over ``split.expressions`` groups them by image, so each scene
    holds its expressions in split order, and a scene with none ``[]``."""
    grouped = defaultdict(list)
    for expr in split.expressions:
        grouped[expr.image_id].append(expr)
    return [EncodedScene(scene, *encode_proposals(scene, cfg, table),
                         expressions=grouped[scene.image_id])
            for scene in split.scenes]


def text_encoder(table: EmbeddingTable, max_tokens: int) -> Callable[[str], np.ndarray]:
    """``encode(text)``: ``encode_text``'s rows for ``text``, each text
    encoded once per encoder. ``encode_text`` is looked up by its module
    name at each call, so a wrapper bound to that name sees every one."""
    return functools.cache(lambda text: encode_text(text, table, max_tokens))


def _epoch_rng(seed: int, stage: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng([seed, stage, epoch])


def _batches(encoded: list[EncodedScene], batch_size: int,
             rng: np.random.Generator) -> list[list[EncodedScene]]:
    """Shuffle within each image type, then deal one scene per type per
    batch so every batch covers the available types."""
    by_type: dict[str, list[EncodedScene]] = {}
    for item in encoded:
        by_type.setdefault(item.scene.image_type, []).append(item)
    queues = []
    for image_type in sorted(by_type):
        group = by_type[image_type]
        order = rng.permutation(len(group))
        queues.append([group[i] for i in order])
    interleaved: list[EncodedScene] = []
    while any(queues):
        for queue in queues:
            if queue:
                interleaved.append(queue.pop())
    return [interleaved[i:i + batch_size]
            for i in range(0, len(interleaved), batch_size)]


def _run_stage(stage: int, model, trainable: list[gk.Tensor],
               encoded: list[EncodedScene], tcfg: TrainConfig, epochs: int,
               batch_loss: Callable[..., gk.Tensor | None]) -> list[LogRow]:
    """The epoch loop both stages share: cosine learning rate, one Adam
    step per batch, one log row per epoch. A divergence rolls every
    tensor of ``model.leaves()`` back to the last completed epoch.

    ``batch_loss(batch, rng, terms)`` returns the batch's loss, or None
    to skip the batch. It draws from the epoch's rng after ``_batches``
    and may append floats to ``terms`` under ``LOG_TERMS`` names; the
    epoch's row holds their means next to the mean batch loss."""
    opt = gk.Adam(trainable)
    log: list[LogRow] = []
    last_good = {name: t.value.copy() for name, t in model.leaves()}
    for epoch in range(epochs):
        lr = gk.cosine_lr(tcfg.lr_init, epoch, epochs)
        rng = _epoch_rng(tcfg.seed, stage, epoch)
        totals: list[float] = []
        terms: dict[str, list[float]] = defaultdict(list)
        try:
            with np.errstate(**_RAISE):
                for batch in _batches(encoded, tcfg.batch_size, rng):
                    total = batch_loss(batch, rng, terms)
                    if total is None:
                        continue
                    opt.zero_grad()
                    gk.backward(total)
                    opt.step(lr)
                    totals.append(float(total.value))
        except _DIVERGENCE as err:
            for name, t in model.leaves():
                t.value = last_good[name]
            raise TrainingDiverged(f"stage {stage} diverged in epoch {epoch}: {err}") from err
        means = {name: float(np.mean(values)) for name, values in terms.items()}
        log.append(LogRow(epoch=epoch, stage=stage, lr=lr,
                          loss_total=float(np.mean(totals)) if totals else 0.0, terms=means))
        last_good = {name: t.value.copy() for name, t in model.leaves()}
    return log


Pairs = tuple[np.ndarray, np.ndarray]


def match_scene(item: EncodedScene, tcfg: TrainConfig) -> Pairs | None:
    """The proposal rows and ground-truth rows, both (M, 4) in centre
    form, that the matcher pairs in one scene under ``tcfg``'s weights;
    None for a scene without instances. The cost matrix reads only the
    proposals and the ground truth, so one match serves every epoch."""
    if not item.scene.instances:
        return None
    gts = item.scene.normalized_rows()
    pairs = assign_optimal(build_cost_matrix(item.boxes, gts, tcfg.lambda_centre,
                                             tcfg.lambda_size))
    rows, cols = np.array(pairs).T
    return item.boxes[rows], gts[cols]


def stage1_loss(pairs: list[Pairs], refiner: BoxRefiner, tcfg: TrainConfig):
    """The mean over scenes of each scene's mean box loss, as one graph:
    the matched rows of every scene go through one refine and one loss,
    a row of scene s weighted (1/S) * (1/M_s). The loss is GIoU when the
    refiner is the no-interp-iou variant, else interpolated IoU."""
    share = 1.0 / len(pairs)
    weights = np.concatenate([np.full(len(prop), share * (1.0 / len(prop)))
                              for prop, _ in pairs])
    refined = refiner.refine(np.concatenate([prop for prop, _ in pairs]))
    gt = np.concatenate([gt for _, gt in pairs])
    if refiner.ablation == "no-interp-iou":
        return giou_loss_diff(refined, gt, weights)
    return interp_iou_loss_diff(refined, gt, alpha=tcfg.interp_alpha, weights=weights)


def train_stage1(encoded: list[EncodedScene], tcfg: TrainConfig) -> tuple[BoxRefiner, list[LogRow]]:
    refiner = BoxRefiner(seed=tcfg.seed, ablation=tcfg.ablation)
    matched = {id(item): match_scene(item, tcfg) for item in encoded}

    def batch_loss(batch, rng, terms):
        pairs = [matched[id(item)] for item in batch if matched[id(item)] is not None]
        if not pairs:
            return None
        total = stage1_loss(pairs, refiner, tcfg)
        terms["loss_interp_iou"].append(float(total.value))
        return total

    log = _run_stage(1, refiner, [t for _, t in refiner.leaves()], encoded, tcfg,
                     tcfg.stage1_epochs, batch_loss)
    return refiner, log


ABSENCE_SAMPLE_RATE = 0.45  # image-level absence sentence share per batch slot


def _pick_expressions(item: EncodedScene, count: int,
                      rng: np.random.Generator) -> list[Expression]:
    """Sample trainable expressions for this scene: positives and the
    image-level absence sentence, with the absence sentence drawn at a
    fixed rate so dense scenes still rehearse non-existence."""
    pool = [e for e in item.expressions
            if e.negative_kind == "none"]  # instance negatives never train
    if not pool:
        return []
    absence = [e for e in pool if e.level == "image"]
    positives = [e for e in pool if e.level == "instance"]
    picked = []
    for _ in range(count):
        if absence and positives:
            if rng.random() < ABSENCE_SAMPLE_RATE:
                picked.append(absence[int(rng.integers(len(absence)))])
            else:
                picked.append(positives[int(rng.integers(len(positives)))])
        else:
            picked.append(pool[int(rng.integers(len(pool)))])
    return picked


def _scene_losses(item: EncodedScene, params: HrsParams, tcfg: TrainConfig,
                  rng: np.random.Generator, encode: Callable[[str], np.ndarray]):
    """Per-scene objective and its terms by ``LOG_TERMS`` name: existence
    cross-entropy plus the constrained instance loss averaged over the
    sampled expressions. The existence floor applies per expression,
    then the type weights combine the two levels; the no-constraint
    variant of ``params`` drops the floor. One ``hrs.score_scene`` pass
    reads every text through ``encode``, and its (k, N) expression block
    gives k instance losses at once."""
    image_type = item.scene.image_type
    exprs = _pick_expressions(item, tcfg.expressions_per_scene, rng)
    scores = hrs.score_scene(item.features, [e.text for e in exprs], params, encode)
    l0 = hrs.loss_lvl0(scores.level0, LEVEL0_CLASS[image_type])
    if not exprs:
        l1c = gk.constant(0.0)
    else:
        # 1 where proposal n shows a target of expression r: every
        # (expression, target id) pair against every proposal at once
        rows = [r for r, expr in enumerate(exprs) for _ in expr.target_ids]
        ids = [i for expr in exprs for i in expr.target_ids]
        pair, proposal = (np.array(ids, dtype=np.int64)[:, None] == item.source_ids).nonzero()
        targets = np.zeros((len(exprs), len(item.source_ids)))
        targets[np.array(rows, dtype=np.intp)[pair], proposal] = 1.0
        l1 = hrs.loss_lvl1(scores.expressions, targets)                     # (k,)
        if params.ablation != "no-constraint":
            l1 = hrs.loss_constrained(l1, l0)
        l1c = gk.mean(l1)
    return hrs.loss_hmce(l0, l1c, image_type), {"loss_lvl0": l0, "loss_lvl1c": l1c}


def train_stage2(encoded: list[EncodedScene], params: HrsParams, tcfg: TrainConfig,
                 encode: Callable[[str], np.ndarray]) -> list[LogRow]:
    """Train the scoring head with the refiner frozen, reading every
    text through ``encode``, whose token cap prediction applies too."""

    def batch_loss(batch, rng, terms):
        pieces = []
        for item in batch:
            objective, scene_terms = _scene_losses(item, params, tcfg, rng, encode)
            pieces.append(objective)
            for name, term in scene_terms.items():
                terms[name].append(float(term.value))
        total = gk.mul(pieces[0], 1.0 / len(pieces))
        for extra in pieces[1:]:
            total = gk.add(total, gk.mul(extra, 1.0 / len(pieces)))
        return total

    return _run_stage(2, params, params.trainable(), encoded, tcfg,
                      tcfg.stage2_epochs, batch_loss)


def train_two_stage(train_split: SplitData, cfg: SynthConfig, tcfg: TrainConfig,
                    stages: tuple[int, ...] = (1, 2)) -> TrainResult:
    """Train the given stages. Stage 2 never reads the refiner, so it
    runs on its own as well as after stage 1. Image types missing from
    the training split are tolerated with a warning (batches simply
    cover fewer types); a split without scenes is an error."""
    if not train_split.scenes:
        raise ValueError("training split has no scenes")
    table = EmbeddingTable(cfg.seed)
    encoded = encode_split(train_split, cfg, table)
    present = {item.scene.image_type for item in encoded}
    missing = set(IMAGE_TYPES) - present
    if missing:
        warnings.warn(f"training split lacks image types: {sorted(missing)}")

    result = TrainResult(params=None, refiner=None)
    if 1 in stages:
        result.refiner, log1 = train_stage1(encoded, tcfg)
        result.log.extend(log1)
    if 2 in stages:
        result.params = HrsParams(d_v=FEATURE_DIMS, d_t=FEATURE_DIMS, d=tcfg.d,
                                  heads=tcfg.heads, d_ff=tcfg.d_ff, d_hidden=tcfg.d_hidden,
                                  seed=tcfg.seed, ablation=tcfg.ablation)
        result.log.extend(train_stage2(encoded, result.params, tcfg,
                                       text_encoder(table, cfg.max_tokens)))
    return result


def write_log(log: list[LogRow], path, seed: int) -> None:
    """One row per epoch; a term the row's stage does not record is 0."""
    lines = [f"# seed={seed}", ",".join(("epoch", "stage", "loss_total", *LOG_TERMS, "lr"))]
    for row in log:
        terms = "".join(f"{row.terms.get(name, 0.0):.8f}," for name in LOG_TERMS)
        lines.append(f"{row.epoch},{row.stage},{row.loss_total:.8f},{terms}{row.lr:.8e}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
