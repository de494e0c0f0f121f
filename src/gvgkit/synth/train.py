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

import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from gvgkit import gradkit as gk
from gvgkit import hrs
from gvgkit.datagen import Expression, SceneAnnotation
from gvgkit.geometry import centre_rows
from gvgkit.hrs import HrsParams, Level0Vocabulary
from gvgkit.matching import MatchConfig, assign_optimal, build_cost_matrix
from gvgkit.synth.boxhead import BoxRefiner, giou_loss_diff, interp_iou_loss_diff
from gvgkit.synth.config import SynthConfig, TrainConfig
from gvgkit.synth.encode import EmbeddingTable, encode_proposals, encode_text
from gvgkit.synth.scenes import SplitData


# numpy floating-point conditions that stop training as divergence
_RAISE = {"over": "raise", "invalid": "raise", "divide": "raise"}
_DIVERGENCE = (OverflowError, FloatingPointError, ValueError)


class TrainingDiverged(RuntimeError):
    def __init__(self, message: str, checkpoint: dict | None = None):
        super().__init__(message)
        self.checkpoint = checkpoint


@dataclass
class EncodedScene:
    scene: SceneAnnotation
    proposals: hrs.ProposalFeatures
    source_ids: np.ndarray
    expressions: list[Expression]


@dataclass
class LogRow:
    epoch: int
    stage: int
    loss_total: float
    lr: float
    loss_lvl0: float = 0.0
    loss_lvl1c: float = 0.0
    loss_interp_iou: float = 0.0


@dataclass
class TrainResult:
    """The models of the stages that ran; a stage that did not run
    leaves its model None."""

    params: HrsParams | None
    refiner: BoxRefiner | None
    log: list[LogRow] = field(default_factory=list)


def encode_split(split: SplitData, cfg: SynthConfig,
                 table: EmbeddingTable) -> list[EncodedScene]:
    out = []
    for scene in split.scenes:
        proposals, source_ids = encode_proposals(scene, cfg, table)
        out.append(EncodedScene(scene=scene, proposals=proposals,
                                source_ids=source_ids,
                                expressions=split.expressions_for(scene.image_id)))
    return out


def vocabulary_texts(vocab: Level0Vocabulary, table: EmbeddingTable,
                     max_tokens: int) -> list[hrs.TextFeatures]:
    return [encode_text(sentence, table, max_tokens) for sentence in vocab.sentences]


def encode_texts(texts: list[str], table: EmbeddingTable, max_tokens: int,
                 cache: dict[str, hrs.TextFeatures]) -> list[hrs.TextFeatures]:
    """Each text's encoding; a text is encoded once per ``cache``."""
    for text in texts:
        if text not in cache:
            cache[text] = encode_text(text, table, max_tokens)
    return [cache[text] for text in texts]


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
    and may append floats to ``terms`` under ``LogRow`` field names;
    the epoch's row holds their means next to the mean batch loss."""
    opt = gk.Adam(trainable, lr=tcfg.lr_init)
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
                    opt.step(lr=lr)
                    totals.append(float(total.value))
        except _DIVERGENCE as err:
            for name, t in model.leaves():
                t.value = last_good[name]
            raise TrainingDiverged(f"stage {stage} diverged in epoch {epoch}: {err}",
                                   checkpoint=last_good) from err
        means = {name: float(np.mean(values)) for name, values in terms.items()}
        log.append(LogRow(epoch=epoch, stage=stage, lr=lr,
                          loss_total=float(np.mean(totals)) if totals else 0.0,
                          **means))
        last_good = {name: t.value.copy() for name, t in model.leaves()}
    return log


Pairs = tuple[np.ndarray, np.ndarray]


def match_scene(item: EncodedScene, match_cfg: MatchConfig) -> Pairs | None:
    """The proposal rows and ground-truth rows, both (M, 4) in centre
    form, that the matcher pairs in one scene; None without pairs. The
    cost matrix reads only the proposals and the ground truth, so one
    match serves every epoch."""
    gts = [inst.normalized_box(item.scene.width, item.scene.height)
           for inst in item.scene.instances]
    if not gts:
        return None
    cost = build_cost_matrix(item.proposals.boxes, gts, match_cfg)
    assignment = assign_optimal(cost)
    if not assignment.pairs:
        return None
    return (centre_rows([item.proposals.boxes[i] for i, _ in assignment.pairs]),
            centre_rows([gts[j] for _, j in assignment.pairs]))


def stage1_loss(pairs: list[Pairs], refiner: BoxRefiner, tcfg: TrainConfig):
    """The mean over scenes of each scene's mean box loss, as one graph:
    the matched rows of every scene go through one refine and one loss,
    a row of scene s weighted (1/S) * (1/M_s)."""
    share = 1.0 / len(pairs)
    weights = np.concatenate([np.full(len(prop), share * (1.0 / len(prop)))
                              for prop, _ in pairs])
    refined = refiner.refine(np.concatenate([prop for prop, _ in pairs]))
    gt = np.concatenate([gt for _, gt in pairs])
    if tcfg.ablation.no_interp_iou:
        return giou_loss_diff(refined, gt, weights)
    return interp_iou_loss_diff(refined, gt, alpha=tcfg.interp_alpha, weights=weights)


def train_stage1(encoded: list[EncodedScene], tcfg: TrainConfig) -> tuple[BoxRefiner, list[LogRow]]:
    refiner = BoxRefiner(seed=tcfg.seed, ablation=tcfg.ablation)
    match_cfg = MatchConfig(lambda_centre=tcfg.lambda_centre,
                            lambda_size=tcfg.lambda_size)
    matched = {id(item): match_scene(item, match_cfg) for item in encoded}

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
            if e.negative_kind == "none"]  # test-split manipulations never train
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


def _scene_losses(item: EncodedScene, params: HrsParams, vocab: Level0Vocabulary,
                  vocab_texts, table: EmbeddingTable, tcfg: TrainConfig,
                  rng: np.random.Generator, max_tokens: int,
                  encoded_texts: dict[str, hrs.TextFeatures]):
    """Per-scene objective: existence cross-entropy plus the constrained
    instance loss averaged over the sampled expressions. The existence
    floor applies per expression, then the type weights combine the two
    levels. One batched pass scores the vocabulary sentences and the
    sampled expressions together, and the k expression rows of its
    scores give k instance losses in one (k, N) pass. ``encoded_texts``
    caches each text's encoding across calls."""
    exprs = _pick_expressions(item, tcfg.expressions_per_scene, rng)
    texts = vocab_texts + encode_texts([e.text for e in exprs], table, max_tokens,
                                       encoded_texts)
    scores = hrs.score_expression(item.proposals, texts, params,
                                  tcfg.ablation).referring_scores
    l0 = hrs.loss_lvl0(hrs.level0_logits(scores, len(vocab_texts)),
                       vocab.true_class(item.scene.image_type))
    if not exprs:
        l1c = gk.constant(0.0)
    else:
        targets = np.stack([np.isin(item.source_ids,
                                    np.asarray(expr.target_ids, dtype=np.int64))
                            for expr in exprs])
        l1 = hrs.loss_lvl1(gk.narrow(scores, 0, len(vocab_texts), len(exprs)),
                           targets.astype(float))                           # (k,)
        if not tcfg.ablation.no_constraint:
            l1 = hrs.loss_constrained(l1, l0)
        l1c = gk.mean(l1)
    hmce = hrs.loss_hmce(l0, l1c, hrs.coarse_image_type(item.scene.image_type))
    return hmce, float(l0.value), float(l1c.value)


def train_stage2(encoded: list[EncodedScene], params: HrsParams,
                 vocab: Level0Vocabulary, table: EmbeddingTable,
                 tcfg: TrainConfig, max_tokens: int) -> list[LogRow]:
    """Train the scoring head with the refiner frozen. Texts are capped
    at ``max_tokens`` tokens, the cap prediction applies too. Each
    sampled text is encoded once per run."""
    vocab_texts = vocabulary_texts(vocab, table, max_tokens)
    encoded_texts: dict[str, hrs.TextFeatures] = {}

    def batch_loss(batch, rng, terms):
        pieces = []
        for item in batch:
            hmce, l0_val, l1c_val = _scene_losses(
                item, params, vocab, vocab_texts, table, tcfg, rng, max_tokens,
                encoded_texts)
            pieces.append(hmce)
            terms["loss_lvl0"].append(l0_val)
            terms["loss_lvl1c"].append(l1c_val)
        total = gk.mul(pieces[0], 1.0 / len(pieces))
        for extra in pieces[1:]:
            total = gk.add(total, gk.mul(extra, 1.0 / len(pieces)))
        return total

    return _run_stage(2, params, params.trainable(tcfg.ablation), encoded, tcfg,
                      tcfg.stage2_epochs, batch_loss)


def train_two_stage(train_split: SplitData, cfg: SynthConfig, tcfg: TrainConfig,
                    stages: tuple[int, ...] = (1, 2)) -> TrainResult:
    """Train the given stages. Stage 2 never reads the refiner, so it
    runs on its own as well as after stage 1. Image types missing from
    the training split are tolerated with a warning (batches simply
    cover fewer types); a split without scenes is an error."""
    if not train_split.scenes:
        raise ValueError("training split has no scenes")
    vocab = Level0Vocabulary()
    table = EmbeddingTable(cfg.seed)
    encoded = encode_split(train_split, cfg, table)
    present = {item.scene.image_type for item in encoded}
    missing = set(vocab.class_by_image_type) - present
    if missing:
        warnings.warn(f"training split lacks image types: {sorted(missing)}")

    result = TrainResult(params=None, refiner=None)
    if 1 in stages:
        result.refiner, log1 = train_stage1(encoded, tcfg)
        result.log.extend(log1)
    if 2 in stages:
        result.params = HrsParams(d_v=cfg.d_v, d_t=cfg.d_t, d=tcfg.d, heads=tcfg.heads,
                                  d_ff=tcfg.d_ff, d_hidden=tcfg.d_hidden,
                                  seed=tcfg.seed, ablation=tcfg.ablation)
        result.log.extend(train_stage2(encoded, result.params, vocab, table, tcfg,
                                       cfg.max_tokens))
    return result


def write_log(log: list[LogRow], path, seed: int) -> None:
    lines = [f"# seed={seed}",
             "epoch,stage,loss_total,loss_lvl0,loss_lvl1c,loss_interp_iou,lr"]
    for row in log:
        lines.append(f"{row.epoch},{row.stage},{row.loss_total:.8f},"
                     f"{row.loss_lvl0:.8f},{row.loss_lvl1c:.8f},"
                     f"{row.loss_interp_iou:.8f},{row.lr:.8e}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
