"""Inference: score every expression of a split and emit ranked,
refined proposals plus the per-image existence class."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gvgkit import hrs
from gvgkit.geometry import centre_rows, corners
from gvgkit.hrs import HrsParams, Level0Vocabulary
from gvgkit.synth.boxhead import BoxRefiner
from gvgkit.synth.config import SynthConfig, TrainConfig
from gvgkit.synth.encode import EmbeddingTable, encode_proposals, encode_text
from gvgkit.synth.scenes import SplitData
from gvgkit.synth.train import vocabulary_texts

PREDICTIONS_FORMAT = "gvgkit-predictions"
PREDICTIONS_VERSION = 1


@dataclass
class PredictionRecord:
    expression_id: str
    image_id: str
    level0_class: int
    boxes_px: np.ndarray        # (N, 4) corners, score-descending
    scores: np.ndarray          # (N,)


@dataclass
class Predictions:
    records: list[PredictionRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def by_expression(self) -> dict[str, PredictionRecord]:
        return {r.expression_id: r for r in self.records}


def predict_split(split: SplitData, cfg: SynthConfig, tcfg: TrainConfig,
                  params: HrsParams, refiner: BoxRefiner,
                  vocab: Level0Vocabulary | None = None,
                  gate_level0: bool = True) -> Predictions:
    """Rank all proposals for every expression; boxes pass through the
    frozen refinement head. One batched pass per image scores the fixed
    vocabulary and every expression of the image; the level-0 argmax
    comes from the vocabulary rows.

    With ``gate_level0`` the final score enforces the hierarchy at
    inference: the referent counts as present only when some proposal
    clears the calibrated existence bar (best referring score above
    zero, i.e. more likely target than not under the trained
    calibration). When none does, the referent is judged absent and
    proposals are re-ranked by the scene's backgroundness scores (their
    relevance to the no-vegetation sentence, the vocabulary row of empty
    images), so the prediction points at soil instead of at some other
    instance. ``gate_level0=False`` ranks by the raw referring score.
    """
    vocab = vocab or Level0Vocabulary()
    table = EmbeddingTable(cfg.seed)
    vocab_texts = vocabulary_texts(vocab, table, cfg.max_tokens)
    background_class = vocab.class_by_image_type["empty"]
    frozen = params.frozen()

    records: list[PredictionRecord] = []
    for scene in split.scenes:
        proposals, _ = encode_proposals(scene, cfg, table)
        exprs = split.expressions_for(scene.image_id)
        texts = vocab_texts + [encode_text(e.text, table, cfg.max_tokens) for e in exprs]
        scores = hrs.score_expression(proposals, texts, frozen,
                                      tcfg.ablation).referring_scores
        logits, _ = hrs.level0_distribution(scores, len(vocab_texts))
        level0_class = int(np.argmax(logits.value))
        refined = refiner.refine_numpy(centre_rows(proposals.boxes))
        corners_px = corners(refined) * np.array([scene.width, scene.height,
                                                  scene.width, scene.height])
        background_scores = scores.value[background_class]
        for row, expr in enumerate(exprs, start=len(vocab_texts)):
            expr_scores = scores.value[row]
            if gate_level0 and expr.level == "instance":
                referent_present = float(np.max(expr_scores)) >= 0.0
                if not referent_present:
                    expr_scores = background_scores
            order = np.argsort(-expr_scores, kind="stable")
            records.append(PredictionRecord(
                expression_id=expr.expression_id,
                image_id=scene.image_id,
                level0_class=level0_class,
                boxes_px=corners_px[order],
                scores=expr_scores[order],
            ))
    return Predictions(records=records,
                       meta={"split": split.name, "vocab": list(vocab.sentences),
                             "gate_level0": gate_level0})


def write_predictions(preds: Predictions, path: str | Path, seed: int) -> None:
    header = {"record": "header", "format": PREDICTIONS_FORMAT,
              "version": PREDICTIONS_VERSION, "seed": seed}
    header.update(preds.meta)
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for rec in preds.records:
        lines.append(json.dumps({
            "record": "prediction",
            "expression_id": rec.expression_id,
            "image_id": rec.image_id,
            "level0_class": rec.level0_class,
            "proposals": [
                {"bbox_xyxy_px": [float(v) for v in box], "score": float(score)}
                for box, score in zip(rec.boxes_px, rec.scores)
            ],
        }, sort_keys=True, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + "\n")


def read_predictions(path: str | Path) -> Predictions:
    """Read a predictions file. A malformed line raises a one-line
    ``ValueError`` naming the file and the line number."""
    records = []
    meta = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if lineno == 1:
                    meta = _header_meta(record)
                else:
                    records.append(_prediction_record(record))
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}, line {lineno}: not JSON ({err.msg})") from None
            except KeyError as err:
                raise ValueError(f"{path}, line {lineno}: missing key {err}") from None
            except (TypeError, ValueError) as err:
                raise ValueError(f"{path}, line {lineno}: {err}") from None
    return Predictions(records=records, meta=meta)


def _header_meta(header: dict) -> dict:
    if not isinstance(header, dict) or header.get("format") != PREDICTIONS_FORMAT:
        raise ValueError("not a predictions file")
    if header.get("version") != PREDICTIONS_VERSION:
        raise ValueError(f"unsupported predictions version {header.get('version')}")
    return {k: v for k, v in header.items() if k != "record"}


def _prediction_record(record: dict) -> PredictionRecord:
    proposals = record["proposals"]
    coords = [p["bbox_xyxy_px"] for p in proposals]
    if set(map(len, coords)) - {4}:
        raise ValueError("every bbox_xyxy_px needs 4 coordinates")
    return PredictionRecord(
        expression_id=record["expression_id"],
        image_id=record["image_id"],
        level0_class=record["level0_class"],
        boxes_px=np.array(coords, dtype=np.float64).reshape(-1, 4),
        scores=np.array([p["score"] for p in proposals], dtype=np.float64))
