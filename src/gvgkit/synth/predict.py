"""Inference: score every expression of a split and emit ranked,
refined proposals plus the per-image existence class.

Every expression of an image ranks the same boxes, so ``Predictions``
holds one box table per image: its refined proposals as pixel corners,
in proposal order. Each record carries ``ranking``, indices into its
image's table, best first, and ``scores`` in the same order; no record
holds boxes of its own.

A predictions file (version 3) is JSON lines: a header, then one line
per expression. Every numeric array in it is the base64 of its
little-endian bytes, with the dtype in the key name (``gradkit.io``):
the header maps each image id to its table's row-major corners under
``boxes_xyxy_px_float64_le``, and each prediction line names its image
and carries ``ranking_int32_le`` and ``scores_float64_le``. So every
array reads back bit for bit, and no number is formatted or parsed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gvgkit import gradkit as gk
from gvgkit import hrs
from gvgkit.geometry import centre_rows, corners
from gvgkit.hrs import HrsParams, Level0Vocabulary
from gvgkit.synth.boxhead import BoxRefiner
from gvgkit.synth.config import SynthConfig, TrainConfig
from gvgkit.synth.encode import EmbeddingTable, encode_proposals
from gvgkit.synth.scenes import SplitData
from gvgkit.synth.train import encode_texts, vocabulary_texts

PREDICTIONS_FORMAT = "gvgkit-predictions"
PREDICTIONS_VERSION = 3
# the stored arrays, each named with its dtype
BOXES_KEY = "boxes_xyxy_px_float64_le"
RANKING_KEY = "ranking_int32_le"
SCORES_KEY = "scores_float64_le"


@dataclass
class PredictionRecord:
    expression_id: str
    image_id: str
    level0_class: int
    ranking: np.ndarray         # (N,) rows of the image's box table, best first
    scores: np.ndarray          # (N,) score-descending


@dataclass
class Predictions:
    records: list[PredictionRecord] = field(default_factory=list)
    tables: dict[str, np.ndarray] = field(default_factory=dict)   # (M, 4) px corners by image
    meta: dict = field(default_factory=dict)

    def by_expression(self) -> dict[str, PredictionRecord]:
        return {r.expression_id: r for r in self.records}


def predict_split(split: SplitData, cfg: SynthConfig, tcfg: TrainConfig,
                  params: HrsParams, refiner: BoxRefiner,
                  vocab: Level0Vocabulary | None = None,
                  gate_level0: bool = True) -> Predictions:
    """Rank all proposals for every expression; boxes pass through the
    frozen refinement head into the image's box table, and each record
    ranks that table's rows. One batched pass per image scores the fixed
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
    tables: dict[str, np.ndarray] = {}
    encoded: dict[str, hrs.TextFeatures] = {}   # expressions are templated
    for scene in split.scenes:
        proposals, _ = encode_proposals(scene, cfg, table)
        exprs = split.expressions_for(scene.image_id)
        texts = vocab_texts + encode_texts([e.text for e in exprs], table,
                                           cfg.max_tokens, encoded)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # a non-finite score or box is reported by the checks below
            scores = hrs.score_expression(proposals, texts, frozen,
                                          tcfg.ablation).referring_scores
            refined = refiner.refine_numpy(centre_rows(proposals.boxes))
        if not np.all(np.isfinite(scores.value)):
            raise OverflowError(f"non-finite referring scores for image {scene.image_id}")
        if not np.all(np.isfinite(refined)):
            raise OverflowError(f"non-finite refined boxes for image {scene.image_id}")
        level0_class = int(np.argmax(hrs.level0_logits(scores, len(vocab_texts)).value))
        tables[scene.image_id] = corners(refined) * np.array([scene.width, scene.height,
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
                ranking=order,
                scores=expr_scores[order],
            ))
    return Predictions(records=records, tables=tables,
                       meta={"split": split.name, "vocab": list(vocab.sentences),
                             "gate_level0": gate_level0})


def write_predictions(preds: Predictions, path: str | Path, seed: int) -> None:
    """Write version 3: the box tables in the header, then one line per
    record."""
    header = {"record": "header", "format": PREDICTIONS_FORMAT,
              "version": PREDICTIONS_VERSION, "seed": seed}
    header.update(preds.meta)
    header[BOXES_KEY] = {image_id: gk.encode_array(table, "float64_le")
                         for image_id, table in preds.tables.items()}
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for rec in preds.records:
        lines.append(json.dumps({
            "record": "prediction",
            "expression_id": rec.expression_id,
            "image_id": rec.image_id,
            "level0_class": rec.level0_class,
            RANKING_KEY: gk.encode_array(rec.ranking, "int32_le"),
            SCORES_KEY: gk.encode_array(rec.scores, "float64_le"),
        }, sort_keys=True, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + "\n")


def read_predictions(path: str | Path) -> Predictions:
    """Read a predictions file. A malformed line, or a second record for
    one expression, raises a one-line ``ValueError`` naming the file and
    the line number. The tables and scores read back are read-only."""
    records = []
    meta = {}
    tables: dict[str, np.ndarray] = {}
    first_line: dict[str, int] = {}     # expression id -> its record's line
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if lineno == 1:
                    meta, tables = _header(record)
                else:
                    rec = _prediction_record(record, tables)
                    first = first_line.setdefault(rec.expression_id, lineno)
                    if first != lineno:
                        raise ValueError(f"a second record for expression "
                                         f"{rec.expression_id!r} (the first is on line {first})")
                    records.append(rec)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}, line {lineno}: not JSON ({err.msg})") from None
            except KeyError as err:
                raise ValueError(f"{path}, line {lineno}: missing key {err}") from None
            except (TypeError, ValueError) as err:
                raise ValueError(f"{path}, line {lineno}: {err}") from None
    return Predictions(records=records, tables=tables, meta=meta)


def _header(header: dict) -> tuple[dict, dict[str, np.ndarray]]:
    if not isinstance(header, dict) or header.get("format") != PREDICTIONS_FORMAT:
        raise ValueError("not a predictions file")
    if header.get("version") != PREDICTIONS_VERSION:
        raise ValueError(f"unsupported predictions version {header.get('version')}; "
                         "re-run `gvgkit predict`")
    stored = header[BOXES_KEY]
    if not isinstance(stored, dict):
        raise ValueError(f"{BOXES_KEY} must map image ids to box tables")
    tables = {}
    for image_id, text in stored.items():
        flat = gk.decode_array(text, "float64_le", f"the box table of image {image_id!r}")
        if flat.size % 4:
            raise ValueError(f"every box of image {image_id!r} needs 4 coordinates")
        tables[image_id] = flat.reshape(-1, 4)
    meta = {k: v for k, v in header.items() if k not in ("record", BOXES_KEY)}
    return meta, tables


def _prediction_record(record: dict, tables: dict[str, np.ndarray]) -> PredictionRecord:
    image_id = record["image_id"]
    if image_id not in tables:
        raise ValueError(f"image {image_id!r} has no box table in the header")
    table = tables[image_id]
    ranking = gk.decode_array(record[RANKING_KEY], "int32_le", RANKING_KEY)
    scores = gk.decode_array(record[SCORES_KEY], "float64_le", SCORES_KEY)
    if ranking.size != scores.size:
        raise ValueError("ranking and scores need one entry per box")
    if ranking.size and (ranking.min() < 0 or ranking.max() >= len(table)):
        raise ValueError(f"ranking index out of range "
                         f"(image {image_id!r} has {len(table)} boxes)")
    return PredictionRecord(
        expression_id=record["expression_id"],
        image_id=image_id,
        level0_class=record["level0_class"],
        ranking=ranking.astype(np.intp),
        scores=scores)
