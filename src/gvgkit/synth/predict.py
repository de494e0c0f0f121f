"""Inference: score every expression of a split and emit ranked,
refined proposals plus the per-image existence class.

Every expression of an image ranks the same boxes, so ``Predictions``
holds one box table per image: its refined proposals as pixel corners,
in proposal order. Each record carries ``ranking``, every row of its
image's table once, best first, and ``scores`` in the same order; no
record holds boxes of its own.

A predictions file (version 3) is JSON lines: a header, then one line
per expression. Every numeric array in it is the base64 of its
little-endian bytes, with the dtype in the key name (``gradkit.io``):
the header maps each image id to its table's row-major corners under
``boxes_xyxy_px_float64_le``, and each prediction line names its image
and carries ``ranking_int32_le`` and ``scores_float64_le``. So every
array reads back bit for bit, and no number is formatted or parsed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gvgkit import gradkit as gk
from gvgkit import hrs
from gvgkit.geometry import corners
from gvgkit.gradkit.io import check_unique, read_records, write_records
from gvgkit.hrs import LEVEL0_SENTENCES, HrsParams
from gvgkit.synth.boxhead import BoxRefiner
from gvgkit.synth.config import SynthConfig
from gvgkit.synth.encode import EmbeddingTable
from gvgkit.synth.scenes import SplitData
from gvgkit.synth.train import encode_split, text_encoder

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


def predict_split(split: SplitData, cfg: SynthConfig, params: HrsParams,
                  refiner: BoxRefiner, gate_level0: bool = True) -> Predictions:
    """Rank all proposals for every expression; boxes pass through the
    frozen refinement head into the image's box table, and each record
    ranks that table's rows. The scoring head runs as the variant that
    ``params.ablation`` records. Each scene of ``encode_split`` is
    scored in one ``hrs.score_scene`` pass, and its expression block is
    gated and ranked as one: one rowwise max, one stable rowwise argsort
    and one gather, so a record's ranking and scores are rows of the
    block's arrays. An image with no expressions gets its table and no
    record.

    With ``gate_level0`` the final score enforces the hierarchy at
    inference: the referent counts as present only when some proposal
    clears the calibrated existence bar (best referring score at or
    above zero, i.e. at least as likely target as not under the trained
    calibration). When none does, the referent is judged absent and
    proposals are re-ranked by the scene's backgroundness scores (its
    ``background`` row, the no-vegetation sentence's), so the prediction
    points at soil instead of at some other instance.
    ``gate_level0=False`` ranks by the raw referring score.
    """
    table = EmbeddingTable(cfg.seed)
    encode = text_encoder(table, cfg.max_tokens)   # expressions are templated
    frozen = params.frozen()

    records: list[PredictionRecord] = []
    tables: dict[str, np.ndarray] = {}
    for item in encode_split(split, cfg, table):
        scene, exprs = item.scene, item.expressions
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # a non-finite score or box is reported by the checks below
            scores = hrs.score_scene(item.features, [e.text for e in exprs], frozen, encode)
            refined = refiner.refine(item.boxes).value
        if not np.all(np.isfinite(scores.batch.value)):
            raise OverflowError(f"non-finite referring scores for image {scene.image_id}")
        if not np.all(np.isfinite(refined)):
            raise OverflowError(f"non-finite refined boxes for image {scene.image_id}")
        level0_class = int(np.argmax(scores.level0.value))
        tables[scene.image_id] = corners(refined) * np.array([scene.width, scene.height,
                                                              scene.width, scene.height])
        block = scores.expressions.value                                   # (E, N)
        if gate_level0:
            instance = np.array([expr.level == "instance" for expr in exprs], dtype=bool)
            absent = instance & (block.max(axis=1) < 0.0)
            block = np.where(absent[:, None], scores.background.value, block)
        order = np.argsort(-block, axis=1, kind="stable")
        ranked = np.take_along_axis(block, order, axis=1)
        for row, expr in enumerate(exprs):
            records.append(PredictionRecord(
                expression_id=expr.expression_id,
                image_id=scene.image_id,
                level0_class=level0_class,
                ranking=order[row],
                scores=ranked[row],
            ))
    return Predictions(records=records, tables=tables,
                       meta={"split": split.name, "vocab": list(LEVEL0_SENTENCES),
                             "gate_level0": gate_level0})


def write_predictions(preds: Predictions, path: str | Path, seed: int) -> None:
    """Write version 3: the box tables in the header, then one line per
    record."""
    header = {"format": PREDICTIONS_FORMAT, "version": PREDICTIONS_VERSION, "seed": seed,
              **preds.meta,
              BOXES_KEY: {image_id: gk.encode_array(table, "float64_le")
                          for image_id, table in preds.tables.items()}}
    write_records(path, header, ({
        "record": "prediction",
        "expression_id": rec.expression_id,
        "image_id": rec.image_id,
        "level0_class": rec.level0_class,
        RANKING_KEY: gk.encode_array(rec.ranking, "int32_le"),
        SCORES_KEY: gk.encode_array(rec.scores, "float64_le"),
    } for rec in preds.records))


def read_predictions(path: str | Path) -> Predictions:
    """Read a predictions file. A malformed line, a ranking that does not
    hold each box of its image's table exactly once, a level-0 class that
    is not a row of ``LEVEL0_SENTENCES``, or a second record for one
    expression, raises a one-line ``ValueError`` naming the file and the
    line number. The tables and scores read back are read-only."""
    records: list[PredictionRecord] = []
    tables: dict[str, np.ndarray] = {}
    first_line: dict[str, int] = {}     # expression id -> its record's line

    def box_tables(header: dict, _lineno: int) -> None:
        stored = header[BOXES_KEY]
        if not isinstance(stored, dict):
            raise ValueError(f"{BOXES_KEY} must map image ids to box tables")
        for image_id, text in stored.items():
            flat = gk.decode_array(text, "float64_le", f"the box table of image {image_id!r}")
            if flat.size % 4:
                raise ValueError(f"every box of image {image_id!r} needs 4 coordinates")
            tables[image_id] = flat.reshape(-1, 4)

    def prediction(record: dict, lineno: int) -> None:
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
        if (ranking.size != len(table)
                or np.count_nonzero(np.bincount(ranking, minlength=len(table))) != len(table)):
            raise ValueError(f"the ranking must hold each of the {len(table)} boxes "
                             f"of image {image_id!r} exactly once")
        level0_class = record["level0_class"]
        if type(level0_class) is not int or not 0 <= level0_class < len(LEVEL0_SENTENCES):
            raise ValueError(f"level0_class must be an int in [0, {len(LEVEL0_SENTENCES)}), "
                             f"not {level0_class!r}")
        check_unique(first_line, record["expression_id"], lineno, "expression")
        records.append(PredictionRecord(
            expression_id=record["expression_id"],
            image_id=image_id,
            level0_class=level0_class,
            ranking=ranking.astype(np.intp),
            scores=scores))

    meta = read_records(path, PREDICTIONS_FORMAT, PREDICTIONS_VERSION, "predictions",
                        "predict", {"header": box_tables, "prediction": prediction})
    del meta[BOXES_KEY]
    return Predictions(records=records, tables=tables, meta=meta)
