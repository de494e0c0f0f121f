"""Grounding metric suite with stratified reporting.

Retrieval and localisation metrics (Top-k, recall at IoU 0.5, mean IoU
of the top-ranked box) are computed over positive instance expressions;
negative accuracy measures abstention quality on manipulated
expressions: a prediction is correct when its top-ranked box has
generalized IoU of at most zero against every annotated instance in the
scene, so the model referred to background rather than to some other
object. Thresholds are inclusive (IoU >= 0.5 is a hit, GIoU <= 0 is a
correct rejection).

The suite runs in one pass. Predictions are joined to their scenes and
expressions once. Each image gets at most one pairwise box matrix of each
kind from ``gvgkit.geometry``, of its box table against its instances:
IoU for positives, and GIoU for negatives, kept as a per-row flag (GIoU
<= 0 with every instance). An instance expression's outcome (rank of the
first hit, targets covered, best IoU of the top box, correct rejection by
the top box) indexes them by its ranking. Every metric and every stratum
row reads a subset of that outcome table, so no row re-joins predictions
or recomputes a box.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from gvgkit.datagen import (
    DENSITY_LABELS,
    NEGATIVE_KINDS,
    SIZE_BINS,
    Expression,
    SceneAnnotation,
    density_label,
)
from gvgkit.geometry import giou, iou
from gvgkit.synth.predict import Predictions

# the GIoU <= 0 rule is inclusive; exactly-touching boxes may evaluate a
# few ulp off zero after coordinate conversions, so the boundary carries
# a tolerance far below any geometric signal
GIOU_BOUNDARY_TOL = 1e-12


@dataclass
class MetricRow:
    top1: float | None = None
    top5: float | None = None
    r_at_05: float | None = None
    miou: float | None = None
    neg_acc: float | None = None
    support: int = 0          # positive expressions
    target_support: int = 0   # ground-truth targets behind recall
    neg_support: int = 0      # negative expressions


@dataclass
class EvalReport:
    overall: MetricRow
    by_scale: dict[str, MetricRow]      # "tiny/crop", ..., "large/weed"
    by_density: dict[str, MetricRow]
    neg_acc_by_kind: dict[str, MetricRow]


@dataclass
class _Outcomes:
    """Per-expression outcomes of the positive and the negative instance
    expressions, in input order; every metric reads its column.

    Positives: ``first_hit`` is the rank of the first box reaching IoU >=
    0.5 with some target (inf if none), ``covered`` and ``targets`` count
    the targets some box covers at IoU >= 0.5 and all targets, and
    ``top_iou`` is the best IoU of the top-ranked box (0 without boxes).
    Negatives: ``rejects_top1`` says whether the top-ranked box keeps
    GIoU <= 0 against every scene instance; it holds in an empty scene,
    not without boxes.
    """

    positives: list[Expression]
    first_hit: np.ndarray
    covered: np.ndarray
    targets: np.ndarray
    top_iou: np.ndarray
    negatives: list[Expression]
    rejects_top1: np.ndarray

    def select(self, pos: np.ndarray, neg: np.ndarray) -> "_Outcomes":
        """The outcomes under boolean masks over positives and negatives."""
        return _Outcomes(
            [e for e, keep in zip(self.positives, pos) if keep], self.first_hit[pos],
            self.covered[pos], self.targets[pos], self.top_iou[pos],
            [e for e, keep in zip(self.negatives, neg) if keep],
            self.rejects_top1[neg])

    def topk(self, k: int) -> float:
        if not self.positives:
            return 0.0
        return 100.0 * int(np.count_nonzero(self.first_hit < k)) / len(self.positives)

    def recall_at_05(self) -> float:
        total = float(self.targets.sum())
        return 100.0 * float(self.covered.sum()) / total if total else 0.0

    def mean_iou(self) -> float:
        return 100.0 * float(np.mean(self.top_iou)) if self.positives else 0.0

    def neg_acc(self) -> float:
        if not self.negatives:
            return 0.0
        return 100.0 * int(np.count_nonzero(self.rejects_top1)) / len(self.negatives)


def _outcomes(predictions: Predictions, scenes: list[SceneAnnotation],
              expressions: list[Expression]) -> _Outcomes:
    """Join predictions to scenes and expressions once, then read each
    instance expression's outcome off its image's IoU matrix or GIoU
    flags, each computed at most once per image. Boxes are compared as
    fractions of the image size."""
    records = predictions.by_expression()
    scene_boxes: dict[str, tuple[SceneAnnotation, np.ndarray, list[int]]] = {
        scene.image_id: (scene, scene.corner_rows(), [i.instance_id for i in scene.instances])
        for scene in scenes}
    overlaps: dict[str, np.ndarray] = {}   # image id -> (M, G) IoU of its table
    clean: dict[str, np.ndarray] = {}      # image id -> (M,) GIoU <= 0 with all G

    positives, negatives, pos, neg = [], [], [], []
    for expr in expressions:
        record = records.get(expr.expression_id)
        if record is not None and record.image_id != expr.image_id:
            raise ValueError(f"the prediction for expression {expr.expression_id!r} is for "
                             f"image {record.image_id!r}, not its image {expr.image_id!r}")
        if expr.level != "instance":
            continue
        image_id = expr.image_id
        scene, gt, ids = scene_boxes[image_id]
        ranking = record.ranking if record is not None else ()
        if expr.polarity == "positive":
            positives.append(expr)
            wanted = set(expr.target_ids)
            columns = [k for k, instance_id in enumerate(ids) if instance_id in wanted]
            if len(ranking) == 0 or not columns:
                pos.append((np.inf, 0, len(columns), 0.0))
                continue
            if image_id not in overlaps:
                overlaps[image_id] = iou(scene.fractions(predictions.tables[image_id]), gt)
            overlap = overlaps[image_id][ranking][:, columns]
            hit = overlap >= 0.5
            hit_rows = np.flatnonzero(hit.any(axis=1))
            pos.append((hit_rows[0] if len(hit_rows) else np.inf,
                        np.count_nonzero(hit.any(axis=0)), len(columns),
                        overlap[0].max()))
        elif expr.polarity == "negative":
            negatives.append(expr)
            if len(gt) == 0:
                neg.append(True)
            elif len(ranking) == 0:
                neg.append(False)
            else:
                if image_id not in clean:
                    clean[image_id] = np.all(giou(scene.fractions(predictions.tables[image_id]), gt)
                                             <= GIOU_BOUNDARY_TOL, axis=1)
                neg.append(clean[image_id][ranking[0]])
    pos = np.array(pos, dtype=np.float64).reshape(-1, 4)
    return _Outcomes(positives, *pos.T, negatives, np.array(neg, dtype=bool))


def topk(predictions: Predictions, expressions: list[Expression],
         scenes: list[SceneAnnotation], k: int) -> float:
    """Share of positive expressions whose top-k boxes reach IoU >= 0.5
    with some target, in percent."""
    return _outcomes(predictions, scenes, expressions).topk(k)


def recall_at_05(predictions: Predictions, expressions: list[Expression],
                 scenes: list[SceneAnnotation]) -> float:
    """Share of all ground-truth targets covered at IoU >= 0.5 by any
    proposal of their expression, in percent."""
    return _outcomes(predictions, scenes, expressions).recall_at_05()


def mean_iou(predictions: Predictions, expressions: list[Expression],
             scenes: list[SceneAnnotation]) -> float:
    """Mean over positive expressions of the top-ranked box's best IoU
    against the expression's targets, in percent. An expression without
    proposals contributes zero."""
    return _outcomes(predictions, scenes, expressions).mean_iou()


def neg_acc(predictions: Predictions, expressions: list[Expression],
            scenes: list[SceneAnnotation]) -> float:
    """Share of negative expressions whose top-ranked box stays on
    background: maximum GIoU against every scene instance <= 0, in
    percent. Empty scenes count as correct."""
    return _outcomes(predictions, scenes, expressions).neg_acc()


def _metric_row(out: _Outcomes) -> MetricRow:
    row = MetricRow(support=len(out.positives), target_support=int(out.targets.sum()),
                    neg_support=len(out.negatives))
    if out.positives:
        row.top1 = out.topk(1)
        row.top5 = out.topk(5)
        row.r_at_05 = out.recall_at_05()
        row.miou = out.mean_iou()
    if out.negatives:
        row.neg_acc = out.neg_acc()
    return row


def stratify(predictions: Predictions, scenes: list[SceneAnnotation],
             expressions: list[Expression]) -> EvalReport:
    """Full report: overall row, scale x crop/weed and density strata
    over positive expressions, and negative accuracy per manipulation
    kind with its support-weighted average. One outcome table serves
    every row."""
    out = _outcomes(predictions, scenes, expressions)
    overall = _metric_row(out)
    no_pos = [False] * len(out.positives)
    no_neg = [False] * len(out.negatives)

    def row(pos_mask: list[bool], neg_mask: list[bool]) -> MetricRow:
        subset = out.select(np.array(pos_mask, dtype=bool), np.array(neg_mask, dtype=bool))
        return _metric_row(subset)

    by_scale = {}
    for size in SIZE_BINS:
        for group, is_weed in (("crop", False), ("weed", True)):
            by_scale[f"{size}/{group}"] = row(
                [e.attributes.size_bin == size and (e.attributes.category == "weed") == is_weed
                 for e in out.positives], no_neg)

    by_image = {s.image_id: density_label(len(s.instances)) for s in scenes}
    density = [by_image[e.image_id] for e in out.positives]
    by_density = {label: row([d == label for d in density], no_neg)
                  for label in DENSITY_LABELS}

    neg_by_kind = {}
    weighted_sum = 0.0
    weighted_support = 0
    for kind in NEGATIVE_KINDS:
        kind_row = row(no_pos, [e.negative_kind == kind for e in out.negatives])
        if kind_row.neg_support:
            weighted_sum += kind_row.neg_acc * kind_row.neg_support
            weighted_support += kind_row.neg_support
        neg_by_kind[kind] = kind_row
    average = MetricRow(neg_support=weighted_support)
    if weighted_support:
        average.neg_acc = weighted_sum / weighted_support
    neg_by_kind["weighted_average"] = average

    return EvalReport(overall=overall, by_scale=by_scale, by_density=by_density,
                      neg_acc_by_kind=neg_by_kind)


def _fmt(value: float | None) -> str:
    return "   -  " if value is None else f"{value:6.2f}"


def format_table(report: EvalReport) -> str:
    """Human-readable report mirroring the usual benchmark tables."""
    lines = []
    o = report.overall
    lines.append("Overall")
    lines.append("  Top-1   Top-5   R@0.5   mIoU    Neg-Acc")
    lines.append(f"  {_fmt(o.top1)}  {_fmt(o.top5)}  {_fmt(o.r_at_05)}"
                 f"  {_fmt(o.miou)}  {_fmt(o.neg_acc)}")
    lines.append(f"  positives={o.support} targets={o.target_support} "
                 f"negatives={o.neg_support}")
    lines.append("")
    lines.append("By instance scale (Top-1 | mIoU)")
    lines.append("            Crop             Weed")
    for size in SIZE_BINS:
        crop = report.by_scale[f"{size}/crop"]
        weed = report.by_scale[f"{size}/weed"]
        lines.append(f"  {size.capitalize():<7} {_fmt(crop.top1)} |{_fmt(crop.miou)}"
                     f"   {_fmt(weed.top1)} |{_fmt(weed.miou)}")
    lines.append("")
    lines.append("By scene density (R@0.5 | mIoU)")
    for label in DENSITY_LABELS:
        row = report.by_density[label]
        lines.append(f"  {label + ' Instances':<16} {_fmt(row.r_at_05)} |{_fmt(row.miou)}"
                     f"   (n={row.support})")
    lines.append("")
    lines.append("Negative accuracy by manipulation (top-1)")
    pretty = {"replace_category": "Replace Category", "swap_size": "Swap Size",
              "swap_position": "Swap Position", "weighted_average": "Weighted Average"}
    for kind in (*NEGATIVE_KINDS, "weighted_average"):
        row = report.neg_acc_by_kind[kind]
        lines.append(f"  {pretty[kind]:<18} {_fmt(row.neg_acc)}   (n={row.neg_support})")
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, path: str | Path, seed: int) -> None:
    payload = {"format": "gvgkit-report", "version": 2, "seed": seed}
    payload.update(asdict(report))
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
