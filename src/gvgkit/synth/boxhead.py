"""Box refinement head and differentiable box regression losses.

The refinement head is the desk-scale stand-in for fine-tuning a
detector's last decoder layer: a small residual MLP mapping a proposal
box to a corrected box. Losses are composed from tape primitives so
training gradients flow through the head; closed-form gradients in the
test suite cross-check the same math. Each loss takes optional row
weights, so that one graph can carry the rows of several scenes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from gvgkit import gradkit as gk
from gvgkit.geometry import corners
from gvgkit.gradkit import Tensor
from gvgkit.hrs import check_variant

REFINER_FORMAT = "gvgkit-box-refiner"
REFINER_VERSION = 3
REFINER_HIDDEN = 16     # the width of the refiner's hidden layer


def _area(sides: Tensor) -> Tensor:
    """(M, 1) products of (M, 2) side lengths."""
    return gk.mul(gk.narrow(sides, 1, 0, 1), gk.narrow(sides, 1, 1, 1))


def _iou_terms(pred: Tensor, gt: np.ndarray):
    """Row-aligned intersection and union as (M, 1) tensors, with the
    (M, 2) low and high corners, (x1, y1) and (x2, y2), of both boxes
    for callers that need more."""
    centre = gk.narrow(pred, 1, 0, 2)
    half = gk.mul(gk.narrow(pred, 1, 2, 2), 0.5)
    lo, hi = gk.sub(centre, half), gk.add(centre, half)
    g = corners(np.asarray(gt, dtype=np.float64))
    area_g = np.prod(g[:, 2:] - g[:, :2], axis=1, keepdims=True)
    g_lo, g_hi = gk.constant(g[:, :2]), gk.constant(g[:, 2:])
    inter = _area(gk.relu(gk.sub(gk.minimum(hi, g_hi), gk.maximum(lo, g_lo))))
    union = gk.sub(gk.add(_area(gk.sub(hi, lo)), gk.constant(area_g)), inter)
    return inter, union, (lo, hi, g_lo, g_hi)


def _weighted_sum(per_row: Tensor, weights: np.ndarray | None) -> Tensor:
    """Sum of (M, 1) per-row losses times (M,) row weights; no weights
    means 1/M each, the mean."""
    if weights is None:
        weights = np.full(per_row.value.shape[0], 1.0 / per_row.value.shape[0])
    column = np.asarray(weights, dtype=np.float64).reshape(-1, 1)
    return gk.reduce_sum(gk.mul(per_row, gk.constant(column)))


def iou_loss_diff(pred: Tensor, gt: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Weighted (1 - IoU) over row-aligned (M, 4) centre-form boxes; the
    mean without ``weights``."""
    inter, union, _ = _iou_terms(pred, gt)
    return _weighted_sum(gk.sub(1.0, gk.div(inter, union)), weights)


def giou_loss_diff(pred: Tensor, gt: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Weighted (1 - GIoU); the original detector regression objective.
    Only this loss builds the enclosing box."""
    inter, union, (lo, hi, g_lo, g_hi) = _iou_terms(pred, gt)
    enclosing = _area(gk.sub(gk.maximum(hi, g_hi), gk.minimum(lo, g_lo)))
    giou = gk.sub(gk.div(inter, union),
                  gk.div(gk.sub(enclosing, union), enclosing))
    return _weighted_sum(gk.sub(1.0, giou), weights)


def interp_iou_loss_diff(pred: Tensor, gt: np.ndarray, alpha: float = 0.99,
                         weights: np.ndarray | None = None) -> Tensor:
    """Weighted interpolated-IoU loss: (1 - IoU(pred, gt)) plus the IoU
    deficit of the box interpolated toward the ground truth. Both boxes
    of a row go through one IoU pass: ``[pred, mid]`` against
    ``[gt, gt]`` with the row weights repeated."""
    gt = np.asarray(gt, dtype=np.float64)
    if weights is None:
        weights = np.full(len(gt), 1.0 / len(gt))
    # pred + alpha * (gt - pred), in centre form
    mid = gk.add(pred, gk.mul(gk.sub(gk.constant(gt), pred), alpha))
    return iou_loss_diff(gk.concat([pred, mid], axis=0), np.concatenate([gt, gt]),
                         np.concatenate([weights, weights]))


class BoxRefiner:
    """Residual MLP refining proposal boxes: centre shifts plus
    log-scale width/height corrections. Starts as the identity map.
    ``ablation`` names the variant it is trained as; of the variants
    only ``no-interp-iou`` changes the refiner, and the checkpoint
    records it."""

    def __init__(self, seed: int = 0, ablation: str = "full"):
        self.ablation = ablation
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(4)
        self.w1 = gk.tensor(rng.uniform(-bound, bound, size=(4, REFINER_HIDDEN)),
                            requires_grad=True)
        self.b1 = gk.tensor(np.zeros(REFINER_HIDDEN), requires_grad=True)
        # zero-initialised output layer keeps the initial map an identity
        self.w2 = gk.tensor(np.zeros((REFINER_HIDDEN, 4)), requires_grad=True)
        self.b2 = gk.tensor(np.zeros(4), requires_grad=True)

    def leaves(self) -> list[tuple[str, Tensor]]:
        return [("box.w1", self.w1), ("box.b1", self.b1),
                ("box.w2", self.w2), ("box.b2", self.b2)]

    def refine(self, boxes: np.ndarray) -> Tensor:
        """Map (M, 4) centre-form boxes to corrected boxes: the centre
        moves by delta times the size, and the size scales by exp(delta).
        A refined width or height that is not positive (a collapsed
        refiner) raises OverflowError."""
        boxes = np.asarray(boxes, dtype=np.float64)
        hidden = gk.relu(gk.add(gk.matmul(gk.constant(boxes), self.w1), self.b1))
        delta = gk.add(gk.matmul(hidden, self.w2), self.b2)
        size = gk.constant(boxes[:, 2:4])
        centre = gk.add(gk.constant(boxes[:, 0:2]), gk.mul(gk.narrow(delta, 1, 0, 2), size))
        scaled = gk.mul(size, gk.exp(gk.narrow(delta, 1, 2, 2)))
        if not np.all(scaled.value > 0.0):
            raise OverflowError("the refiner collapsed a box to a non-positive size")
        return gk.concat([centre, scaled], axis=1)

    def save(self, path: str | Path, seed: int | None = None) -> None:
        payload = {
            "format": REFINER_FORMAT,
            "version": REFINER_VERSION,
            "seed": seed,
            "ablation": self.ablation,
            "tensors": gk.dump_leaves(self.leaves()),
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> "BoxRefiner":
        payload = gk.read_checkpoint(path, REFINER_FORMAT, REFINER_VERSION, "refiner")
        source = f"box-refiner checkpoint {path}"
        refiner = cls(ablation=check_variant(payload.get("ablation"),
                                             f"the ablation of {source}"))
        gk.load_leaves(refiner.leaves(), payload["tensors"], source)
        return refiner
