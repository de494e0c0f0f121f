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
from gvgkit.gradkit import Tensor

REFINER_FORMAT = "gvgkit-box-refiner"
REFINER_VERSION = 1


def _corners(boxes: Tensor | np.ndarray):
    """Split (M, 4) centre-form boxes into corner columns."""
    if isinstance(boxes, Tensor):
        cx = gk.narrow(boxes, 1, 0, 1)
        cy = gk.narrow(boxes, 1, 1, 1)
        w = gk.narrow(boxes, 1, 2, 1)
        h = gk.narrow(boxes, 1, 3, 1)
        half_w = gk.mul(w, 0.5)
        half_h = gk.mul(h, 0.5)
        return (gk.sub(cx, half_w), gk.sub(cy, half_h),
                gk.add(cx, half_w), gk.add(cy, half_h))
    cx, cy, w, h = boxes[:, 0:1], boxes[:, 1:2], boxes[:, 2:3], boxes[:, 3:4]
    return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def _pairwise_iou_terms(pred: Tensor, gt: np.ndarray):
    """Row-aligned intersection, union and enclosing area as tensors."""
    px1, py1, px2, py2 = _corners(pred)
    gx1, gy1, gx2, gy2 = _corners(np.asarray(gt, dtype=np.float64))
    iw = gk.relu(gk.sub(gk.minimum(px2, gk.constant(gx2)), gk.maximum(px1, gk.constant(gx1))))
    ih = gk.relu(gk.sub(gk.minimum(py2, gk.constant(gy2)), gk.maximum(py1, gk.constant(gy1))))
    inter = gk.mul(iw, ih)
    area_p = gk.mul(gk.sub(px2, px1), gk.sub(py2, py1))
    area_g = (gx2 - gx1) * (gy2 - gy1)
    union = gk.sub(gk.add(area_p, gk.constant(area_g)), inter)
    ew = gk.sub(gk.maximum(px2, gk.constant(gx2)), gk.minimum(px1, gk.constant(gx1)))
    eh = gk.sub(gk.maximum(py2, gk.constant(gy2)), gk.minimum(py1, gk.constant(gy1)))
    enclosing = gk.mul(ew, eh)
    return inter, union, enclosing


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
    inter, union, _ = _pairwise_iou_terms(pred, gt)
    return _weighted_sum(gk.sub(1.0, gk.div(inter, union)), weights)


def giou_loss_diff(pred: Tensor, gt: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Weighted (1 - GIoU); the original detector regression objective."""
    inter, union, enclosing = _pairwise_iou_terms(pred, gt)
    giou = gk.sub(gk.div(inter, union),
                  gk.div(gk.sub(enclosing, union), enclosing))
    return _weighted_sum(gk.sub(1.0, giou), weights)


def interp_iou_loss_diff(pred: Tensor, gt: np.ndarray, alpha: float = 0.99,
                         weights: np.ndarray | None = None) -> Tensor:
    """Weighted interpolated-IoU loss: (1 - IoU(pred, gt)) plus the IoU
    deficit of the box interpolated toward the ground truth."""
    gt = np.asarray(gt, dtype=np.float64)
    direct = iou_loss_diff(pred, gt, weights)
    # pred + alpha * (gt - pred), in centre form
    mid = gk.add(pred, gk.mul(gk.sub(gk.constant(gt), pred), alpha))
    auxiliary = iou_loss_diff(mid, gt, weights)
    return gk.add(direct, auxiliary)


class BoxRefiner:
    """Residual MLP refining proposal boxes: centre shifts plus
    log-scale width/height corrections. Starts as the identity map."""

    def __init__(self, hidden: int = 16, seed: int = 0):
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(4)
        self.w1 = gk.tensor(rng.uniform(-bound, bound, size=(4, hidden)), requires_grad=True)
        self.b1 = gk.tensor(np.zeros(hidden), requires_grad=True)
        # zero-initialised output layer keeps the initial map an identity
        self.w2 = gk.tensor(np.zeros((hidden, 4)), requires_grad=True)
        self.b2 = gk.tensor(np.zeros(4), requires_grad=True)

    def leaves(self) -> list[tuple[str, Tensor]]:
        return [("box.w1", self.w1), ("box.b1", self.b1),
                ("box.w2", self.w2), ("box.b2", self.b2)]

    def refine(self, boxes: np.ndarray) -> Tensor:
        """Map (M, 4) centre-form boxes to corrected boxes."""
        x = gk.constant(np.asarray(boxes, dtype=np.float64))
        hidden = gk.relu(gk.add(gk.matmul(x, self.w1), self.b1))
        delta = gk.add(gk.matmul(hidden, self.w2), self.b2)
        w = np.asarray(boxes, dtype=np.float64)[:, 2:3]
        h = np.asarray(boxes, dtype=np.float64)[:, 3:4]
        dcx = gk.mul(gk.narrow(delta, 1, 0, 1), gk.constant(w))
        dcy = gk.mul(gk.narrow(delta, 1, 1, 1), gk.constant(h))
        new_cx = gk.add(gk.narrow(gk.constant(boxes), 1, 0, 1), dcx)
        new_cy = gk.add(gk.narrow(gk.constant(boxes), 1, 1, 1), dcy)
        new_w = gk.mul(gk.constant(w), gk.exp(gk.narrow(delta, 1, 2, 1)))
        new_h = gk.mul(gk.constant(h), gk.exp(gk.narrow(delta, 1, 3, 1)))
        return gk.concat([new_cx, new_cy, new_w, new_h], axis=1)

    def refine_numpy(self, boxes: np.ndarray) -> np.ndarray:
        """Gradient-free refinement for prediction time."""
        return self.refine(boxes).value

    def save(self, path: str | Path, seed: int | None = None) -> None:
        payload = {
            "format": REFINER_FORMAT,
            "version": REFINER_VERSION,
            "seed": seed,
            "tensors": gk.dump_leaves(self.leaves()),
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> "BoxRefiner":
        payload = json.loads(Path(path).read_text())
        if payload.get("format") != REFINER_FORMAT:
            raise ValueError(f"not a box-refiner checkpoint: {path}")
        if payload.get("version") != REFINER_VERSION:
            raise ValueError(f"unsupported refiner version {payload.get('version')}")
        try:
            hidden = len(payload["tensors"]["box.b1"]["data"])
        except (KeyError, TypeError):
            raise ValueError(f"box-refiner checkpoint {path} lacks tensor 'box.b1'") from None
        refiner = cls(hidden=hidden)
        gk.load_leaves(refiner.leaves(), payload["tensors"], f"box-refiner checkpoint {path}")
        return refiner
