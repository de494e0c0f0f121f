"""Closed-form scalar oracles for the box core and the box regression loss.

``BBox`` holds one box in centre form, with the side check and the
corner-order check; its two conversions are the scalar reference for
``gvgkit.geometry.corners`` and ``centres``, which work on (N, 4) rows.

The interpolated-IoU loss augments the plain ``1 - IoU`` objective with a
second IoU term computed against a box linearly interpolated between the
prediction and the ground truth. The auxiliary term keeps the gradient
non-zero even when the prediction does not overlap the target, which the
plain IoU loss cannot do.

Here the loss and its exact gradient are written by hand for one box
pair; the tape-built loss in ``gvgkit.synth.boxhead`` must agree with
them. Used only to cross-check the package.
"""

from dataclasses import dataclass

from reference_metrics import ref_iou


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in centre form."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box sides must be non-negative, got w={self.w}, h={self.h}")

    @staticmethod
    def from_corners(x1: float, y1: float, x2: float, y2: float) -> "BBox":
        if x2 < x1 or y2 < y1:
            raise ValueError(f"corners out of order: ({x1}, {y1}, {x2}, {y2})")
        return BBox((x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1)

    def to_corners(self) -> tuple[float, float, float, float]:
        hw, hh = self.w / 2.0, self.h / 2.0
        return (self.cx - hw, self.cy - hh, self.cx + hw, self.cy + hh)


def _iou(a: BBox, b: BBox) -> float:
    return ref_iou(a.to_corners(), b.to_corners())


@dataclass(frozen=True)
class InterpConfig:
    """Interpolation factor for the auxiliary IoU term.

    ``alpha`` close to 1 places the intermediate box next to the ground
    truth, which keeps the auxiliary IoU informative under extreme scale
    differences.
    """

    alpha: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")


def interp_box(pred: BBox, gt: BBox, alpha: float) -> BBox:
    """Box interpolated componentwise as (1 - alpha) * pred + alpha * gt.

    Interpolation is linear, so doing it in centre form or corner form
    gives the same box.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    # pred + alpha * (gt - pred): keeps pred == gt an exact fixed point.
    return BBox(
        pred.cx + alpha * (gt.cx - pred.cx),
        pred.cy + alpha * (gt.cy - pred.cy),
        pred.w + alpha * (gt.w - pred.w),
        pred.h + alpha * (gt.h - pred.h),
    )


def loss_interp_iou(pred: BBox, gt: BBox, cfg: InterpConfig = InterpConfig()) -> float:
    """(1 - IoU(pred, gt)) + (1 - IoU(interpolated box, gt)), >= 0."""
    mid = interp_box(pred, gt, cfg.alpha)
    return (1.0 - _iou(pred, gt)) + (1.0 - _iou(mid, gt))


def _iou_grad_corners(p: tuple[float, float, float, float],
                      g: tuple[float, float, float, float]) -> tuple[float, list[float]]:
    """IoU and its derivative with respect to the first box's corners.

    At configurations where an intersection edge coincides with a box
    edge the derivative is one-sided; ties resolve toward the overlapping
    side so the subgradient matches descent practice.
    """
    px1, py1, px2, py2 = p
    gx1, gy1, gx2, gy2 = g
    ix1, iy1 = max(px1, gx1), max(py1, gy1)
    ix2, iy2 = min(px2, gx2), min(py2, gy2)
    iw, ih = ix2 - ix1, iy2 - iy1
    area_p = (px2 - px1) * (py2 - py1)
    area_g = (gx2 - gx1) * (gy2 - gy1)
    inter = iw * ih if (iw > 0.0 and ih > 0.0) else 0.0
    union = area_p + area_g - inter
    if union <= 0.0:
        return 0.0, [0.0, 0.0, 0.0, 0.0]

    # d inter / d p-corner, zero unless the corner is the binding one.
    if iw > 0.0 and ih > 0.0:
        d_inter = [
            -ih if px1 >= gx1 else 0.0,
            -iw if py1 >= gy1 else 0.0,
            ih if px2 <= gx2 else 0.0,
            iw if py2 <= gy2 else 0.0,
        ]
    else:
        d_inter = [0.0, 0.0, 0.0, 0.0]

    d_area_p = [-(py2 - py1), -(px2 - px1), (py2 - py1), (px2 - px1)]
    # IoU = I/U with dU = dA_p - dI.
    grad = [
        (d_inter[k] * union - inter * (d_area_p[k] - d_inter[k])) / (union * union)
        for k in range(4)
    ]
    return inter / union, grad


def grad_loss_interp_iou(pred: BBox, gt: BBox,
                         cfg: InterpConfig = InterpConfig()) -> tuple[float, float, float, float]:
    """Exact gradient of ``loss_interp_iou`` with respect to pred's
    (cx, cy, w, h).

    The direct IoU term contributes nothing for disjoint boxes; the
    interpolated term keeps the gradient alive because the intermediate
    box still overlaps the target. At an exact match the loss sits at its
    kinked minimum and the zero subgradient is returned.
    """
    alpha = cfg.alpha
    p = pred.to_corners()
    g = gt.to_corners()
    if p == g:
        return (0.0, 0.0, 0.0, 0.0)
    _, d_direct = _iou_grad_corners(p, g)

    mid = tuple(pc + alpha * (gc - pc) for pc, gc in zip(p, g))
    _, d_mid = _iou_grad_corners(mid, g)

    # loss = (1 - iou) + (1 - iou_mid); d mid-corner / d p-corner = 1 - alpha.
    d_corners = [-(d_direct[k] + (1.0 - alpha) * d_mid[k]) for k in range(4)]

    # Corner -> centre-form chain: x1 = cx - w/2, x2 = cx + w/2, etc.
    d_cx = d_corners[0] + d_corners[2]
    d_cy = d_corners[1] + d_corners[3]
    d_w = 0.5 * (d_corners[2] - d_corners[0])
    d_h = 0.5 * (d_corners[3] - d_corners[1])
    return (d_cx, d_cy, d_w, d_h)


def grad_loss_iou(pred: BBox, gt: BBox) -> tuple[float, float, float, float]:
    """Gradient of the plain ``1 - IoU`` loss; exactly zero for disjoint
    boxes, which is the failure mode the interpolated term repairs."""
    _, d_direct = _iou_grad_corners(pred.to_corners(), gt.to_corners())
    d_cx = -(d_direct[0] + d_direct[2])
    d_cy = -(d_direct[1] + d_direct[3])
    d_w = -0.5 * (d_direct[2] - d_direct[0])
    d_h = -0.5 * (d_direct[3] - d_direct[1])
    return (d_cx, d_cy, d_w, d_h)
