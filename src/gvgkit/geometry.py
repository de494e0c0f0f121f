"""Axis-aligned boxes and the pairwise box core.

Boxes are stored in centre form (cx, cy, w, h), normally as fractions of
the image size; every operation is scale invariant so pixel coordinates
work as well. Corner form (x1, y1, x2, y2) is available by conversion.

Every function works on (N, 4) rows; the scalar reference for
``corners`` and ``centres`` is the one-box oracle in ``tests/box_oracle.py``.
``iou`` and ``giou`` compare every corner row of one set with every row
of another in one vectorised pass and return an (N, M) matrix. Matching
and evaluation both use them; no scalar box or IoU exists in the package.
"""

from __future__ import annotations

import numpy as np


def corners(centre: np.ndarray) -> np.ndarray:
    """Centre-form rows to corner rows, with the arithmetic of the
    one-box oracle's ``to_corners`` in ``tests/box_oracle.py``."""
    cx, cy, w, h = (centre[..., k] for k in range(4))
    hw, hh = w / 2.0, h / 2.0
    return np.stack([cx - hw, cy - hh, cx + hw, cy + hh], axis=-1)


def centres(corner: np.ndarray) -> np.ndarray:
    """Corner rows to centre-form rows, with the arithmetic of the
    one-box oracle's ``from_corners`` in ``tests/box_oracle.py``, which
    also checks the corner order; these rows' order is not checked."""
    x1, y1, x2, y2 = (corner[..., k] for k in range(4))
    return np.stack([(x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1], axis=-1)


def _pairwise(a: np.ndarray, b: np.ndarray):
    """Intersection and union areas of corner rows a (N, 4) and b (M, 4),
    plus their corner columns shaped (N, 1) and (M,), so that every
    operation on one column of each broadcasts to (N, M)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ax1, ay1, ax2, ay2 = (a[:, k:k + 1] for k in range(4))
    bx1, by1, bx2, by2 = (b[:, k] for k in range(4))
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    # areas from the same corner values so identical boxes give exactly 1
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter, union, (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, else 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0.0)


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of corner rows a (N, 4) and b (M, 4) as an
    (N, M) matrix in [0, 1]; 0 where the union is empty."""
    inter, union, _, _ = _pairwise(a, b)
    return _ratio(inter, union)


def giou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generalized IoU (Rezatofighi et al. 2019) of corner rows a (N, 4)
    and b (M, 4) as an (N, M) matrix in [-1, 1]: IoU minus the normalized
    excess of the smallest enclosing box over the union. Negative for
    disjoint boxes; 0 where the union is empty, plain IoU where the
    enclosing box has no area."""
    inter, union, (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = _pairwise(a, b)
    enclosing = ((np.maximum(ax2, bx2) - np.minimum(ax1, bx1))
                 * (np.maximum(ay2, by2) - np.minimum(ay1, by1)))
    value = _ratio(inter, union) - _ratio(enclosing - union, enclosing)
    return np.where(union > 0.0, value, 0.0)
