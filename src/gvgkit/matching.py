"""Distance- and size-aware assignment of box proposals to ground truth.

The pairwise cost combines overlap, squared centre distance and relative
size discrepancy:

    cost = (1 - IoU) + lambda_centre * ||c_p - c_g||^2
         + lambda_size * (|w_p - w_g| / w_g + |h_p - h_g| / h_g)

Costs are computed in normalized coordinates so the default weights are
resolution independent. The cost matrix of a scene is one vectorised
pass over all proposal/ground-truth pairs. The optimal one-to-one
assignment is solved as a rectangular linear sum assignment problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from gvgkit.geometry import BBox, centre_rows, corners, iou


@dataclass(frozen=True)
class MatchConfig:
    lambda_centre: float = 2.0
    lambda_size: float = 0.5

    def __post_init__(self) -> None:
        if self.lambda_centre < 0 or self.lambda_size < 0:
            raise ValueError("matching weights must be non-negative")


@dataclass
class Assignment:
    """One-to-one pairing of proposal rows to ground-truth columns."""

    pairs: list[tuple[int, int]] = field(default_factory=list)
    unmatched_proposals: list[int] = field(default_factory=list)
    unmatched_gts: list[int] = field(default_factory=list)
    total_cost: float = 0.0


def build_cost_matrix(proposals: list[BBox], gts: list[BBox],
                      cfg: MatchConfig = MatchConfig()) -> np.ndarray:
    """Cost matrix C[i, j] between proposals[i] and gts[j]; zero iff the
    boxes coincide.

    An empty ground-truth list yields an (N, 0) matrix, the signal for
    callers to skip the regression stage for this image.
    """
    p = centre_rows(proposals)
    g = centre_rows(gts)
    if np.any(g[:, 2:] <= 0.0):
        raise ValueError("ground-truth box must have positive width and height")
    overlap = iou(corners(p), corners(g))
    p, g = p[:, None, :], g[None, :, :]
    # float_power squares through libm pow, as Python's ``**`` does, so
    # every cost is bit-identical to the scalar formula
    centre_sq = (np.float_power(p[..., 0] - g[..., 0], 2)
                 + np.float_power(p[..., 1] - g[..., 1], 2))
    size_term = (np.abs(p[..., 2] - g[..., 2]) / g[..., 2]
                 + np.abs(p[..., 3] - g[..., 3]) / g[..., 3])
    return (1.0 - overlap) + cfg.lambda_centre * centre_sq + cfg.lambda_size * size_term


def _assignment_from_pairs(cost: np.ndarray, pairs: list[tuple[int, int]]) -> Assignment:
    rows = {i for i, _ in pairs}
    cols = {j for _, j in pairs}
    pairs = sorted(pairs)
    return Assignment(
        pairs=pairs,
        unmatched_proposals=[i for i in range(cost.shape[0]) if i not in rows],
        unmatched_gts=[j for j in range(cost.shape[1]) if j not in cols],
        total_cost=math.fsum(cost[i, j] for i, j in pairs),
    )


def assign_optimal(cost: np.ndarray) -> Assignment:
    """Minimum-total-cost assignment of min(rows, cols) pairs, as the
    solver returns it. Among equally cheap assignments any one may come
    back; with continuous random costs ties have measure zero."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if cost.size and not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains NaN or infinite entries")
    if cost.shape[0] == 0 or cost.shape[1] == 0:
        return Assignment(
            unmatched_proposals=list(range(cost.shape[0])),
            unmatched_gts=list(range(cost.shape[1])),
        )
    row_ind, col_ind = linear_sum_assignment(cost)
    return _assignment_from_pairs(cost, list(zip(row_ind.tolist(), col_ind.tolist())))
