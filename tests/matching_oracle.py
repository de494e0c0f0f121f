"""Scalar reference implementations for ``gvgkit.matching``.

The pairwise matching cost written for one box pair, and an exhaustive
assignment solver. Deliberately loop-based and independent of the
vectorised cost matrix and the Hungarian solver they cross-check.
"""

import itertools
import math

import numpy as np

from gvgkit.geometry import BBox
from gvgkit.matching import Assignment, MatchConfig
from reference_metrics import ref_iou

_BRUTEFORCE_MIN_SIDE = 8
_BRUTEFORCE_MAX_SIDE = 10


def match_cost(p: BBox, g: BBox, cfg: MatchConfig = MatchConfig()) -> float:
    """Pairwise matching cost; zero iff the boxes coincide."""
    if g.w <= 0.0 or g.h <= 0.0:
        raise ValueError("ground-truth box must have positive width and height")
    centre_sq = (p.cx - g.cx) ** 2 + (p.cy - g.cy) ** 2
    size_term = abs(p.w - g.w) / g.w + abs(p.h - g.h) / g.h
    overlap = ref_iou(p.to_corners(), g.to_corners())
    return (1.0 - overlap) + cfg.lambda_centre * centre_sq + cfg.lambda_size * size_term


def assign_bruteforce(cost: np.ndarray) -> Assignment:
    """Exhaustive minimum over all one-to-one pairings.

    Enumeration order guarantees the lexicographically smallest optimal
    pair list. Limited to small instances by design.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if cost.size and not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains NaN or infinite entries")
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment(unmatched_proposals=list(range(n)), unmatched_gts=list(range(m)))
    if min(n, m) > _BRUTEFORCE_MIN_SIDE or max(n, m) > _BRUTEFORCE_MAX_SIDE:
        raise ValueError(
            f"oracle bound exceeded: {n}x{m} "
            f"(min side <= {_BRUTEFORCE_MIN_SIDE}, max side <= {_BRUTEFORCE_MAX_SIDE})")
    k = min(n, m)
    best_pairs = None
    best_total = math.inf
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.permutations(range(m), k):
            pairs = list(zip(rows, cols))
            total = math.fsum(cost[r, c] for r, c in pairs)
            if total < best_total or (total == best_total and pairs < best_pairs):
                best_total = total
                best_pairs = pairs
    rows = {i for i, _ in best_pairs}
    cols = {j for _, j in best_pairs}
    return Assignment(pairs=sorted(best_pairs),
                      unmatched_proposals=[i for i in range(n) if i not in rows],
                      unmatched_gts=[j for j in range(m) if j not in cols],
                      total_cost=best_total)
