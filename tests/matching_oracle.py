"""Scalar reference implementations for ``gvgkit.matching``.

The pairwise matching cost written for one box pair, an exhaustive
assignment solver, and the total cost and unmatched rows and columns of
a pair list. Deliberately loop-based and independent of the vectorised
cost matrix and the Hungarian solver they cross-check.
"""

import itertools
import math

import numpy as np

from box_oracle import BBox
from reference_metrics import ref_iou

_BRUTEFORCE_MIN_SIDE = 8
_BRUTEFORCE_MAX_SIDE = 10


def match_cost(p: BBox, g: BBox, lambda_centre: float = 2.0,
               lambda_size: float = 0.5) -> float:
    """Pairwise matching cost, by default with the method's weights; zero
    iff the boxes coincide."""
    if g.w <= 0.0 or g.h <= 0.0:
        raise ValueError("ground-truth box must have positive width and height")
    centre_sq = (p.cx - g.cx) ** 2 + (p.cy - g.cy) ** 2
    size_term = abs(p.w - g.w) / g.w + abs(p.h - g.h) / g.h
    overlap = ref_iou(p.to_corners(), g.to_corners())
    return (1.0 - overlap) + lambda_centre * centre_sq + lambda_size * size_term


def total_cost(cost: np.ndarray, pairs: list[tuple[int, int]]) -> float:
    """The exactly rounded sum of the paired entries of ``cost``."""
    return math.fsum(cost[i, j] for i, j in pairs)


def unmatched(cost: np.ndarray, pairs: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """The rows and the columns of ``cost`` that no pair holds."""
    rows = {i for i, _ in pairs}
    cols = {j for _, j in pairs}
    return ([i for i in range(cost.shape[0]) if i not in rows],
            [j for j in range(cost.shape[1]) if j not in cols])


def assign_bruteforce(cost: np.ndarray) -> list[tuple[int, int]]:
    """Exhaustive minimum over all one-to-one pairings, as sorted pairs.

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
        return []
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
            total = total_cost(cost, pairs)
            if total < best_total or (total == best_total and pairs < best_pairs):
                best_total = total
                best_pairs = pairs
    return sorted(best_pairs)
