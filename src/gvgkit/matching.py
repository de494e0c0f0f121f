"""Distance- and size-aware assignment of box proposals to ground truth.

The pairwise cost combines overlap, squared centre distance and relative
size discrepancy:

    cost = (1 - IoU) + lambda_centre * ||c_p - c_g||^2
         + lambda_size * (|w_p - w_g| / w_g + |h_p - h_g| / h_g)

Costs are computed in normalized coordinates so the default weights are
resolution independent. The cost matrix of a scene is one vectorised
pass over all proposal/ground-truth pairs.

The optimal one-to-one assignment is solved in-repo, in numpy, by
Crouse's shortest augmenting path ("On implementing 2D rectangular
assignment algorithms", IEEE TAES 2016), the algorithm of
``scipy.optimize.linear_sum_assignment``, with its conventions: a tall
matrix is solved transposed, each row's search visits the columns in
reversed order, and among equally short paths it takes the last
unassigned column, else the first. So it returns scipy's pairs, ties
included, and scipy is only a test oracle. A shortcut comes first: when
every row's minimum is strict and in a column of its own, that pairing
is the unique optimum and comes back directly.
"""

from __future__ import annotations

import numpy as np

from gvgkit.geometry import corners, iou


def build_cost_matrix(p: np.ndarray, g: np.ndarray, lambda_centre: float,
                      lambda_size: float) -> np.ndarray:
    """Cost matrix C[i, j] between the centre-form rows p[i] (N, 4) of
    the proposals and g[j] (M, 4) of the ground truth, with the weights
    ``TrainConfig`` holds; zero iff the boxes coincide. No ground truth,
    an (N, 0) matrix, leaves nothing to assign.
    """
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
    return (1.0 - overlap) + lambda_centre * centre_sq + lambda_size * size_term


def _row_minima(cost: np.ndarray) -> np.ndarray | None:
    """The column of each row's minimum, when every row's minimum is
    strict and no two rows share that column; else None. That pairing
    costs the sum of the row minima, a bound no other one-to-one
    assignment of every row reaches, so it is the unique optimum."""
    cols = cost.argmin(axis=1)
    n = len(cols)
    if len(set(cols.tolist())) < n:
        return None
    strict = np.count_nonzero(cost == cost[np.arange(n), cols, None]) == n
    return cols if strict else None


def _shortest_augmenting_path(cost: np.ndarray) -> np.ndarray:
    """The column of each row in a minimum-cost assignment of a wide
    (rows <= cols) matrix. Rows are added one at a time: a Dijkstra-like
    search over reduced costs ``cost - u - v`` finds the shortest path
    from the new row to an unassigned column, the duals move so that
    every reduced cost stays non-negative, and the path is flipped."""
    n, m = cost.shape
    u, v = np.zeros(n), np.zeros(m)
    col4row = np.full(n, -1, dtype=np.intp)
    row4col = np.full(m, -1, dtype=np.intp)
    path = np.full(m, -1, dtype=np.intp)
    for cur in range(n):
        shortest = np.full(m, np.inf)
        # columns in reversed order, so a constant matrix pairs row i
        # with column i; a visited column is swapped out for the last
        remaining = np.arange(m - 1, -1, -1)
        rows, cols = [cur], []
        i, min_val = cur, 0.0
        while True:
            reduced = min_val + cost[i, remaining] - u[i] - v[remaining]
            closer = reduced < shortest[remaining]
            path[remaining[closer]] = i
            lengths = np.where(closer, reduced, shortest[remaining])
            shortest[remaining] = lengths
            ties = np.flatnonzero(lengths == lengths.min())
            free = ties[row4col[remaining[ties]] < 0]
            index = free[-1] if free.size else ties[0]
            j = int(remaining[index])
            min_val = lengths[index]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining = remaining[:-1]
            if row4col[j] < 0:
                break
            i = int(row4col[j])
            rows.append(i)
        u[cur] += min_val
        others = np.array(rows[1:], dtype=np.intp)
        u[others] += min_val - shortest[col4row[others]]
        v[cols] -= min_val - shortest[cols]
        while True:                              # flip the path, sink to root
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur:
                break
    return col4row


def assign_optimal(cost: np.ndarray) -> list[tuple[int, int]]:
    """A minimum-total-cost assignment as min(rows, cols) sorted (row,
    column) pairs: the pairs ``scipy.optimize.linear_sum_assignment``
    returns, ties included.

    A tall matrix is solved transposed. When every row's minimum is
    strict and in a column of its own (the common case for real scenes)
    that pairing is returned directly; otherwise the shortest augmenting
    path solves it, taking among equally short paths the last unassigned
    column, else the first."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains NaN or infinite entries")
    if cost.size == 0:
        return []
    transposed = cost.shape[0] > cost.shape[1]
    wide = cost.T if transposed else cost
    cols = _row_minima(wide)
    if cols is None:
        cols = _shortest_augmenting_path(wide)
    if transposed:
        return sorted((i, j) for j, i in enumerate(cols.tolist()))
    return list(enumerate(cols.tolist()))
