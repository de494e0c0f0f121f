import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from gvgkit import matching
from gvgkit.geometry import BBox
from gvgkit.matching import Assignment, MatchConfig, assign_optimal, build_cost_matrix
from gvgkit.synth import SynthConfig, gen_scenes
from gvgkit.synth.encode import EmbeddingTable, encode_proposals

from matching_oracle import assign_bruteforce, match_cost
from reference_metrics import ref_iou


def random_box(rng, min_side=0.05, max_side=0.4) -> BBox:
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    return BBox(rng.uniform(w / 2, 1 - w / 2), rng.uniform(h / 2, 1 - h / 2), w, h)


class TestMatchCost:
    def test_zero_iff_identical(self):
        b = BBox(0.5, 0.5, 0.2, 0.2)
        assert match_cost(b, b) == 0.0
        rng = np.random.default_rng(0)
        for _ in range(300):
            p, g = random_box(rng), random_box(rng)
            c = match_cost(p, g)
            assert c >= 0.0
            if (p.cx, p.cy, p.w, p.h) != (g.cx, g.cy, g.w, g.h):
                assert c > 0.0

    def test_hand_computed(self):
        # centres (0.1, 0.1) and (0.2, 0.2), equal 0.2 x 0.2 sizes
        p = BBox.from_corners(0.0, 0.0, 0.2, 0.2)
        g = BBox.from_corners(0.1, 0.1, 0.3, 0.3)
        expected = (1 - 1 / 7) + 2.0 * (0.01 + 0.01) + 0.5 * 0.0
        assert match_cost(p, g) == pytest.approx(expected, abs=1e-9)

    def test_weight_zeroing_reduces_to_iou(self):
        cfg = MatchConfig(lambda_centre=0.0, lambda_size=0.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            p, g = random_box(rng), random_box(rng)
            overlap = ref_iou(p.to_corners(), g.to_corners())
            assert match_cost(p, g, cfg) == pytest.approx(1 - overlap, abs=1e-12)

    def test_degenerate_gt_rejected(self):
        p = BBox(0.5, 0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            match_cost(p, BBox(0.5, 0.5, 0.0, 0.2))
        with pytest.raises(ValueError):
            build_cost_matrix([p], [BBox(0.5, 0.5, 0.0, 0.2)])


class TestCostMatrix:
    def test_single_pair_equals_match_cost(self):
        rng = np.random.default_rng(2)
        p, g = random_box(rng), random_box(rng)
        mat = build_cost_matrix([p], [g])
        assert mat.shape == (1, 1)
        assert mat[0, 0] == match_cost(p, g)

    def test_entrywise_against_match_cost(self):
        # the vectorised matrix keeps the scalar arithmetic bit for bit
        # (the cost feeds the stage-1 assignment); x * x in place of the
        # scalar ``** 2`` moves about one entry in 10^4 by an ulp
        rng = np.random.default_rng(3)
        for n, m in ((3, 3), (1, 5), (44, 36), (0, 4), (160, 120)):
            props = [random_box(rng) for _ in range(n)]
            gts = [random_box(rng) for _ in range(m)]
            mat = build_cost_matrix(props, gts)
            assert mat.shape == (n, m)
            for i in range(n):
                for j in range(m):
                    assert mat[i, j] == match_cost(props[i], gts[j])

    def test_permuting_gts_permutes_columns(self):
        rng = np.random.default_rng(4)
        props = [random_box(rng) for _ in range(4)]
        gts = [random_box(rng) for _ in range(3)]
        mat = build_cost_matrix(props, gts)
        perm = [2, 0, 1]
        mat_p = build_cost_matrix(props, [gts[j] for j in perm])
        assert np.array_equal(mat_p, mat[:, perm])

    def test_empty_gts_signal(self):
        rng = np.random.default_rng(5)
        mat = build_cost_matrix([random_box(rng)], [])
        assert mat.shape == (1, 0)
        out = assign_optimal(mat)
        assert out.pairs == []
        assert out.unmatched_proposals == [0]


class TestAssignment:
    def test_diagonal_dominant(self):
        out = assign_optimal(np.array([[0.0, 9.0], [9.0, 0.0]]))
        assert out.pairs == [(0, 0), (1, 1)]
        assert out.total_cost == 0.0

    def test_tie_reaches_optimal_total(self):
        # every full pairing is optimal: any one of them may come back
        out = assign_optimal(np.ones((2, 2)))
        assert out.total_cost == 2.0
        assert sorted(i for i, _ in out.pairs) == [0, 1]
        assert sorted(j for _, j in out.pairs) == [0, 1]

    def test_identity_optimal_3x3(self):
        cost = np.full((3, 3), 5.0)
        np.fill_diagonal(cost, 0.0)
        out = assign_bruteforce(cost)
        assert out.pairs == [(0, 0), (1, 1), (2, 2)]
        assert out.total_cost == 0.0

    def test_single_entry_oracle(self):
        out = assign_bruteforce(np.array([[3.5]]))
        assert out.pairs == [(0, 0)]
        assert out.total_cost == 3.5

    def test_oracle_agreement_500_random(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            cost = rng.uniform(0, 10, size=(n, m))
            a = assign_optimal(cost)
            b = assign_bruteforce(cost)
            assert a.total_cost == b.total_cost
            assert len(a.pairs) == min(n, m)

    def test_rectangular_leaves_surplus_unmatched(self):
        rng = np.random.default_rng(7)
        cost = rng.uniform(0, 1, size=(6, 2))
        out = assign_optimal(cost)
        assert len(out.pairs) == 2
        assert len(out.unmatched_proposals) == 4
        assert out.unmatched_gts == []

    def test_invalid_costs_rejected(self):
        with pytest.raises(ValueError):
            assign_optimal(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            assign_optimal(np.array([[np.inf]]))
        with pytest.raises(ValueError):
            assign_bruteforce(np.array([[1.0, np.nan]]))

    def test_oracle_size_bound(self):
        with pytest.raises(ValueError):
            assign_bruteforce(np.zeros((9, 9)))
        with pytest.raises(ValueError):
            assign_bruteforce(np.zeros((2, 11)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_row_constant_shift_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        cost = rng.uniform(0, 5, size=(n, n))
        base = assign_optimal(cost)
        shift = float(rng.uniform(0.5, 3.0))
        row = int(rng.integers(0, n))
        shifted = cost.copy()
        shifted[row, :] += shift
        out = assign_optimal(shifted)
        assert out.total_cost == pytest.approx(base.total_cost + shift, rel=1e-12)

    def test_matches_bruteforce_total_on_ties(self):
        # many equal-cost optima: the solver reaches the optimal total
        # with min(n, m) pairs; the oracle picks the smallest pair list
        cost = np.ones((3, 4))
        a = assign_optimal(cost)
        b = assign_bruteforce(cost)
        assert b.pairs == [(0, 0), (1, 1), (2, 2)]
        assert a.total_cost == b.total_cost == 3.0
        assert len(a.pairs) == 3
        assert len({i for i, _ in a.pairs}) == len({j for _, j in a.pairs}) == 3
        assert len(a.unmatched_gts) == 1 and not a.unmatched_proposals


@pytest.fixture
def routes(monkeypatch):
    """Counts of the ``assign_optimal`` calls that took the row-minima
    shortcut and of those that took the augmenting path."""
    counts = Counter()
    row_minima = matching._row_minima

    def counted(cost):
        cols = row_minima(cost)
        counts["path" if cols is None else "shortcut"] += 1
        return cols

    monkeypatch.setattr(matching, "_row_minima", counted)
    return counts


def scipy_pairs(cost):
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()))


def seeded_matrices(seed: int, count: int):
    """Continuous, small-integer (many ties) and constant matrices, in
    turn; wide, square and tall, with 1 x m and n x 1 among them."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n, m = (int(x) for x in rng.integers(1, 11, size=2))
        if k % 5 == 3:
            n = 1
        elif k % 5 == 4:
            m = 1
        kind = k % 3
        if kind == 0:
            yield rng.uniform(-5.0, 5.0, size=(n, m))
        elif kind == 1:
            yield rng.integers(0, 4, size=(n, m)).astype(np.float64)
        else:
            yield np.full((n, m), float(rng.integers(0, 3)))


class TestAgainstScipy:
    """``assign_optimal`` returns the pairs of scipy's solver, pair for
    pair, ties included; scipy is the oracle here and nowhere else."""

    def test_seeded_matrices(self, routes):
        shapes = Counter()
        for cost in seeded_matrices(seed=8, count=6000):
            assert assign_optimal(cost).pairs == scipy_pairs(cost), cost
            n, m = cost.shape
            shapes["1 x m" if n == 1 else "n x 1" if m == 1
                   else "wide" if n < m else "tall" if n > m else "square"] += 1
        assert sum(routes.values()) == 6000
        assert routes["shortcut"] > 0 and routes["path"] > 0, routes
        assert min(shapes[k] for k in ("1 x m", "n x 1", "wide", "tall", "square")) > 0

    def test_constant_matrix_pairs_the_diagonal(self):
        for n, m in ((3, 3), (2, 5), (5, 2)):
            out = assign_optimal(np.full((n, m), 2.0))
            assert out.pairs == [(i, i) for i in range(min(n, m))]

    def test_tie_rule(self, routes):
        # the search visits columns in reversed order; among equally short
        # paths it takes the last free column: columns 1 and 2 tie here
        cost = np.array([[1.0, 0.0, 0.0]])
        assert assign_optimal(cost).pairs == scipy_pairs(cost) == [(0, 1)]
        # row 2 ties on columns 0 and 1, both taken: the first visited,
        # column 1, goes on the path; rows 1 and 2 then swap into the
        # second of two optimal pairings
        cost = np.array([[0.0, 5.0, 5.0],
                         [5.0, 0.0, 5.0],
                         [0.0, 0.0, 9.0]])
        assert assign_optimal(cost).pairs == scipy_pairs(cost) == [(0, 0), (1, 2), (2, 1)]
        assert routes == {"path": 2}

    @pytest.mark.parametrize("density_probs", [None, (0.0, 0.5, 0.35, 0.15)],
                             ids=["sparse", "dense"])
    def test_every_cost_matrix_of_a_built_dataset(self, routes, density_probs):
        extra = {} if density_probs is None else {"density_probs": density_probs}
        cfg = SynthConfig(n_scenes=60, seed=21, **extra)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dataset = gen_scenes(cfg)
        table = EmbeddingTable(cfg.seed)
        matrices = 0
        for split in dataset.splits.values():
            for scene in split.scenes:
                gts = [inst.normalized_box(scene.width, scene.height)
                       for inst in scene.instances]
                if not gts:
                    continue
                proposals, _ = encode_proposals(scene, cfg, table)
                cost = build_cost_matrix(proposals.boxes, gts)
                assert assign_optimal(cost).pairs == scipy_pairs(cost), scene.image_id
                matrices += 1
        assert matrices > 40
        assert sum(routes.values()) == matrices and routes["shortcut"] > 0
