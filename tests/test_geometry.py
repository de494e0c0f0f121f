import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvgkit.datagen import SceneAnnotation
from gvgkit.geometry import centres, corners, giou, iou

from box_oracle import (
    BBox,
    InterpConfig,
    grad_loss_interp_iou,
    grad_loss_iou,
    interp_box,
    loss_interp_iou,
)
from reference_metrics import ref_giou, ref_iou
from uniform_oracle import centre_rows


def iou1(a: BBox, b: BBox) -> float:
    """The pairwise core on one pair."""
    return float(iou(np.array([a.to_corners()]), np.array([b.to_corners()]))[0, 0])


def giou1(a: BBox, b: BBox) -> float:
    return float(giou(np.array([a.to_corners()]), np.array([b.to_corners()]))[0, 0])


def rasterized_iou(a: BBox, b: BBox, step: float = 1e-3) -> float:
    """Independent pixel-counting oracle on a regular grid."""
    ax1, ay1, ax2, ay2 = a.to_corners()
    bx1, by1, bx2, by2 = b.to_corners()
    lo_x, hi_x = min(ax1, bx1), max(ax2, bx2)
    lo_y, hi_y = min(ay1, by1), max(ay2, by2)
    xs = np.arange(lo_x + step / 2, hi_x, step)
    ys = np.arange(lo_y + step / 2, hi_y, step)
    if len(xs) == 0 or len(ys) == 0:
        return 0.0
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx >= ax1) & (gx <= ax2) & (gy >= ay1) & (gy <= ay2)
    in_b = (gx >= bx1) & (gx <= bx2) & (gy >= by1) & (gy <= by2)
    inter = np.count_nonzero(in_a & in_b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return inter / union


def random_box(rng, min_side=0.05, max_side=0.5) -> BBox:
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    cx = rng.uniform(w / 2, 1 - w / 2)
    cy = rng.uniform(h / 2, 1 - h / 2)
    return BBox(cx, cy, w, h)


def fd_gradient(f, box: BBox, step: float = 1e-6):
    out = []
    for i, name in enumerate(["cx", "cy", "w", "h"]):
        vals = [box.cx, box.cy, box.w, box.h]
        plus = vals.copy()
        minus = vals.copy()
        plus[i] += step
        minus[i] -= step
        out.append((f(BBox(*plus)) - f(BBox(*minus))) / (2 * step))
    return out


class TestConversions:
    def test_corner_centre_involution(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            b = random_box(rng)
            rebuilt = BBox.from_corners(*b.to_corners())
            assert abs(rebuilt.cx - b.cx) < 1e-12
            assert abs(rebuilt.cy - b.cy) < 1e-12
            assert abs(rebuilt.w - b.w) < 1e-12
            assert abs(rebuilt.h - b.h) < 1e-12

    def test_centres_match_from_corners(self):
        rng = np.random.default_rng(1)
        rows = np.sort(rng.random((50, 2, 2)), axis=1).reshape(50, 4)   # x1 <= x2, y1 <= y2
        expected = [BBox.from_corners(*row) for row in rows.tolist()]
        assert np.array_equal(centres(rows), [(b.cx, b.cy, b.w, b.h) for b in expected])
        assert centres(np.zeros((0, 4))).shape == (0, 4)

    def test_negative_sides_rejected(self):
        with pytest.raises(ValueError):
            BBox(0.5, 0.5, -0.1, 0.2)
        with pytest.raises(ValueError):
            BBox.from_corners(1.0, 0.0, 0.0, 1.0)


class TestIoU:
    def test_identical(self):
        b = BBox(0.4, 0.4, 0.2, 0.3)
        assert iou1(b, b) == 1.0

    def test_disjoint(self):
        a = BBox.from_corners(0, 0, 1, 1)
        b = BBox.from_corners(2, 2, 3, 3)
        assert iou1(a, b) == 0.0

    def test_partial_overlap(self):
        # inter = 1, union = 4 + 4 - 1 = 7
        a = BBox.from_corners(0, 0, 2, 2)
        b = BBox.from_corners(1, 1, 3, 3)
        assert iou1(a, b) == pytest.approx(1 / 7, abs=1e-12)

    def test_degenerate_pair_zero_union(self):
        a = BBox(0.5, 0.5, 0.0, 0.0)
        b = BBox(0.7, 0.7, 0.0, 0.0)
        assert iou1(a, b) == 0.0

    def test_matches_rasterization_oracle(self):
        # corners snapped to the oracle grid so cell counting is exact
        rng = np.random.default_rng(1)
        step = 1e-3
        for _ in range(1000):
            x1, y1 = rng.integers(0, 700, 2)
            x2 = x1 + rng.integers(50, 300)
            y2 = y1 + rng.integers(50, 300)
            a = BBox.from_corners(x1 * step, y1 * step, x2 * step, y2 * step)
            x1, y1 = rng.integers(0, 700, 2)
            x2 = x1 + rng.integers(50, 300)
            y2 = y1 + rng.integers(50, 300)
            b = BBox.from_corners(x1 * step, y1 * step, x2 * step, y2 * step)
            assert iou1(a, b) == pytest.approx(rasterized_iou(a, b, step), abs=2e-3)

    @given(st.integers(0, 10_000), st.floats(0.1, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        a, b = random_box(rng), random_box(rng)
        assert iou1(a, b) == pytest.approx(iou1(b, a), abs=1e-12)
        assert giou1(a, b) == pytest.approx(giou1(b, a), abs=1e-12)
        a2, b2 = (BBox(box.cx * scale, box.cy * scale, box.w * scale, box.h * scale)
                  for box in (a, b))
        assert iou1(a2, b2) == pytest.approx(iou1(a, b), abs=1e-10)
        assert giou1(a2, b2) == pytest.approx(giou1(a, b), abs=1e-10)

    def test_iou_dominates_giou(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            assert iou1(a, b) >= giou1(a, b) - 1e-12


class TestGIoU:
    def test_identical(self):
        b = BBox(0.3, 0.6, 0.2, 0.2)
        assert giou1(b, b) == 1.0

    def test_disjoint_unit_squares(self):
        a = BBox.from_corners(0, 0, 1, 1)
        b = BBox.from_corners(2, 2, 3, 3)
        # enclosing 9, union 2 -> 0 - 7/9
        assert giou1(a, b) == pytest.approx(-7 / 9, abs=1e-12)

    def test_touching_boxes(self):
        a = BBox.from_corners(0, 0, 1, 1)
        b = BBox.from_corners(1, 0, 2, 1)
        assert giou1(a, b) == pytest.approx(0.0, abs=1e-12)


class TestPairwise:
    def test_matrices_match_the_scalar_oracle(self):
        rng = np.random.default_rng(5)
        # random boxes plus an identical, a touching and zero-area pairs:
        # the empty-union rule must give 0 for IoU and for GIoU
        a = [random_box(rng) for _ in range(12)] + [
            BBox.from_corners(0, 0, 0.2, 0.2), BBox(0.5, 0.5, 0.0, 0.0),
            BBox(0.9, 0.9, 0.0, 0.0)]
        b = [random_box(rng) for _ in range(9)] + [
            BBox.from_corners(0.2, 0, 0.4, 0.2), BBox(0.5, 0.5, 0.0, 0.0), a[0]]
        ca, cb = corners(centre_rows(a)), corners(centre_rows(b))
        assert np.array_equal(ca, np.array([x.to_corners() for x in a]))
        m_iou, m_giou = iou(ca, cb), giou(ca, cb)
        assert m_iou.shape == m_giou.shape == (15, 12)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                assert m_iou[i, j] == ref_iou(x.to_corners(), y.to_corners())
                assert m_giou[i, j] == ref_giou(x.to_corners(), y.to_corners())
        assert m_giou[14, 10] == 0.0 and m_giou[13, 10] == 0.0

    def test_empty_sets(self):
        boxes = np.array([[0.1, 0.1, 0.3, 0.4], [0.2, 0.0, 0.5, 0.5]])
        none = np.zeros((0, 4))
        assert iou(none, boxes).shape == (0, 2)
        assert giou(boxes, none).shape == (2, 0)
        assert SceneAnnotation("s", 10, 10).normalized_rows().shape == (0, 4)


class TestInterpBox:
    def test_fixed_point(self):
        g = BBox(0.5, 0.5, 0.2, 0.2)
        for alpha in (0.1, 0.5, 0.99):
            m = interp_box(g, g, alpha)
            assert m == g

    def test_midpoint(self):
        p = BBox.from_corners(0, 0, 1, 1)
        g = BBox.from_corners(1, 1, 2, 2)
        m = interp_box(p, g, 0.5)
        assert m.to_corners() == pytest.approx((0.5, 0.5, 1.5, 1.5), abs=1e-12)

    def test_near_gt_interpolation(self):
        p = BBox.from_corners(0, 0, 1, 1)
        g = BBox.from_corners(10, 10, 11, 11)
        m = interp_box(p, g, 0.99)
        assert m.to_corners() == pytest.approx((9.9, 9.9, 10.9, 10.9), abs=1e-9)

    def test_alpha_validation(self):
        p = BBox(0.5, 0.5, 0.1, 0.1)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                interp_box(p, p, bad)
        with pytest.raises(ValueError):
            InterpConfig(alpha=1.0)


class TestInterpIoULoss:
    def test_zero_at_match(self):
        b = BBox(0.5, 0.5, 0.2, 0.2)
        assert loss_interp_iou(b, b) == 0.0

    def test_disjoint_hand_value(self):
        p = BBox.from_corners(0, 0, 1, 1)
        g = BBox.from_corners(10, 10, 11, 11)
        # interpolated box (9.9, 9.9, 10.9, 10.9): inter 0.81, union 1.19
        expected = 1.0 + (1.0 - 0.81 / 1.19)
        assert loss_interp_iou(p, g, InterpConfig(0.99)) == pytest.approx(expected, abs=1e-9)

    def test_against_rasterization(self):
        p = BBox.from_corners(0, 0, 1, 1)
        g = BBox.from_corners(1, 1, 2, 2)
        mid = interp_box(p, g, 0.5)
        expected = (1 - rasterized_iou(p, g)) + (1 - rasterized_iou(mid, g))
        assert loss_interp_iou(p, g, InterpConfig(0.5)) == pytest.approx(expected, abs=5e-3)


class TestGradients:
    def test_fd_agreement_on_random_pairs(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 500:
            p, g = random_box(rng), random_box(rng)
            cfg = InterpConfig(0.99)
            analytic = grad_loss_interp_iou(p, g, cfg)
            fd = fd_gradient(lambda b: loss_interp_iou(b, g, cfg), p, step=1e-5)
            for a_k, f_k in zip(analytic, fd):
                denom = max(abs(a_k), abs(f_k), 1e-6)
                assert abs(a_k - f_k) / denom < 1e-4
            checked += 1

    def test_matched_pair_fd(self):
        # at the kinked minimum the zero subgradient is returned; central
        # differences straddle the kink symmetrically, so a small step
        # keeps them near zero as well
        b = BBox(0.5, 0.5, 0.2, 0.2)
        analytic = grad_loss_interp_iou(b, b)
        assert analytic == (0.0, 0.0, 0.0, 0.0)
        fd = fd_gradient(lambda x: loss_interp_iou(x, b), b, step=1e-8)
        diff = math.sqrt(sum((a - f) ** 2 for a, f in zip(analytic, fd)))
        assert diff <= 1e-6

    def test_disjoint_pairs_interp_alive_plain_dead(self):
        rng = np.random.default_rng(4)
        cfg = InterpConfig(0.99)
        for _ in range(200):
            g = random_box(rng, min_side=0.05, max_side=0.3)
            p = random_box(rng, min_side=0.05, max_side=0.3)
            gx1, gy1, gx2, gy2 = g.to_corners()
            # push the prediction clear of the target along x
            shift = gx2 + p.w / 2 + rng.uniform(0.01, 0.3) - p.cx
            p = BBox(p.cx + shift, p.cy, p.w, p.h)
            assert iou1(p, g) == 0.0
            assert grad_loss_iou(p, g) == (0.0, 0.0, 0.0, 0.0)
            norm = math.sqrt(sum(v * v for v in grad_loss_interp_iou(p, g, cfg)))
            assert norm > 0.0

    def test_degenerate_prediction_recovers(self):
        # zero-area prediction still gets size gradients through the
        # interpolated term
        p = BBox(0.2, 0.2, 0.0, 0.0)
        g = BBox(0.7, 0.7, 0.2, 0.2)
        grad = grad_loss_interp_iou(p, g)
        assert any(v != 0.0 for v in grad)
