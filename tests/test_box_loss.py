"""The stage-1 box losses on (M, 2) corner pairs against the scalar
oracles: the one-pass interpolated loss row by row with its gradients,
GIoU with its enclosing box, and the refiner's two (M, 2) blocks."""

import numpy as np
import pytest

from gvgkit import gradkit as gk
from gvgkit.synth.boxhead import BoxRefiner, giou_loss_diff, interp_iou_loss_diff, iou_loss_diff

from box_oracle import BBox, InterpConfig, grad_loss_interp_iou, loss_interp_iou
from gradient_check import check_gradients
from reference_metrics import ref_giou


def box_pairs(rng, m):
    """(M, 4) centre-form predictions and targets; every third
    prediction is pushed clear of its target along x."""
    gt = np.column_stack([rng.uniform(0.2, 0.8, (m, 2)), rng.uniform(0.05, 0.3, (m, 2))])
    pred = gt + rng.normal(scale=0.05, size=(m, 4))
    pred[:, 2:] = np.abs(pred[:, 2:]) + 0.02
    pred[::3, 0] = gt[::3, 0] + (gt[::3, 2] + pred[::3, 2]) / 2 + rng.uniform(0.01, 0.2)
    return pred, gt


def disjoint(pred_row, gt_row):
    (px1, _, px2, _), (gx1, _, gx2, _) = BBox(*pred_row).to_corners(), BBox(*gt_row).to_corners()
    return px1 > gx2 or gx1 > px2


@pytest.mark.parametrize("weighted", [True, False], ids=["weights", "mean"])
def test_one_pass_interp_loss_matches_the_oracle_row_by_row(weighted):
    rng = np.random.default_rng(31)
    pred, gt = box_pairs(rng, 9)
    weights = rng.uniform(0.1, 1.0, 9) if weighted else np.full(9, 1 / 9)
    p = gk.tensor(pred, requires_grad=True)
    loss = interp_iou_loss_diff(p, gt, alpha=0.99, weights=weights)
    gk.backward(loss)
    cfg = InterpConfig(0.99)
    want = sum(w * loss_interp_iou(BBox(*a), BBox(*b), cfg)
               for w, a, b in zip(weights, pred, gt))
    assert float(loss.value) == pytest.approx(want, abs=1e-12)
    assert sum(disjoint(a, b) for a, b in zip(pred, gt)) == 3
    for w, a, b, grad in zip(weights, pred, gt, p.grad):
        expected = w * np.array(grad_loss_interp_iou(BBox(*a), BBox(*b), cfg))
        np.testing.assert_allclose(grad, expected, rtol=1e-9, atol=1e-12)
        assert np.any(grad != 0.0)      # the interpolated box keeps disjoint rows alive


def test_giou_loss_reads_the_enclosing_box():
    rng = np.random.default_rng(32)
    pred, gt = box_pairs(rng, 6)
    weights = rng.uniform(0.1, 1.0, 6)
    p = gk.tensor(pred, requires_grad=True)
    loss = giou_loss_diff(p, gt, weights)
    want = sum(w * (1.0 - ref_giou(BBox(*a).to_corners(), BBox(*b).to_corners()))
               for w, a, b in zip(weights, pred, gt))
    assert float(loss.value) == pytest.approx(want, abs=1e-12)
    # on a disjoint row the IoU loss is flat at 1; GIoU's enclosing box
    # still pulls the prediction in
    row = [k for k in range(6) if disjoint(pred[k], gt[k])][0]
    one = gk.tensor(pred[row:row + 1], requires_grad=True)
    assert float(iou_loss_diff(one, gt[row:row + 1], np.ones(1)).value) == 1.0
    g = giou_loss_diff(one, gt[row:row + 1], np.ones(1))
    assert float(g.value) > 1.0
    gk.backward(g)
    assert np.any(one.grad != 0.0)
    report = check_gradients(lambda: giou_loss_diff(p, gt, weights), [("pred", p)])
    assert report.passed, str(report)


def test_refine_moves_centres_and_scales_sizes():
    rng = np.random.default_rng(33)
    refiner = BoxRefiner(seed=4)
    for _, t in refiner.leaves():
        t.value = t.value + rng.normal(scale=0.3, size=t.value.shape)
    boxes, gt = box_pairs(rng, 5)
    delta = (np.maximum(boxes @ refiner.w1.value + refiner.b1.value, 0.0)
             @ refiner.w2.value + refiner.b2.value)
    refined = refiner.refine(boxes).value
    assert np.array_equal(refined[:, :2], boxes[:, :2] + delta[:, :2] * boxes[:, 2:])
    assert np.array_equal(refined[:, 2:], boxes[:, 2:] * np.exp(delta[:, 2:]))
    report = check_gradients(lambda: interp_iou_loss_diff(refiner.refine(boxes), gt, 0.99,
                                                          np.full(5, 1 / 5)),
                                refiner.leaves())
    assert report.passed, str(report)


@pytest.mark.parametrize("column", [2, 3], ids=["width", "height"])
def test_refine_rejects_a_collapsed_box(column):
    refiner = BoxRefiner(seed=4)
    refiner.b2.value[column] = -800.0     # exp underflows to 0
    with pytest.raises(OverflowError, match="non-positive size"):
        refiner.refine(np.array([[0.5, 0.5, 0.2, 0.2]]))
