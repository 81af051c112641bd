"""IoU metrics against per-pixel counting oracles."""

from dataclasses import asdict

import numpy as np
import pytest

from seglang.metrics import aggregate, iou


def count_oracle(pred, gt):
    """Pixel-by-pixel Python loop; integer counts only."""
    inter = union = 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            p, g = bool(pred[i, j]), bool(gt[i, j])
            inter += p and g
            union += p or g
    return inter, union


def test_iou_base_cases():
    empty = np.zeros((4, 4), dtype=bool)
    full = np.ones((4, 4), dtype=bool)
    assert iou(empty, empty) == 1.0     # vacuous match
    assert iou(full, full) == 1.0
    assert iou(full, empty) == 0.0
    left = np.zeros((4, 4), dtype=bool)
    left[:, :2] = True
    assert iou(left, full) == 0.5


def test_iou_matches_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        pred = rng.random((9, 7)) < rng.random()
        gt = rng.random((9, 7)) < rng.random()
        inter, union = count_oracle(pred, gt)
        want = 1.0 if union == 0 else inter / union
        assert iou(pred, gt) == want


def test_aggregate_matches_counting_oracle():
    rng = np.random.default_rng(1)
    pairs = [(rng.random((6, 6)) < 0.5, rng.random((6, 6)) < 0.5)
             for _ in range(12)]
    rep = aggregate(pairs)
    inters, unions, ious = [], [], []
    for pred, gt in pairs:
        i, u = count_oracle(pred, gt)
        inters.append(i)
        unions.append(u)
        ious.append(1.0 if u == 0 else i / u)
    assert rep.total_intersection == sum(inters)
    assert rep.total_union == sum(unions)
    assert rep.ciou == sum(inters) / sum(unions)
    assert rep.giou == np.mean(ious)
    assert rep.miou == rep.giou
    assert rep.per_sample_iou == ious
    assert rep.n == 12


def test_cumulative_and_mean_disagree_by_construction():
    # pair 1: a single-pixel exact match (IoU 1); pair 2: two disjoint
    # 100-pixel masks (IoU 0). The mean is exactly 1/2 while the pooled
    # ratio collapses to 1/201.
    a_pred = np.zeros((20, 20), dtype=bool)
    a_pred[0, 0] = True
    a_gt = a_pred.copy()
    b_pred = np.zeros((20, 20), dtype=bool)
    b_pred[2:7, 0:20] = True        # 100 pixels
    b_gt = np.zeros((20, 20), dtype=bool)
    b_gt[10:15, 0:20] = True        # 100 pixels, disjoint
    rep = aggregate([(a_pred, a_gt), (b_pred, b_gt)])
    assert rep.giou == 0.5
    assert rep.ciou == 1 / 201
    assert rep.ciou != rep.giou


def test_aggregate_empty_input_rejected():
    with pytest.raises(ValueError):
        aggregate([])


def test_report_to_dict_roundtrip():
    pred = np.ones((2, 2), dtype=bool)
    rep = aggregate([(pred, pred)])
    d = asdict(rep)
    assert d["ciou"] == 1.0 and d["giou"] == 1.0 and d["n"] == 1
