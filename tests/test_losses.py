"""Objective terms against direct-formula oracles and closed forms."""

import numpy as np
import pytest

from seglang.config import RunConfig
from seglang.losses import combined_loss, dice_loss, mask_ce
from seglang.tensor import ShapeError, Tensor


def test_mask_ce_matches_direct_formula():
    rng = np.random.default_rng(0)
    for _ in range(5):
        pred = rng.random((6, 7))
        gt = (rng.random((6, 7)) < 0.5).astype(np.float64)
        got = mask_ce(Tensor(pred), gt).item()
        p = np.clip(pred, 1e-7, 1 - 1e-7)
        want = -(gt * np.log(p) + (1 - gt) * np.log(1 - p)).mean()
        assert abs(got - want) < 1e-12


def test_mask_ce_is_finite_at_saturated_predictions():
    pred = np.array([[0.0, 1.0], [1.0, 0.0]])
    gt = np.array([[1.0, 0.0], [1.0, 0.0]])
    val = mask_ce(Tensor(pred), gt).item()
    assert np.isfinite(val)
    # the clamp caps each term at -log(eps)
    assert val <= -np.log(1e-7) + 1e-9


def test_dice_closed_form():
    # pred = gt/2 gives overlap A/2 and masses (A/2, A), hence
    # dice = 1 - (A + eps) / (1.5 A + eps) exactly
    gt = np.zeros((8, 8))
    gt[2:6, 2:6] = 1.0
    a = gt.sum()
    pred = 0.5 * gt
    for eps in (1.0, 0.5):
        got = dice_loss(Tensor(pred), gt, eps=eps).item()
        want = 1.0 - (a + eps) / (1.5 * a + eps)
        assert abs(got - want) < 1e-12


def test_dice_perfect_and_empty():
    gt = np.zeros((4, 4))
    gt[1:3, 1:3] = 1.0
    exact = dice_loss(Tensor(gt.copy()), gt, eps=1.0).item()
    a = gt.sum()
    assert abs(exact - (1.0 - (2 * a + 1) / (2 * a + 1))) < 1e-12
    both_empty = dice_loss(Tensor(np.zeros((4, 4))), np.zeros((4, 4))).item()
    assert both_empty == 0.0


def test_dice_matches_direct_formula_random():
    rng = np.random.default_rng(1)
    for _ in range(5):
        pred = rng.random((5, 9))
        gt = (rng.random((5, 9)) < 0.4).astype(np.float64)
        got = dice_loss(Tensor(pred), gt, eps=1.0).item()
        want = 1 - (2 * (pred * gt).sum() + 1) / (pred.sum() + gt.sum() + 1)
        assert abs(got - want) < 1e-12


def test_combined_loss_region_average_and_weights():
    rng = np.random.default_rng(2)
    text = Tensor(0.7)
    masks = []
    for _ in range(3):
        pred = Tensor(rng.random((4, 4)))
        gt = (rng.random((4, 4)) < 0.5).astype(np.float64)
        masks.append((pred, gt))
    rep = combined_loss(text, masks)
    ce_want = np.mean([mask_ce(p, g).item() for p, g in masks])
    dice_want = np.mean([dice_loss(p, g).item() for p, g in masks])
    assert abs(rep.ce.item() - ce_want) < 1e-12
    assert abs(rep.dice.item() - dice_want) < 1e-12
    # the mask terms are summed unweighted, and added to the text loss as is
    assert rep.mask.item() == rep.ce.item() + rep.dice.item()
    assert rep.total.item() == 0.7 + rep.mask.item()
    scalars = rep.scalars()
    assert set(scalars) == {"total", "text", "mask", "ce", "dice"}


def test_combined_loss_without_masks():
    rep = combined_loss(Tensor(1.25), [])
    assert rep.total.item() == 1.25
    assert rep.mask.item() == 0.0
    assert rep.ce.item() == 0.0 and rep.dice.item() == 0.0


def test_combined_loss_backward_reaches_text_and_masks():
    rng = np.random.default_rng(3)
    text = Tensor(0.5, requires_grad=True)
    pred = Tensor(rng.random((3, 3)), requires_grad=True)
    gt = np.eye(3)
    rep = combined_loss(text, [(pred, gt)])
    rep.total.backward()
    assert text.grad is not None and float(text.grad) == 1.0
    assert pred.grad is not None and np.abs(pred.grad).sum() > 0


def test_shape_and_config_validation():
    with pytest.raises(ShapeError, match="mask loss"):
        mask_ce(Tensor(np.zeros((2, 2))), np.zeros((3, 3)))
    with pytest.raises(ShapeError, match="mask loss"):
        dice_loss(Tensor(np.zeros((2, 2))), np.zeros((3, 3)))
    # the objective has no settings: weights and epsilons are not config
    for name in ("alpha", "w_ce", "w_dice", "ce_eps", "dice_eps"):
        with pytest.raises(TypeError, match=name):
            RunConfig(**{name: 1.0})
