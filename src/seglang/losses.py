"""Training objectives: pixel cross-entropy, soft Dice, combined total.

The total is text_loss + (CE + Dice), unweighted, with each mask term
averaged over a sample's regions. Everything returns live Tensors so one
backward() covers the whole objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, ShapeError, add, clip, div, mul, tlog, tmean, tsum


@dataclass
class LossReport:
    total: Tensor
    text: Tensor
    mask: Tensor
    ce: Tensor
    dice: Tensor

    def scalars(self) -> dict[str, float]:
        return {k: float(getattr(self, k).data)
                for k in ("total", "text", "mask", "ce", "dice")}


def _check_dims(pred: Tensor, gt: np.ndarray) -> np.ndarray:
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"mask loss: pred {pred.shape} vs gt {gt.shape}")
    return gt


def mask_ce(pred: Tensor, gt: np.ndarray, eps: float = 1e-7) -> Tensor:
    """Mean binary cross-entropy; predictions clamped to [eps, 1-eps]."""
    gt = _check_dims(pred, gt)
    p = clip(pred, eps, 1.0 - eps)
    ll = add(mul(tlog(p), gt), mul(tlog(add(1.0, mul(p, -1.0))), 1.0 - gt))
    return mul(tmean(ll), -1.0)


def dice_loss(pred: Tensor, gt: np.ndarray, eps: float = 1.0) -> Tensor:
    """1 - (2*overlap + eps) / (mass_pred + mass_gt + eps)."""
    gt = _check_dims(pred, gt)
    overlap = tsum(mul(pred, gt))
    denom = add(add(tsum(pred), float(gt.sum())), eps)
    return add(1.0, mul(div(add(mul(overlap, 2.0), eps), denom), -1.0))


def combined_loss(text: Tensor,
                  masks: list[tuple[Tensor, np.ndarray]]) -> LossReport:
    """Assemble the full objective; `masks` pairs predictions with GT."""
    if masks:
        n = float(len(masks))
        ce = mul(_sum_terms([mask_ce(p, g) for p, g in masks]), 1.0 / n)
        dice = mul(_sum_terms([dice_loss(p, g) for p, g in masks]), 1.0 / n)
    else:
        ce = Tensor(0.0)
        dice = Tensor(0.0)
    mask_term = add(ce, dice)
    return LossReport(total=add(text, mask_term), text=text, mask=mask_term,
                      ce=ce, dice=dice)


def _sum_terms(terms: list[Tensor]) -> Tensor:
    acc = terms[0]
    for t in terms[1:]:
        acc = add(acc, t)
    return acc
