"""Segmentation metrics: per-pair IoU and the dataset aggregates.

cIoU pools intersection and union pixel counts over the whole list before
dividing; gIoU averages per-sample IoU values. mIoU is reported as an alias
of gIoU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError


@dataclass
class MetricReport:
    per_sample_iou: list[float]
    ciou: float
    giou: float
    miou: float
    n: int
    total_intersection: int
    total_union: int


def _counts(pred: np.ndarray, gt: np.ndarray) -> tuple[int, int]:
    """(|pred ∩ gt|, |pred ∪ gt|) in pixels."""
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise ShapeError(f"iou: pred {pred.shape} vs gt {gt.shape}")
    return int(np.logical_and(pred, gt).sum()), int(np.logical_or(pred, gt).sum())


def _ratio(inter: int, union: int) -> float:
    return inter / union if union > 0 else 1.0  # both empty is a perfect 1.0


def iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """|pred ∩ gt| / |pred ∪ gt|; both empty counts as a perfect 1.0."""
    return _ratio(*_counts(pred, gt))


def aggregate(pairs: list[tuple[np.ndarray, np.ndarray]]) -> MetricReport:
    if not pairs:
        raise ValueError("aggregate: empty sample list")
    counts = [_counts(p, g) for p, g in pairs]
    per_sample = [_ratio(i, u) for i, u in counts]
    inter, union = map(sum, zip(*counts))
    giou = float(np.mean(per_sample))
    return MetricReport(per_sample_iou=per_sample, ciou=_ratio(inter, union),
                        giou=giou, miou=giou, n=len(pairs),
                        total_intersection=inter, total_union=union)
