"""Frame-level accuracy for multivariate binary prediction.

A predicted frame is compared against a target frame note by note:
true positives are notes active in both, false positives are predicted
but absent, false negatives are absent but expected. Accuracy is

    ACC = TP / (TP + FP + FN)

pooled over every time step of every sequence. True negatives do not
appear, so the all-silent prediction scores zero unless the target is
silent too; an empty pool (no active notes anywhere in predictions or
targets) scores 1.0 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FrameCounts", "frame_counts", "accuracy"]


@dataclass(frozen=True)
class FrameCounts:
    """True-positive / false-positive / false-negative tallies."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def accuracy(self) -> float:
        denom = self.tp + self.fp + self.fn
        return self.tp / denom if denom > 0 else 1.0


def frame_counts(predicted: np.ndarray, target: np.ndarray) -> FrameCounts:
    """Count TP/FP/FN between two equally shaped binary arrays.

    Nonzero entries count as active. Works on a single frame or a whole
    (T, dim) sequence alike.
    """
    predicted = np.asarray(predicted, dtype=bool)
    target = np.asarray(target, dtype=bool)
    if predicted.shape != target.shape:
        raise ValueError(
            f"shape mismatch: predicted {predicted.shape} vs target {target.shape}"
        )
    tp = np.count_nonzero(predicted & target)
    fp, fn = np.count_nonzero(predicted) - tp, np.count_nonzero(target) - tp
    return FrameCounts(tp, fp, fn)


def accuracy(predicted: np.ndarray, target: np.ndarray) -> float:
    """Frame-level accuracy of one prediction/target pair."""
    return frame_counts(predicted, target).accuracy
