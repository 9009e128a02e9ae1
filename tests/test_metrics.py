import numpy as np
import pytest

from deepesn.experiment import choose_threshold, evaluate_readout
from deepesn.metrics import accuracy, frame_counts
from deepesn.readout import RidgeReadout


def brute_force_counts(predicted, target):
    tp = fp = fn = 0
    for p, t in zip(np.ravel(predicted), np.ravel(target)):
        if p and t:
            tp += 1
        elif p and not t:
            fp += 1
        elif not p and t:
            fn += 1
    return tp, fp, fn


class TestFrameCounts:
    def test_hand_case_one_third(self):
        # one hit, one spurious note, one miss
        counts = frame_counts(np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0]))
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 1)
        assert counts.accuracy == 1 / 3

    def test_empty_pool_scores_one(self):
        assert accuracy(np.zeros(5), np.zeros(5)) == 1.0

    def test_perfect_and_disjoint(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 0, 1])) == 1.0
        assert accuracy(np.array([1, 0]), np.array([0, 1])) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            shape = (int(rng.integers(1, 10)), int(rng.integers(1, 10)))
            p = rng.integers(0, 2, size=shape)
            t = rng.integers(0, 2, size=shape)
            counts = frame_counts(p, t)
            assert (counts.tp, counts.fp, counts.fn) == brute_force_counts(p, t)

    def test_nonzero_counts_as_active(self):
        counts = frame_counts(np.array([0.7, 0.0]), np.array([1, 1]))
        assert (counts.tp, counts.fn) == (1, 1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            frame_counts(np.zeros(3), np.zeros(4))


def identity_readout(width):
    """A readout whose continuous outputs are its states, on at 0.5."""
    return RidgeReadout(np.vstack([np.eye(width), np.zeros(width)]))


class TestAggregation:
    """`evaluate_readout` pools TP/FP/FN over all pairs before dividing."""

    def test_pooled_weighs_by_notes(self):
        # pair A: 1 hit; pair B: 3 spurious, 3 missed
        a = (np.array([[1, 0]]), np.array([[1, 0]]))
        b = (np.array([[1, 1], [1, 0], [0, 0]]), np.array([[0, 0], [0, 1], [1, 1]]))
        assert evaluate_readout(identity_readout(2), [a, b]) == 1 / 7
        assert (accuracy(*a) + accuracy(*b)) / 2 == 0.5  # not the mean per pair

    def test_pooled_empty_is_one(self):
        readout = identity_readout(3)
        assert evaluate_readout(readout, []) == 1.0
        assert choose_threshold(readout.weights, []) == 0.1

    def test_pooled_matches_manual_merge(self):
        rng = np.random.default_rng(1)
        pairs = [
            (rng.integers(0, 2, size=(5, 4)), rng.integers(0, 2, size=(5, 4)))
            for _ in range(6)
        ]
        tp = fp = fn = 0
        for p, t in pairs:
            dtp, dfp, dfn = brute_force_counts(p, t)
            tp, fp, fn = tp + dtp, fp + dfp, fn + dfn
        assert evaluate_readout(identity_readout(4), pairs) == tp / (tp + fp + fn)
