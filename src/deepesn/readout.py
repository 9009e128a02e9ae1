"""Linear readout trained by ridge regression in streaming form.

States never need to be held in one giant design matrix: an accumulator
keeps the normal-equation blocks X^T X and X^T Y (with a constant bias
feature appended to X) and grows them batch by batch. Solving for a
given ridge strength is then a single symmetric solve, so sweeping
several strengths reuses the same accumulated blocks. Predictions are
affine maps of the state, binarized at a threshold for on/off targets.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dgemm, dsyrk

from .reservoir import _check_count, _check_rows

logger = logging.getLogger(__name__)

__all__ = ["RidgeAccumulator", "RidgeReadout", "ridge_solve", "binarize"]


def ridge_solve(xtx: np.ndarray, xty: np.ndarray, ridge: float) -> np.ndarray:
    """Solve (X^T X + ridge I) W = X^T Y for W.

    Only the upper triangle of `xtx` is read. The regularizer is added to
    every diagonal entry, the bias feature included. The solve works on
    one Fortran-order copy of `xtx`.
    """
    return _solve(lambda: np.array(xtx, dtype=float, order="F"), xty, ridge)


def _solve(build, xty: np.ndarray, ridge: float) -> np.ndarray:
    """Solve the system whose Fortran-order copy of X^T X `build()` returns.

    The copy's upper triangle is all that is read. It gets the ridge on
    its diagonal and is factorized in place, so the solve holds one n^2
    working array. If the Cholesky factorization fails, `build()` runs
    again and a least-squares solve runs on its result made full and
    symmetric.
    """
    _check_ridge(ridge)
    try:
        factor = cho_factor(_add_ridge(build(), ridge), overwrite_a=True)
        return cho_solve(factor, xty)
    except np.linalg.LinAlgError:
        logger.warning(
            "normal equations not positive definite at ridge=%g; "
            "falling back to least squares",
            ridge,
        )
        a = _symmetric(_add_ridge(build(), ridge))
        return np.linalg.lstsq(a, xty, rcond=None)[0]


def _check_ridge(ridge: float) -> None:
    """Raise ValueError unless `ridge` is finite and >= 0."""
    if not 0.0 <= ridge < math.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")


def _add_ridge(a: np.ndarray, ridge: float) -> np.ndarray:
    a.flat[:: a.shape[0] + 1] += ridge
    return a


def _symmetric(a: np.ndarray) -> np.ndarray:
    """The full symmetric matrix that the upper triangle of `a` stands for."""
    return np.triu(a) + np.triu(a, 1).T


def binarize(values: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Map continuous outputs to {0, 1}; values at the threshold are on."""
    return (np.asarray(values) >= threshold).astype(np.int8)


class RidgeAccumulator:
    """Streaming accumulator for the ridge normal equations.

    Feature vectors are reservoir states of length `state_dim` with an
    implicit constant 1 appended, so the solved weights carry an output
    bias in their last row.
    """

    def __init__(self, state_dim: int, output_dim: int):
        self.state_dim = _check_count("state_dim", state_dim, 1)
        self.output_dim = _check_count("output_dim", output_dim, 1)
        # upper triangle of the state block of X^T X, updated in place
        self._gram = np.zeros((state_dim, state_dim), order="F")
        self._col_sums = np.zeros(state_dim)
        self.xty = np.zeros((state_dim + 1, output_dim))
        self.n_samples = 0
        self._work = None

    def add(self, states: np.ndarray, targets: np.ndarray) -> None:
        """Accumulate a batch of (state, target) rows.

        `states` has shape (T, state_dim) and `targets` (T, output_dim).
        The bias blocks are updated without materializing the augmented
        design matrix, and the state block by one in-place symmetric
        rank-T update of its upper triangle.
        """
        states = _check_rows("states", states, self.state_dim)
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (states.shape[0], self.output_dim):
            raise ValueError(
                f"targets must have shape ({states.shape[0]}, {self.output_dim}), "
                f"got {targets.shape}"
            )
        d = self.state_dim
        # Both products go to scipy's BLAS, in place: c is float64 and
        # F-contiguous, so f2py makes no copy of it. Switching between
        # numpy's and scipy's BLAS thread pools on every batch costs more
        # than the products at a few hundred features.
        dsyrk(1.0, states.T, beta=1.0, c=self._gram, lower=0, overwrite_c=1)
        dgemm(1.0, targets.T, states.T, beta=1.0, c=self.xty[:d].T, trans_b=1,
              overwrite_c=1)
        self._col_sums += states.sum(axis=0)
        self.xty[d] += targets.sum(axis=0)
        self.n_samples += states.shape[0]

    @property
    def xtx(self) -> np.ndarray:
        """The accumulated X^T X as a new full symmetric array."""
        return _symmetric(self._system())

    def _system(self) -> np.ndarray:
        """X^T X in the accumulator's Fortran-order working array.

        The array is allocated on the first call and refilled in place on
        every later one, so each ridge's solve reuses pages already
        touched. Only its upper triangle is exact, and only that is read.
        """
        d = self.state_dim
        if self._work is None:
            self._work = np.zeros((d + 1, d + 1), order="F")
        a = self._work
        a[:d, :d] = self._gram
        a[:d, d] = self._col_sums
        a[d, d] = self.n_samples
        return a

    def solve(self, ridge: float, threshold: float = 0.5) -> "RidgeReadout":
        """Solve the accumulated system into a ready-to-use readout."""
        if self.n_samples == 0:
            raise ValueError("cannot solve a readout from zero samples")
        return RidgeReadout(
            weights=_solve(self._system, self.xty, ridge), threshold=threshold
        )


@dataclass
class RidgeReadout:
    """Trained affine readout with a binarization threshold.

    `weights` has shape (state_dim + 1, output_dim); the last row is the
    output bias.
    """

    weights: np.ndarray
    threshold: float = 0.5

    @property
    def state_dim(self) -> int:
        return self.weights.shape[0] - 1

    @property
    def output_dim(self) -> int:
        return self.weights.shape[1]

    def predict_continuous(self, states: np.ndarray) -> np.ndarray:
        """Affine outputs before binarization, shape (T, output_dim)."""
        states = _check_rows("states", states, self.state_dim)
        return states @ self.weights[:-1] + self.weights[-1]

    def predict(self, states: np.ndarray) -> np.ndarray:
        """Binary outputs, thresholding the continuous predictions."""
        return binarize(self.predict_continuous(states), self.threshold)
