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
    """Solve the system whose X^T X `build()` returns in Fortran order.

    The array's upper triangle is all that is read. It gets the ridge on
    its diagonal and is factorized in place, so the solve makes no n^2
    array beyond the finiteness checks' masks. If the Cholesky
    factorization fails, `build()` runs again and a least-squares solve
    runs on its result with the upper triangle mirrored into the lower.
    """
    _check_ridge(ridge)
    a = build()
    a.flat[:: len(a) + 1] += ridge
    try:
        return cho_solve(cho_factor(a, overwrite_a=True), xty)
    except np.linalg.LinAlgError:
        logger.warning("normal equations not positive definite at ridge=%g; "
                       "falling back to least squares", ridge)
    a = build()
    a.flat[:: len(a) + 1] += ridge
    _mirror_lower(a.T)
    return np.linalg.lstsq(a, xty, rcond=None)[0]


def _check_ridge(ridge: float) -> None:
    """Raise ValueError unless `ridge` is finite and >= 0."""
    if not 0.0 <= ridge < math.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")


# side of the tiles that the in-place copies below move at once
_TILE = 128
_STRICT_UPPER = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the strict lower triangle of square `a` onto its strict upper."""
    n = len(a)
    for j0 in range(0, n, _TILE):
        j1 = min(j0 + _TILE, n)
        for i0 in range(0, j0, _TILE):
            a[i0 : i0 + _TILE, j0:j1] = a[j0:j1, i0 : i0 + _TILE].T
        block = a[j0:j1, j0:j1]
        np.copyto(block, block.T, where=_STRICT_UPPER[: j1 - j0, : j1 - j0])


def _move_columns(buf: np.ndarray, d: int, widen: bool) -> None:
    """Move rows 0..j of each column j < d of `buf` from offset j*d to j*(d+1)
    (`widen`) or back, in an order that overwrites no column still to move."""
    starts = range(0, d, _TILE)
    for j0 in reversed(starts) if widen else starts:
        j1 = min(j0 + _TILE, d)
        narrow, wide = (buf[j0 * n : j1 * n].reshape(-1, n)[:, :j1] for n in (d, d + 1))
        np.copyto(*((wide, narrow) if widen else (narrow, wide)))


def binarize(values: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Map continuous outputs to {0, 1}; values at the threshold are on."""
    return (np.asarray(values) >= threshold).astype(np.int8)


class RidgeAccumulator:
    """Streaming accumulator for the ridge normal equations.

    Feature vectors are reservoir states of length `state_dim` with an
    implicit constant 1 appended, so the solved weights carry an output
    bias in their last row.

    X^T X lives in one (state_dim + 1)^2 buffer. `add` updates the upper
    triangle of the Fortran-order Gram in its front. The first solve after
    it widens that to the system, mirrors it into the strict lower triangle,
    which Cholesky never writes, and keeps the diagonal aside, to restore
    the upper triangle from for each later solve or add.
    """

    def __init__(self, state_dim: int, output_dim: int):
        self.state_dim = _check_count("state_dim", state_dim, 1)
        self.output_dim = _check_count("output_dim", output_dim, 1)
        d = state_dim
        self._buf = np.zeros((d + 1) ** 2)
        self._square = self._buf.reshape((d + 1, d + 1), order="F")
        # upper triangle of the state block of X^T X, updated in place
        self._gram = self._buf[: d * d].reshape((d, d), order="F")
        self._col_sums = np.zeros(state_dim)
        self.xty = np.zeros((state_dim + 1, output_dim))
        self.n_samples = 0
        self._diag = None  # the system's diagonal, while the buffer holds it

    def add(self, states: np.ndarray, targets: np.ndarray) -> None:
        """Accumulate a batch of (state, target) rows.

        `states` has shape (T, state_dim) and `targets` (T, output_dim),
        and both must be finite. The bias blocks are updated without
        materializing the augmented design matrix, and the state block by
        one in-place symmetric rank-T update of its upper triangle.
        """
        states = _check_rows("states", states, self.state_dim)
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (states.shape[0], self.output_dim):
            raise ValueError(
                f"targets must have shape ({states.shape[0]}, {self.output_dim}), "
                f"got {targets.shape}"
            )
        sums = states.sum(axis=0), targets.sum(axis=0)
        for name, array, total in zip(("states", "targets"), (states, targets), sums):
            if not np.isfinite(total).all() and not np.isfinite(array).all():
                raise ValueError(f"{name} must be finite")  # not just overflow
        d = self.state_dim
        if self._diag is not None:
            self._system()  # restores the upper triangle and the diagonal
            _move_columns(self._buf, d, widen=False)
            self._diag = None
        # Both products go to scipy's BLAS, in place: c is float64 and
        # F-contiguous, so f2py makes no copy of it. Switching between
        # numpy's and scipy's BLAS thread pools on every batch costs more
        # than the products at a few hundred features.
        dsyrk(1.0, states.T, beta=1.0, c=self._gram, lower=0, overwrite_c=1)
        dgemm(1.0, targets.T, states.T, beta=1.0, c=self.xty[:d].T, trans_b=1,
              overwrite_c=1)
        self._col_sums += sums[0]
        self.xty[d] += sums[1]
        self.n_samples += states.shape[0]

    @property
    def xtx(self) -> np.ndarray:
        """The accumulated X^T X as a new full symmetric array."""
        return self._system().copy()

    def _system(self) -> np.ndarray:
        """X^T X, symmetric, as the buffer's (d + 1)^2 Fortran-order view:
        laid out from the Gram after an add, else restored from the mirror."""
        a, d = self._square, self.state_dim
        if self._diag is None:
            _move_columns(self._buf, d, widen=True)
            a[:d, d] = self._col_sums
            a[d, d] = self.n_samples
            self._diag = a.diagonal().copy()
            _mirror_lower(a.T)
        else:
            _mirror_lower(a)
            a.flat[:: d + 2] = self._diag
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
