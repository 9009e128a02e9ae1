"""Linear readout trained by ridge regression in streaming form.

States never need to be held in one giant design matrix: an accumulator
keeps the normal-equation blocks X^T X and X^T Y (with a constant bias
feature appended to X) and grows them batch by batch. Solving for a
given ridge strength is then a single symmetric solve, so sweeping
several strengths reuses the same accumulated blocks. Predictions are
affine maps of the state, binarized at a threshold for on/off targets.

Every threaded BLAS or LAPACK call of the readout but the least-squares
fallback (the SYRK, the GEMMs, the Cholesky solves) runs on scipy's
OpenBLAS: numpy and scipy each ship their own, with its own thread
pool, and waking both pools in one trial makes them compete for CPUs.
`sweep_ridges` runs them on one thread for up to `_ONE_THREAD_MAX_DIM`
features (see `_blas_threads`), the width up to which the reservoir
phases run on one thread too. The system is checked for infs and NaNs
once per add, not by every LAPACK call of every ridge.
"""

from __future__ import annotations

import ctypes
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cython_blas
from scipy.linalg.blas import dgemm, dsyrk

from .reservoir import _ONE_THREAD_MAX_DIM, _check_count, _check_rows

logger = logging.getLogger(__name__)

__all__ = ["RidgeAccumulator", "RidgeReadout", "ridge_solve"]


def _openblas_threads():
    """(get, set) of the thread count of scipy's OpenBLAS, or None when
    scipy's BLAS is another library or does not export them."""
    try:
        lib = ctypes.CDLL(cython_blas.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        get = getattr(lib, f"{prefix}_get_num_threads", None)
        put = getattr(lib, f"{prefix}_set_num_threads", None)
        if get is not None and put is not None:
            return get, put
    return None


_THREADS = _openblas_threads()


@contextmanager
def _blas_threads(dim: int):
    """Run scipy's BLAS on one thread inside the block for states of up to
    `_ONE_THREAD_MAX_DIM` features, then restore its thread count.

    A second thread saves little at those widths, and after each call it
    spins on a CPU for a while, so any other busy process slows the
    single-threaded reservoir work that follows: on 2 CPUs, one busy
    process took a 500-feature grid item from 0.12 to 0.22 s with two
    threads, while with one it stayed at 0.12 s. Above the same width,
    `reservoir._parts` runs the reservoir phases on two threads.
    """
    if _THREADS is None or dim > _ONE_THREAD_MAX_DIM:
        yield
        return
    get, put = _THREADS
    count = get()
    put(1)
    try:
        yield
    finally:
        put(count)


def ridge_solve(xtx: np.ndarray, xty: np.ndarray, ridge: float) -> np.ndarray:
    """Solve (X^T X + ridge I) W = X^T Y for W.

    Only the upper triangle of `xtx` is read. The regularizer is added to
    every diagonal entry, the bias feature included. The solve works on
    one Fortran-order copy of `xtx`.
    """
    return _solve(lambda: _finite(np.array(xtx, dtype=float, order="F")), xty, ridge)


# scipy's message when a LAPACK wrapper's own finiteness check fails
_NOT_FINITE = "array must not contain infs or NaNs"


def _finite(array: np.ndarray) -> np.ndarray:
    """`array`, or scipy's ValueError if it holds an inf or a NaN."""
    if not np.isfinite(array).all():
        raise ValueError(_NOT_FINITE)
    return array


def _solve(build, xty: np.ndarray, ridge: float) -> np.ndarray:
    """Solve the system whose X^T X `build()` returns in Fortran order.

    `build()` raises ValueError unless the array is finite, so neither
    LAPACK call checks it again: with the ridge on its diagonal, checked
    there, a finite system has a finite factor. The array's upper
    triangle is all that is read. It gets the ridge on its diagonal and
    is factorized in place, so the solve makes no n^2 array beyond the
    finiteness check's mask. If the Cholesky factorization fails,
    `build()` runs again and a least-squares solve runs on its result
    with the upper triangle mirrored into the lower.
    """
    _check_ridge(ridge)
    xty = _finite(np.asarray(xty))
    a = build()
    a.flat[:: len(a) + 1] += ridge
    _finite(a.diagonal())
    try:
        factor = cho_factor(a, overwrite_a=True, check_finite=False)
        return cho_solve(factor, xty, check_finite=False)
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


# side of the tiles that the in-place copy below moves at once
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


class RidgeAccumulator:
    """Streaming accumulator for the ridge normal equations.

    Feature vectors are reservoir states of length `state_dim` with an
    implicit constant 1 appended, so the solved weights carry an output
    bias in their last row.

    X^T X lives in one Fortran-order (state_dim + 1)^2 array, always laid
    out as the system. `add` updates its upper triangle. The first solve
    after an add mirrors that into the strict lower triangle, which
    Cholesky never writes, and keeps the diagonal aside, to restore the
    upper triangle from for each later solve or add. That first solve
    also checks the system for infs and NaNs, which finite batches can
    still make by overflowing, and each later solve reuses the answer.
    """

    def __init__(self, state_dim: int, output_dim: int):
        self.state_dim = _check_count("state_dim", state_dim, 1)
        self.output_dim = _check_count("output_dim", output_dim, 1)
        self._square = np.zeros((state_dim + 1, state_dim + 1), order="F")
        self.xty = np.zeros((state_dim + 1, output_dim))
        self.n_samples = 0
        self._diag = None  # the system's diagonal, while the mirror holds it
        self._all_finite = True  # whether the mirrored system is finite

    def add(self, states: np.ndarray, targets: np.ndarray) -> None:
        """Accumulate a batch of (state, target) rows.

        `states` has shape (T, state_dim) and `targets` (T, output_dim),
        and both must be finite. One in-place symmetric rank-T update adds
        the batch, copied once beside a zero column, to the whole upper
        triangle. Zeros add exactly, so the state block keeps the bits of
        an update by the states alone; the bias column then gets the
        column sums, which a column of ones would round differently.
        """
        states = _check_rows("states", states, self.state_dim)
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (states.shape[0], self.output_dim):
            raise ValueError(
                f"targets must have shape ({states.shape[0]}, {self.output_dim}), "
                f"got {targets.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            sums = states.sum(axis=0), targets.sum(axis=0)
        for name, array, total in zip(("states", "targets"), (states, targets), sums):
            if not np.isfinite(total).all() and not np.isfinite(array).all():
                raise ValueError(f"{name} must be finite")  # not just overflow
        a, d = self._square, self.state_dim
        if self._diag is not None:
            self._system()  # restores the upper triangle and the diagonal
            self._diag = None
        padded = np.zeros((states.shape[0], d + 1))
        padded[:, :d] = states
        # c is float64 and F-contiguous, so f2py updates it in place.
        dsyrk(1.0, padded.T, beta=1.0, c=a, lower=0, overwrite_c=1)
        dgemm(1.0, targets.T, states.T, beta=1.0, c=self.xty[:d].T, trans_b=1,
              overwrite_c=1)
        a[:d, d] += sums[0]
        self.xty[d] += sums[1]
        self.n_samples += states.shape[0]
        a[d, d] = self.n_samples

    @property
    def xtx(self) -> np.ndarray:
        """The accumulated X^T X as a new full symmetric array."""
        return self._system().copy()

    def _system(self) -> np.ndarray:
        """X^T X, symmetric, in the (d + 1)^2 Fortran-order array: mirrored
        from the upper triangle after an add, else restored from the mirror."""
        a = self._square
        if self._diag is None:
            self._diag = a.diagonal().copy()
            _mirror_lower(a.T)
            self._all_finite = bool(np.isfinite(a).all())
        else:
            _mirror_lower(a)
            a.flat[:: len(a) + 1] = self._diag
        return a

    def solve(self, ridge: float, threshold: float = 0.5) -> "RidgeReadout":
        """Solve the accumulated system into a ready-to-use readout."""
        if self.n_samples == 0:
            raise ValueError("cannot solve a readout from zero samples")
        return RidgeReadout(
            weights=_solve(self._finite_system, self.xty, ridge), threshold=threshold
        )

    def _finite_system(self) -> np.ndarray:
        """`_system()`, or a ValueError if it holds an inf or a NaN."""
        a = self._system()
        if not self._all_finite:
            raise ValueError(_NOT_FINITE)
        return a


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
        out = np.empty((states.shape[0], self.output_dim))
        if out.size:  # scipy's dgemm refuses an empty product
            dgemm(1.0, self.weights[:-1].T, states.T, c=out.T, overwrite_c=1)
        out += self.weights[-1]
        return out

    def predict(self, states: np.ndarray) -> np.ndarray:
        """Binary outputs in {0, 1}; continuous predictions at the threshold
        are on."""
        return (self.predict_continuous(states) >= self.threshold).astype(np.int8)
