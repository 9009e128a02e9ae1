"""Spectral radius and operator 2-norm estimation for reservoir matrices.

Small matrices are handled with dense LAPACK routines; large ones with
seeded iterative solvers (power iteration and ARPACK for radii, a
sparse SVD for norms) plus dense fallbacks, so that results are
deterministic for a fixed input. Every fallback is logged at DEBUG
level on this module's logger.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import NumericalError

logger = logging.getLogger(__name__)

# Below this order a dense eigendecomposition is cheaper than iterating.
_DENSE_EIG_MAX = 64
# Dense SVD is used while m*n stays below this, or when one side is tiny.
_DENSE_SVD_MAX_ELEMS = 2_000_000
_DENSE_SVD_MAX_MINDIM = 64
# Power-iteration budget: products from the one seeded start.
_POWER_MAX_ITER = 1000
# Above this order the Arnoldi solver runs before power iteration: random
# reservoir spectra fill a disk, so the dominant magnitude is nearly
# degenerate and power iteration would exhaust its budget first.
_ARNOLDI_FIRST_MIN = 1024
# Hard ceiling for the last-resort dense eigendecomposition.
_DENSE_FALLBACK_MAX = 8192
# Relative tolerance of the iterative radius and norm estimators.
_RTOL = 1e-6


def _power_iteration_radius(matrix, n):
    """Estimate |lambda_max| by power iteration from one seeded start.

    Returns None when _POWER_MAX_ITER products do not converge, as when
    the dominant eigenvalues form a complex-conjugate pair.
    """
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(_POWER_MAX_ITER):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        rayleigh = v @ w
        estimate = float(abs(rayleigh))
        residual = np.linalg.norm(w - estimate * np.sign(rayleigh) * v)
        v = w / norm
        if residual <= 0.1 * _RTOL * max(estimate, 1e-300):
            return estimate
    return None


def _arnoldi_radius(matrix, n):
    """Estimate |lambda_max| with ARPACK, or None when it fails.

    The Krylov subspace is kept well above the ARPACK default: random
    reservoir spectra cluster near the dominant magnitude, and a small
    subspace can stagnate on a subdominant pair while reporting
    convergence.
    """
    try:
        vals = scipy.sparse.linalg.eigs(
            matrix,
            k=min(6, n - 2),
            which="LM",
            tol=_RTOL,
            ncv=min(n - 1, 96),
            return_eigenvectors=False,
            v0=np.random.default_rng(0).standard_normal(n),
        )
        return float(np.max(np.abs(vals)))
    except Exception:
        return None


def spectral_radius(matrix) -> float:
    """Largest eigenvalue magnitude of a square dense or sparse matrix.

    Matrices of order <= 64 use a dense eigendecomposition. Larger ones
    try one seeded run of power iteration, then ARPACK; above
    order 1024 ARPACK goes first, where power iteration would stall on
    a near-degenerate dominant magnitude. Each failed estimator logs
    one DEBUG record. A dense decomposition is the last resort before
    raising NumericalError.
    """
    if sp.issparse(matrix):
        matrix = matrix.tocsr()
    else:
        matrix = np.asarray(matrix, dtype=float)
    shape = matrix.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"spectral radius needs a square matrix, got shape {shape}")
    n = shape[0]
    if n == 0:
        return 0.0
    if n > _DENSE_EIG_MAX:
        estimators = [("power iteration", _power_iteration_radius),
                      ("ARPACK", _arnoldi_radius)]
        if n > _ARNOLDI_FIRST_MIN:
            estimators.reverse()
        for name, estimator in estimators:
            estimate = estimator(matrix, n)
            if estimate is not None:
                return estimate
            logger.debug("%s failed on a %dx%d matrix; falling back", name, n, n)
    if n <= _DENSE_FALLBACK_MAX:
        dense = matrix.toarray() if sp.issparse(matrix) else matrix
        return float(np.max(np.abs(np.linalg.eigvals(dense))))
    raise NumericalError(
        f"spectral radius estimation failed to converge for a {n}x{n} matrix"
    )


def operator_norm(matrix) -> float:
    """Largest singular value of a dense or sparse matrix.

    Small and thin matrices use a dense SVD. Larger ones use a seeded
    sparse SVD, with a dense SVD as the fallback.
    """
    if not sp.issparse(matrix):
        matrix = np.asarray(matrix, dtype=float)
    shape = matrix.shape
    if len(shape) != 2:
        raise ValueError(f"operator norm needs a 2-d matrix, got shape {shape}")
    m, n = shape
    if m == 0 or n == 0:
        return 0.0
    small = m * n <= _DENSE_SVD_MAX_ELEMS or min(m, n) <= _DENSE_SVD_MAX_MINDIM
    if not small:
        try:
            vals = scipy.sparse.linalg.svds(
                matrix,
                k=1,
                tol=_RTOL,
                return_singular_vectors=False,
                v0=np.random.default_rng(0).standard_normal(min(m, n)),
            )
            return float(np.max(vals))
        except Exception:
            logger.debug("sparse SVD failed; falling back to dense SVD")
    if small or m * n <= _DENSE_FALLBACK_MAX**2:
        dense = matrix.toarray() if sp.issparse(matrix) else matrix
        return float(np.linalg.svd(dense, compute_uv=False)[0])
    raise NumericalError(
        f"operator norm estimation failed to converge for a {m}x{n} matrix"
    )
