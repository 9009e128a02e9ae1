import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import deepesn.linalg
from deepesn.linalg import _ARNOLDI_FIRST_MIN, operator_norm, spectral_radius


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([1.0, -2.0, 0.5])) == 2.0

    def test_rotation_has_complex_pair(self):
        # eigenvalues are +-i; the dense path must still return 1
        assert spectral_radius(np.array([[0.0, -1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_large_symmetric_matches_dense(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((200, 200))
        m = m + m.T
        expected = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert spectral_radius(m) == pytest.approx(expected, rel=1e-5)

    def test_large_shifted_sparse_matches_dense(self):
        # 0.5 I + 0.5 W has a unique dominant real eigenvalue, the
        # shape of matrix the reservoir initialization cares about
        rng = np.random.default_rng(1)
        w = sp.random(300, 300, density=0.05, random_state=2, format="csr")
        m = (0.5 * sp.identity(300, format="csr") + 0.5 * w).tocsr()
        expected = float(np.max(np.abs(np.linalg.eigvals(m.toarray()))))
        assert spectral_radius(m) == pytest.approx(expected, rel=1e-5)

    def test_large_unsymmetric_falls_back(self):
        # random matrices have complex dominant pairs; power iteration
        # alone cannot converge, so the fallbacks must kick in
        rng = np.random.default_rng(3)
        m = rng.uniform(-1.0, 1.0, size=(150, 150))
        expected = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert spectral_radius(m) == pytest.approx(expected, rel=1e-5)

    def test_power_iteration_budget_before_arpack(self, monkeypatch):
        # the same complex dominant pair: power iteration may spend at
        # most one budget of products before ARPACK takes over
        class CountingCsr(sp.csr_array):
            products = 0

            def __matmul__(self, other):
                CountingCsr.products += 1
                return super().__matmul__(other)

        before_arpack = []
        arnoldi = deepesn.linalg._arnoldi_radius

        def counted_arnoldi(matrix, n):
            before_arpack.append(CountingCsr.products)
            return arnoldi(matrix, n)

        monkeypatch.setattr(deepesn.linalg, "_arnoldi_radius", counted_arnoldi)
        rng = np.random.default_rng(3)
        m = rng.uniform(-1.0, 1.0, size=(150, 150))
        expected = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert spectral_radius(CountingCsr(m)) == pytest.approx(expected, rel=1e-5)
        assert len(before_arpack) == 1
        assert 0 < before_arpack[0] <= deepesn.linalg._POWER_MAX_ITER

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((3, 4)))


class TestOperatorNorm:
    def test_diagonal_rectangle(self):
        m = np.zeros((3, 2))
        m[0, 0] = 2.0
        m[1, 1] = -3.0
        assert operator_norm(m) == pytest.approx(3.0, rel=1e-12)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((4, 2))) == 0.0

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(-1.0, 1.0, size=(100, 50))
        expected = float(np.linalg.svd(m, compute_uv=False)[0])
        assert operator_norm(m) == pytest.approx(expected, rel=1e-10)

    def test_large_sparse_matches_dense_svd(self):
        # big enough that the dense-SVD shortcut does not apply
        m = sp.random(1500, 1500, density=0.01, random_state=5, format="csr")
        expected = float(np.linalg.svd(m.toarray(), compute_uv=False)[0])
        assert operator_norm(m) == pytest.approx(expected, rel=1e-5)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            operator_norm(np.ones(5))


def _fail(*args, **kwargs):
    raise RuntimeError("forced solver failure")


def _linalg_records(caplog):
    return [r for r in caplog.records if r.name == "deepesn.linalg"]


class TestFallbacksAreLogged:
    """Every numerical fallback leaves one DEBUG record; normal paths none.

    The benchmark counts these records, telling norm fallbacks (message
    contains "SVD") from radius fallbacks.
    """

    @pytest.fixture(autouse=True)
    def debug_logs(self, caplog):
        caplog.set_level(logging.DEBUG, logger="deepesn.linalg")

    @pytest.fixture
    def large_square(self):
        # Nonnegative entries give a simple real dominant eigenvalue, so
        # the power iteration after a failed ARPACK call converges.
        n = _ARNOLDI_FIRST_MIN + 76
        w = sp.random(n, n, density=0.01, random_state=6, format="csr")
        return (0.5 * sp.identity(n, format="csr") + 0.5 * w).tocsr()

    @pytest.fixture
    def large_rectangle(self):
        # Above the dense-SVD size limit of operator_norm.
        return sp.random(1600, 1500, density=0.01, random_state=7, format="csr")

    def test_radius_normal_path_is_silent(self, large_square, caplog):
        spectral_radius(large_square)
        spectral_radius(np.diag([1.0, -2.0]))
        assert _linalg_records(caplog) == []

    def test_norm_normal_path_is_silent(self, large_rectangle, caplog):
        operator_norm(large_rectangle)
        operator_norm(np.ones((3, 2)))
        assert _linalg_records(caplog) == []

    def test_radius_arpack_failure_is_logged(
        self, large_square, caplog, monkeypatch
    ):
        monkeypatch.setattr(scipy.sparse.linalg, "eigs", _fail)
        expected = float(np.max(np.abs(np.linalg.eigvals(large_square.toarray()))))
        assert spectral_radius(large_square) == pytest.approx(expected, rel=1e-5)
        records = _linalg_records(caplog)
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert "SVD" not in records[0].getMessage()

    def test_norm_svds_failure_is_logged(
        self, large_rectangle, caplog, monkeypatch
    ):
        monkeypatch.setattr(scipy.sparse.linalg, "svds", _fail)
        expected = float(np.linalg.svd(large_rectangle.toarray(), compute_uv=False)[0])
        assert operator_norm(large_rectangle) == pytest.approx(expected, rel=1e-10)
        records = _linalg_records(caplog)
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert "SVD" in records[0].getMessage()


def _shifted_sparse(n, seed):
    w = sp.random(n, n, density=0.01, random_state=seed, format="csr")
    return (0.5 * sp.identity(n, format="csr") + 0.5 * w).tocsr()


class TestEstimatorOrder:
    """Which iterative estimator runs, in which order, and what is logged.

    Both estimators are replaced by fakes that return a fixed value, or
    None to report a failure; each failure leaves one DEBUG record.
    """

    MODERATE = 200
    LARGE = _ARNOLDI_FIRST_MIN + 76

    @pytest.fixture(autouse=True)
    def debug_logs(self, caplog):
        caplog.set_level(logging.DEBUG, logger="deepesn.linalg")

    def fake_estimators(self, monkeypatch, power, arpack):
        calls = []

        def fake(name, result):
            def estimator(*args):
                calls.append(name)
                return result
            return estimator

        monkeypatch.setattr(
            deepesn.linalg, "_power_iteration_radius", fake("power", power)
        )
        monkeypatch.setattr(deepesn.linalg, "_arnoldi_radius", fake("arpack", arpack))
        return calls

    @pytest.mark.parametrize(
        "n, power, arpack, radius, expected_calls, n_records",
        [
            (MODERATE, 1.25, 2.5, 1.25, ["power"], 0),
            (MODERATE, None, 2.5, 2.5, ["power", "arpack"], 1),
            (LARGE, 1.25, 2.5, 2.5, ["arpack"], 0),
            (LARGE, 1.25, None, 1.25, ["arpack", "power"], 1),
        ],
        ids=["moderate-power", "moderate-arpack", "large-arpack", "large-power"],
    )
    def test_order_and_records(
        self, monkeypatch, caplog, n, power, arpack, radius, expected_calls,
        n_records,
    ):
        calls = self.fake_estimators(monkeypatch, power, arpack)
        assert spectral_radius(_shifted_sparse(n, 8)) == radius
        assert calls == expected_calls
        records = _linalg_records(caplog)
        assert len(records) == n_records
        assert all(r.levelno == logging.DEBUG for r in records)
        assert all("SVD" not in r.getMessage() for r in records)

    @pytest.mark.parametrize("n", [MODERATE, LARGE], ids=["moderate", "large"])
    def test_both_fail_falls_back_to_dense(self, monkeypatch, caplog, n):
        calls = self.fake_estimators(monkeypatch, None, None)
        matrix = _shifted_sparse(n, 9)
        expected = float(np.max(np.abs(np.linalg.eigvals(matrix.toarray()))))
        assert spectral_radius(matrix) == expected
        assert sorted(calls) == ["arpack", "power"]
        assert len(_linalg_records(caplog)) == 2
