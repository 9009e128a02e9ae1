import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dgemm, dsyrk

from deepesn import readout as readout_module
from deepesn.readout import RidgeAccumulator, RidgeReadout, ridge_solve


def brute_force_ridge(states, targets, ridge):
    """Reference solution on the explicit augmented design matrix."""
    x = np.hstack([states, np.ones((states.shape[0], 1))])
    return np.linalg.solve(
        x.T @ x + ridge * np.eye(x.shape[1]), x.T @ targets
    )


def reference_blocks(batches):
    """Written-out normal equations: one `X.T @ X` per batch, bias last."""
    d, out = batches[0][0].shape[1], batches[0][1].shape[1]
    xtx, xty = np.zeros((d + 1, d + 1)), np.zeros((d + 1, out))
    for states, targets in batches:
        x = np.hstack([states.astype(float), np.ones((len(states), 1))])
        xtx += x.T @ x
        xty += x.T @ targets
    return xtx, xty


def reference_solve(xtx, xty, ridge):
    return cho_solve(cho_factor(xtx + ridge * np.eye(len(xtx))), xty)


def blas_reference(batches, ridges):
    """Weights from a standalone SYRK Gram copied into a separate system.

    This is the accumulator's arithmetic with two square arrays: the
    upper triangle that LAPACK factorizes holds the same bits.
    """
    d, out = batches[0][0].shape[1], batches[0][1].shape[1]
    gram, xty = np.zeros((d, d), order="F"), np.zeros((d + 1, out))
    col_sums, n = np.zeros(d), 0
    for states, targets in batches:
        dsyrk(1.0, states.T, beta=1.0, c=gram, lower=0, overwrite_c=1)
        dgemm(1.0, targets.T, states.T, beta=1.0, c=xty[:d].T, trans_b=1,
              overwrite_c=1)
        col_sums += states.sum(axis=0)
        xty[d] += targets.sum(axis=0)
        n += len(states)
    weights = []
    for ridge in ridges:
        a = np.zeros((d + 1, d + 1), order="F")
        a[:d, :d], a[:d, d], a[d, d] = gram, col_sums, n
        a.flat[:: d + 2] += ridge
        weights.append(cho_solve(cho_factor(a, overwrite_a=True), xty))
    upper = np.zeros((d + 1, d + 1))
    upper[:d, :d], upper[:d, d], upper[d, d] = np.triu(gram), col_sums, n
    return weights, upper + np.triu(upper, 1).T


def layout(states, kind):
    """The same values as `states` in another memory layout or dtype."""
    if kind == "fortran":
        return np.asfortranarray(states)
    if kind == "strided":
        wide = np.zeros((states.shape[0], 2 * states.shape[1]))
        wide[:, ::2] = states
        return wide[:, ::2]
    if kind == "integer":
        return np.round(8 * states).astype(np.int64)
    return states


class TestAccumulatorOracle:
    """The in-place accumulator against the written-out reference.

    States are nonnegative, so no entry of X^T X comes from cancellation
    and a relative tolerance bounds every entry.
    """

    RTOL = 1e-12

    @pytest.mark.parametrize("kind", ["c", "fortran", "strided", "integer"])
    @pytest.mark.parametrize(
        "d, lengths", [(1, (5, 3, 7)), (300, (120, 1, 200, 80))], ids=["d1", "d300"]
    )
    def test_matches_reference(self, d, lengths, kind):
        rng = np.random.default_rng(d)
        batches = [
            (layout(rng.random((t, d)), kind), rng.random((t, 3))) for t in lengths
        ]
        acc = RidgeAccumulator(d, 3)
        for states, targets in batches:
            acc.add(states, targets)
        xtx, xty = reference_blocks(batches)
        np.testing.assert_allclose(acc.xtx, xtx, rtol=self.RTOL)
        np.testing.assert_array_equal(acc.xtx, acc.xtx.T)
        np.testing.assert_allclose(acc.xty, xty, rtol=self.RTOL)
        assert acc.n_samples == sum(lengths)
        for ridge in (1e-2, 1.0):
            want = reference_solve(xtx, xty, ridge)
            # weights can be near zero, so the bound is relative to the largest
            atol = self.RTOL * np.abs(want).max()
            np.testing.assert_allclose(
                acc.solve(ridge).weights, want, rtol=self.RTOL, atol=atol
            )
            np.testing.assert_allclose(
                ridge_solve(xtx, xty, ridge), want, rtol=self.RTOL, atol=atol
            )

    def test_add_updates_in_place(self):
        # f2py copies a BLAS output that is not F-contiguous and returns
        # the copy, so the buffers held before `add` must carry the update
        rng = np.random.default_rng(4)
        acc = RidgeAccumulator(300, 2)
        square, xty = acc._square, acc.xty
        states, targets = rng.random((50, 300)), rng.random((50, 2))
        acc.add(states, targets)
        want_xtx, want_xty = reference_blocks([(states, targets)])
        np.testing.assert_allclose(
            np.triu(square[:300, :300]), np.triu(want_xtx[:300, :300]),
            rtol=self.RTOL,
        )
        np.testing.assert_allclose(square[:, 300], want_xtx[:, 300], rtol=self.RTOL)
        np.testing.assert_allclose(xty, want_xty, rtol=self.RTOL)

    def test_ridge_solve_reads_upper_triangle(self):
        rng = np.random.default_rng(5)
        states, targets = rng.random((60, 8)), rng.random((60, 2))
        xtx, xty = reference_blocks([(states, targets)])
        upper = np.triu(xtx)
        np.testing.assert_array_equal(
            ridge_solve(upper, xty, 1e-2), ridge_solve(xtx, xty, 1e-2)
        )


class TestReadoutMemory:
    """Peak traced memory of the readout at d = 1500, in units of n^2 doubles."""

    D = 1500

    def test_one_square_array_per_accumulator(self):
        rng = np.random.default_rng(9)
        n2_bytes = (self.D + 1) ** 2 * 8
        batches = [(rng.random((50, self.D)), rng.random((50, 4))) for _ in range(2)]
        tracemalloc.start()
        try:
            acc = RidgeAccumulator(self.D, 4)
            for states, targets in batches:
                acc.add(states, targets)
            for ridge in (1e-1, 1e-2, 1e-3, 1e-4):
                acc.solve(ridge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the buffer, plus the finiteness checks' masks and a copy tile
        assert peak <= 1.25 * n2_bytes

    def test_solve_and_add_make_no_square_temporary(self):
        rng = np.random.default_rng(6)
        n2_bytes = (self.D + 1) ** 2 * 8
        states, targets = rng.random((50, self.D)), rng.random((50, 4))
        acc = RidgeAccumulator(self.D, 4)
        acc.add(states, targets)
        tracemalloc.start()
        try:
            acc.add(states, targets)
            add_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            acc.solve(1e-3)
            solve_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # one working copy, plus the finiteness checks' boolean masks
        assert solve_peak <= 1.25 * n2_bytes
        assert add_peak < 0.05 * n2_bytes


class TestOneBufferLayout:
    """The accumulator's one buffer against the two-array arithmetic it
    replaced: the weights and X^T X keep every bit."""

    RIDGES = (1e-1, 1e-4, 1e-2, 1.0)

    @staticmethod
    def batches(d, lengths, seed):
        rng = np.random.default_rng(seed)
        mix = rng.standard_normal((d, d)) / np.sqrt(d)
        return [
            (np.tanh(rng.standard_normal((t, d)) @ mix), rng.random((t, 3)))
            for t in lengths
        ]

    @pytest.mark.parametrize("d", [1, 2, 127, 128, 129, 257, 300])
    def test_weights_and_xtx_equal_the_two_array_solve(self, d):
        # the 500-row batch is longer than OpenBLAS's 384-row K block
        batches = self.batches(d, (40, 1, 90, 500), d)
        acc = RidgeAccumulator(d, 3)
        for states, targets in batches:
            acc.add(states, targets)
        want, xtx = blas_reference(batches, self.RIDGES)
        assert np.array_equal(acc.xtx, xtx)
        for ridge, weights in zip(self.RIDGES, want):
            assert np.array_equal(acc.solve(ridge).weights, weights)
        assert np.array_equal(acc.xtx, xtx)

    @pytest.mark.parametrize("d", [3, 257])
    def test_add_after_solve_equals_a_fresh_accumulator(self, d):
        first, second = self.batches(d, (60, 70), d + 1)
        acc = RidgeAccumulator(d, 3)
        acc.add(*first)
        acc.solve(1e-2)
        acc.add(*second)
        got = acc.solve(1e-3).weights
        fresh = RidgeAccumulator(d, 3)
        fresh.add(*first)
        fresh.add(*second)
        assert np.array_equal(got, fresh.solve(1e-3).weights)
        assert np.array_equal(acc.xtx, fresh.xtx)
        assert np.array_equal(got, blas_reference([first, second], [1e-3])[0][0])


class TestRidgeSolve:
    def test_two_point_closed_form(self):
        # X = [1, 2], Y = [1, 2], ridge 1: weight 2/3, bias 1/3
        acc = RidgeAccumulator(1, 1)
        acc.add(np.array([[1.0], [2.0]]), np.array([[1.0], [2.0]]))
        readout = acc.solve(1.0)
        assert readout.weights[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert readout.weights[1, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for ridge in (1e-4, 1e-2, 1.0):
            states = rng.standard_normal((40, 6))
            targets = rng.standard_normal((40, 3))
            acc = RidgeAccumulator(6, 3)
            acc.add(states, targets)
            np.testing.assert_allclose(
                acc.solve(ridge).weights,
                brute_force_ridge(states, targets, ridge),
                rtol=1e-9,
            )

    def test_repeated_solves_match_fresh_accumulators(self):
        # d spans several copy tiles; the second solve reuses the working
        # array the first one factorized in place
        rng = np.random.default_rng(8)
        states, targets = rng.random((400, 300)), rng.random((400, 4))

        def filled():
            acc = RidgeAccumulator(300, 4)
            acc.add(states, targets)
            return acc

        shared = filled()
        for ridge in (1e-1, 1e-4):
            got = shared.solve(ridge).weights
            assert np.array_equal(got, filled().solve(ridge).weights)
        assert np.array_equal(shared.xtx, filled().xtx)

    def test_streaming_equals_batch(self):
        rng = np.random.default_rng(1)
        states = rng.standard_normal((60, 5))
        targets = rng.standard_normal((60, 2))
        batch = RidgeAccumulator(5, 2)
        batch.add(states, targets)
        stream = RidgeAccumulator(5, 2)
        for lo in range(0, 60, 7):
            stream.add(states[lo : lo + 7], targets[lo : lo + 7])
        # chunking reorders the sums, so agreement is to round-off
        np.testing.assert_allclose(stream.xty, batch.xty, rtol=1e-13)
        np.testing.assert_allclose(stream.xtx, batch.xtx, rtol=1e-13)
        np.testing.assert_allclose(
            stream.solve(1e-3).weights, batch.solve(1e-3).weights, rtol=1e-10
        )

    def test_resolving_with_new_ridge_reuses_blocks(self):
        rng = np.random.default_rng(2)
        states = rng.standard_normal((30, 4))
        targets = rng.standard_normal((30, 2))
        acc = RidgeAccumulator(4, 2)
        acc.add(states, targets)
        for ridge in (1e-3, 1e-1):
            fresh = RidgeAccumulator(4, 2)
            fresh.add(states, targets)
            np.testing.assert_array_equal(
                acc.solve(ridge).weights, fresh.solve(ridge).weights
            )

    def test_singular_system_falls_back(self, caplog, monkeypatch):
        def failing_cho_factor(a, **kwargs):
            # dpotrf with UPLO='U' writes only the upper triangle and the
            # diagonal, so a partial factorization leaves NaN nowhere else
            a[np.triu_indices(len(a))] = np.nan
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(readout_module, "cho_factor", failing_cho_factor)
        rng = np.random.default_rng(7)
        acc = RidgeAccumulator(5, 2)
        acc.add(rng.random((9, 5)), rng.random((9, 2)))
        ridge = 1e-3
        with caplog.at_level(logging.WARNING, logger="deepesn.readout"):
            readout = acc.solve(ridge)
        system = acc.xtx + ridge * np.eye(6)
        np.testing.assert_array_equal(
            readout.weights, np.linalg.lstsq(system, acc.xty, rcond=None)[0]
        )
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "least squares" in warnings[0].getMessage()

    def test_real_cholesky_failure_falls_back_and_keeps_the_system(self, caplog):
        # a duplicated and a zero column make X^T X singular, so the
        # factorization really fails at ridge 0 and leaves its partial factor
        rng = np.random.default_rng(10)
        states = rng.random((12, 6))
        states[:, 3], states[:, 5] = states[:, 1], 0.0
        targets = rng.random((12, 2))

        def filled():
            acc = RidgeAccumulator(6, 2)
            acc.add(states, targets)
            return acc

        acc = filled()
        with caplog.at_level(logging.WARNING, logger="deepesn.readout"):
            first = acc.solve(0.0).weights
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "least squares" in warnings[0].getMessage()
        np.testing.assert_array_equal(
            first, np.linalg.lstsq(filled().xtx, acc.xty, rcond=None)[0]
        )
        assert np.array_equal(acc.solve(1e-3).weights, filled().solve(1e-3).weights)
        assert np.array_equal(acc.solve(0.0).weights, first)

    def test_ridge_solve_falls_back_on_the_upper_triangle(self, caplog):
        rng = np.random.default_rng(13)
        states = rng.random((10, 4))
        states[:, 2] = 0.0
        xtx, xty = reference_blocks([(states, rng.random((10, 2)))])
        with caplog.at_level(logging.WARNING, logger="deepesn.readout"):
            got = ridge_solve(np.triu(xtx), xty, 0.0)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        full = np.triu(xtx) + np.triu(xtx, 1).T
        np.testing.assert_array_equal(got, np.linalg.lstsq(full, xty, rcond=None)[0])

    def test_rejects_negative_ridge(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), np.ones((2, 1)), -1.0)

    @pytest.mark.parametrize("ridge", [float("nan"), float("inf")])
    def test_rejects_non_finite_ridge(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite"):
            ridge_solve(np.eye(2), np.ones((2, 1)), ridge)


class TestAccumulatorValidation:
    def test_rejects_bad_shapes(self):
        acc = RidgeAccumulator(3, 2)
        with pytest.raises(ValueError):
            acc.add(np.zeros((5, 4)), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            acc.add(np.zeros((5, 3)), np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["states", "targets"])
    @pytest.mark.parametrize("solved", [False, True], ids=["added", "solved"])
    def test_rejects_non_finite_batch_and_changes_nothing(self, name, bad, solved):
        rng = np.random.default_rng(11)
        first, second = [(rng.random((6, 4)), rng.random((6, 2))) for _ in range(2)]
        acc = RidgeAccumulator(4, 2)
        acc.add(*first)
        if solved:
            acc.solve(1e-2)
        xtx, xty = acc.xtx, acc.xty.copy()
        batch = {"states": np.ones((2, 4)), "targets": np.ones((2, 2))}
        batch[name][1, 0] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            acc.add(**batch)
        assert acc.n_samples == 6
        np.testing.assert_array_equal(acc.xtx, xtx)
        np.testing.assert_array_equal(acc.xty, xty)
        acc.add(*second)
        fresh = RidgeAccumulator(4, 2)
        fresh.add(*first)
        fresh.add(*second)
        assert np.array_equal(acc.solve(1e-3).weights, fresh.solve(1e-3).weights)

    def test_rejects_nan_that_cancels_in_a_sum(self):
        # the error is the only signal: the sum emits no RuntimeWarning first
        acc = RidgeAccumulator(2, 1)
        states = np.array([[np.inf, 1.0], [-np.inf, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="states must be finite"):
                acc.add(states, np.ones((2, 1)))
        assert acc.n_samples == 0

    def test_accepts_finite_batch_whose_sums_overflow(self):
        # every entry is finite, so the batch is taken without a warning;
        # the Gram overflows, and the solve's own finiteness check reports it
        acc = RidgeAccumulator(2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc.add(np.full((2, 2), 1e308), np.ones((2, 1)))
        assert acc.n_samples == 2
        with pytest.raises(ValueError, match="infs or NaNs"):
            acc.solve(1e-3)

    def test_overflowed_system_raises_on_every_solve(self):
        # the system is checked once, on the first solve after an add
        acc = RidgeAccumulator(2, 1)
        acc.add(np.full((2, 2), 1e308), np.ones((2, 1)))
        for ridge in (1e-3, 1e-2, 1e-3):
            with pytest.raises(ValueError, match="infs or NaNs"):
                acc.solve(ridge)

    def test_finite_batch_after_a_solve_is_checked_again(self):
        acc = RidgeAccumulator(2, 1)
        acc.add(np.ones((2, 2)), np.ones((2, 1)))
        acc.solve(1e-3)
        acc.add(np.full((2, 2), 1e308), np.ones((2, 1)))
        with pytest.raises(ValueError, match="infs or NaNs"):
            acc.solve(1e-3)

    @pytest.mark.parametrize(
        "block, index",
        [("xtx", (1, 1)), ("xtx", (0, 2)), ("xty", (2, 1))],
        ids=["diagonal", "upper", "xty"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ridge_solve_rejects_non_finite_blocks(self, block, index, bad):
        blocks = {"xtx": np.eye(3), "xty": np.ones((3, 2))}
        blocks[block][index] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            ridge_solve(blocks["xtx"], blocks["xty"], 1e-3)

    def test_ridge_that_overflows_the_diagonal_raises(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
            ridge_solve(np.eye(2) * 1e308, np.ones((2, 1)), 1e308)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            RidgeAccumulator(3, 2).solve(1e-3)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            RidgeAccumulator(0, 2)


@pytest.mark.skipif(
    readout_module._THREADS is None, reason="no OpenBLAS thread count to set"
)
class TestBlasThreads:
    def test_one_thread_up_to_the_width_then_restored(self):
        get, put = readout_module._THREADS
        widest = readout_module._ONE_THREAD_MAX_DIM
        before = get()
        put(2)
        try:
            with pytest.raises(RuntimeError):
                with readout_module._blas_threads(widest):
                    assert get() == 1
                    raise RuntimeError
            assert get() == 2
            with readout_module._blas_threads(widest + 1):
                assert get() == 2
        finally:
            put(before)


class TestPrediction:
    def test_binarize_threshold_inclusive(self):
        readout = RidgeReadout(weights=np.array([[1.0], [0.0]]), threshold=0.5)
        out = readout.predict(np.array([[0.49], [0.5], [0.51]]))
        np.testing.assert_array_equal(out, [[0], [1], [1]])

    def test_predict_applies_affine_then_threshold(self):
        readout = RidgeReadout(
            weights=np.array([[1.0, 0.0], [0.0, 1.0], [0.2, 0.2]]),
            threshold=0.5,
        )
        states = np.array([[0.4, 0.1]])
        np.testing.assert_allclose(
            readout.predict_continuous(states), [[0.6, 0.3]], rtol=1e-15
        )
        np.testing.assert_array_equal(readout.predict(states), [[1, 0]])

    @pytest.mark.parametrize("d", [3, 0])
    def test_zero_rows_give_an_empty_batch(self, d):
        readout = RidgeReadout(weights=np.ones((d + 1, 2)))
        out = readout.predict_continuous(np.zeros((0, d)))
        assert out.shape == (0, 2) and out.dtype == float
        assert readout.predict(np.zeros((0, d))).shape == (0, 2)

    def test_zero_features_give_the_bias(self):
        readout = RidgeReadout(weights=np.array([[0.25, -1.0]]))
        np.testing.assert_array_equal(
            readout.predict_continuous(np.zeros((3, 0))), [[0.25, -1.0]] * 3
        )

    def test_predict_rejects_wrong_width(self):
        readout = RidgeReadout(weights=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            readout.predict(np.zeros((4, 3)))

    def test_dims(self):
        readout = RidgeReadout(weights=np.zeros((5, 2)))
        assert readout.state_dim == 4
        assert readout.output_dim == 2


class TestPredictionOracle:
    """`predict_continuous` against numpy's `states @ W[:-1] + W[-1]`.

    The readout multiplies on scipy's dgemm, which sums every output in
    numpy's order on long batches, so those rows are bit-equal. Short
    batches may take another path on either side (numpy's GEMV for one
    row, other kernels or another split among threads below about 90
    rows), so there the two agree within the rounding bound of a
    length-d dot product.
    """

    @staticmethod
    def case(rows, d, order):
        rng = np.random.default_rng(rows * 1000 + d)
        states = np.tanh(rng.standard_normal((rows, d)))
        weights = np.array(rng.standard_normal((d + 1, 88)) / d, order=order)
        return states, RidgeReadout(weights=weights)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [60, 500])
    @pytest.mark.parametrize("rows", [100, 2000])
    def test_bit_equal_on_many_rows(self, rows, d, order):
        states, readout = self.case(rows, d, order)
        w = readout.weights
        np.testing.assert_array_equal(
            readout.predict_continuous(states), states @ w[:-1] + w[-1]
        )

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [60, 500])
    @pytest.mark.parametrize("rows", [1, 2, 8, 64])
    def test_within_rounding_on_few_rows(self, rows, d, order):
        states, readout = self.case(rows, d, order)
        w = readout.weights
        bound = d * np.finfo(float).eps * (np.abs(states) @ np.abs(w[:-1])
                                           + np.abs(w[-1]))
        error = np.abs(readout.predict_continuous(states) - (states @ w[:-1] + w[-1]))
        assert (error <= bound).all()
