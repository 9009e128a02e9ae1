import logging
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from deepesn import readout as readout_module
from deepesn.readout import RidgeAccumulator, RidgeReadout, binarize, ridge_solve


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
        gram, xty = acc._gram, acc.xty
        states, targets = rng.random((50, 300)), rng.random((50, 2))
        acc.add(states, targets)
        want_xtx, want_xty = reference_blocks([(states, targets)])
        np.testing.assert_allclose(
            np.triu(gram), np.triu(want_xtx[:300, :300]), rtol=self.RTOL
        )
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
            a[...] = np.nan  # what a partial in-place factorization leaves
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

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            RidgeAccumulator(3, 2).solve(1e-3)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            RidgeAccumulator(0, 2)


class TestPrediction:
    def test_binarize_threshold_inclusive(self):
        out = binarize(np.array([0.49, 0.5, 0.51]), 0.5)
        np.testing.assert_array_equal(out, [0, 1, 1])

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

    def test_predict_rejects_wrong_width(self):
        readout = RidgeReadout(weights=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            readout.predict(np.zeros((4, 3)))

    def test_dims(self):
        readout = RidgeReadout(weights=np.zeros((5, 2)))
        assert readout.state_dim == 4
        assert readout.output_dim == 2
