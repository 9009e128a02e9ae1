import logging
import sys
import threading

import numpy as np
import pytest
from test_reservoir import call_in_time, reference_stack, spy_parts

from deepesn import reservoir as reservoir_module
from deepesn.ip import IpConfig, _update, activation_statistics, pretrain_ip
from deepesn.reservoir import ReservoirConfig, init_deep_reservoir, run_sequence

logger = logging.getLogger(__name__)

# one update with defaults at g=1, b=0, net=0.5, y=tanh(0.5)
ORACLE_Y = 0.46211715726000974
ORACLE_DB = -0.037267333383699384
ORACLE_DG = -0.01763366669184969


def small_reservoir(seed=0, n_layers=2):
    return init_deep_reservoir(
        ReservoirConfig(
            input_dim=3,
            n_layers=n_layers,
            units_per_layer=30,
            leaky_rate=1.0,
            spectral_radius_target=0.9,
            input_scaling=1.0,
            connectivity=0.2,
            seed=seed,
        )
    )


def update(gain, bias, net, y, config):
    """`ip._update` run on copies of `gain` and `bias`; the new pair."""
    gain, bias = np.array(gain, dtype=float), np.array(bias, dtype=float)
    _update(gain, bias, net, y, config)
    return gain, bias


def ip_update(gain, bias, net, y, config):
    """The module docstring's equations in plain numpy, on new arrays.

    Gains are clamped from below at 1e-6; a call that clamps logs one
    warning with its count.
    """
    eta, mu, s = config.learning_rate, config.target_mean, config.target_std
    db = -eta * (-mu / s**2 + (y / s**2) * (2 * s**2 + 1 - y * y + mu * y))
    dg = eta / gain + db * net
    low = gain + dg < 1e-6
    if low.any():
        logger.warning("clamped %d gain(s)", np.count_nonzero(low))
    return np.maximum(gain + dg, 1e-6), bias + db


class TestIpUpdate:
    def test_scalar_oracle(self):
        gain, bias = update(
            np.array([1.0]),
            np.array([0.0]),
            np.array([0.5]),
            np.array([ORACLE_Y]),
            IpConfig(),
        )
        assert bias[0] == pytest.approx(ORACLE_DB, abs=1e-15)
        assert gain[0] == pytest.approx(1.0 + ORACLE_DG, abs=1e-15)

    def test_vector_matches_elementwise(self):
        rng = np.random.default_rng(0)
        net = rng.uniform(-2, 2, size=8)
        g0 = rng.uniform(0.5, 1.5, size=8)
        b0 = rng.uniform(-0.2, 0.2, size=8)
        y = np.tanh(g0 * net + b0)
        cfg = IpConfig()
        g_vec, b_vec = update(g0, b0, net, y, cfg)
        for i in range(8):
            g_i, b_i = update(
                g0[i : i + 1], b0[i : i + 1], net[i : i + 1], y[i : i + 1], cfg
            )
            assert g_vec[i] == g_i[0]
            assert b_vec[i] == b_i[0]

    def test_inputs_not_mutated(self):
        # the update writes only the gain and bias it adapts
        net, y = np.ones(3), np.tanh(np.ones(3))
        update(np.ones(3), np.zeros(3), net, y, IpConfig())
        assert np.array_equal(net, np.ones(3))
        assert np.array_equal(y, np.tanh(np.ones(3)))

    def test_gain_clamped_with_warning(self, caplog):
        # a huge learning rate drives the gain negative in one step
        cfg = IpConfig(learning_rate=10.0, epochs=1)
        gain = np.array([1.0])
        low = _update(
            gain, np.array([0.0]), np.array([2.0]), np.array([np.tanh(2.0)]), cfg
        )
        assert gain[0] == 1e-6
        assert low.tolist() == [True]
        inputs = np.random.default_rng(2).uniform(-1, 1, size=(20, 3))
        with caplog.at_level(logging.WARNING, logger="deepesn.ip"):
            pretrain_ip(small_reservoir(n_layers=1), [inputs], cfg)
        assert any("clamped" in r.message for r in caplog.records)

    @pytest.mark.parametrize("shape", [(8,), (3, 50)], ids=["vector", "slab"])
    def test_bits_follow_the_equations(self, shape):
        # the module docstring's equations in plain numpy, clamp included
        cfg = IpConfig(target_mean=0.05, learning_rate=10.0)
        rng = np.random.default_rng(6)
        net = rng.uniform(-2, 2, size=shape)
        g0 = rng.uniform(0.5, 1.5, size=shape)
        b0 = rng.uniform(-0.2, 0.2, size=shape)
        y = np.tanh(g0 * net + b0)
        want_gain, want_bias = ip_update(g0, b0, net, y, cfg)
        gain, bias = update(g0, b0, net, y, cfg)
        assert 0 < np.count_nonzero(gain == 1e-6) < gain.size
        assert np.array_equal(gain, want_gain)
        assert np.array_equal(bias, want_bias)


class TestIpConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_std": 0.0},
            {"target_std": -0.1},
            {"learning_rate": 0.0},
            {"epochs": 0},
            {"target_mean": float("nan")},
            {"target_mean": float("inf")},
            {"target_std": float("nan")},
            {"target_std": float("inf")},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            IpConfig(**kwargs)

    def test_defaults(self):
        cfg = IpConfig()
        assert cfg.target_mean == 0.0
        assert cfg.target_std == 0.1
        assert cfg.learning_rate == 1e-3
        assert cfg.epochs == 5


class TestPretrain:
    def corpus(self, seed=1, n=2, steps=600):
        rng = np.random.default_rng(seed)
        return [rng.uniform(-1, 1, size=(steps, 3)) for _ in range(n)]

    def test_moves_std_toward_target(self):
        res = small_reservoir()
        seqs = self.corpus()
        _, std_before = activation_statistics(res, seqs)
        pretrain_ip(res, seqs, IpConfig())
        _, std_after = activation_statistics(res, seqs)
        for layer in range(res.config.n_layers):
            before = np.mean(np.abs(std_before[layer] - 0.1))
            after = np.mean(np.abs(std_after[layer] - 0.1))
            assert after < before

    def test_weights_untouched(self):
        res = small_reservoir()
        feed_before = [layer.feed.copy() for layer in res.layers]
        rec_before = [layer.recurrent.copy() for layer in res.layers]
        pretrain_ip(res, self.corpus(steps=50), IpConfig(epochs=1))
        for layer, feed, rec in zip(res.layers, feed_before, rec_before):
            assert np.array_equal(layer.feed, feed)
            assert (layer.recurrent != rec).nnz == 0

    def test_deterministic(self):
        seqs = self.corpus(steps=100)
        res_a = small_reservoir()
        res_b = small_reservoir()
        pretrain_ip(res_a, seqs, IpConfig(epochs=2))
        pretrain_ip(res_b, seqs, IpConfig(epochs=2))
        for la, lb in zip(res_a.layers, res_b.layers):
            assert np.array_equal(la.gain, lb.gain)
            assert np.array_equal(la.bias, lb.bias)

    def test_caller_arrays_not_mutated(self):
        res = small_reservoir()
        held = [(layer.gain, layer.bias) for layer in res.layers]
        before = [(gain.copy(), bias.copy()) for gain, bias in held]
        pretrain_ip(res, self.corpus(steps=50), IpConfig(epochs=1))
        for layer, (gain, bias), (gain0, bias0) in zip(res.layers, held, before):
            assert np.array_equal(gain, gain0)
            assert np.array_equal(bias, bias0)
            assert not np.array_equal(layer.gain, gain0)

    def test_bad_sequence_adapts_nothing(self):
        res = small_reservoir()
        before = [(layer.gain.copy(), layer.bias.copy()) for layer in res.layers]
        good, bad = self.corpus(steps=50)[0], np.zeros((50, 4))
        with pytest.raises(ValueError, match="inputs must have shape"):
            pretrain_ip(res, [good, bad], IpConfig(epochs=1))
        for layer, (gain, bias) in zip(res.layers, before):
            assert np.array_equal(layer.gain, gain)
            assert np.array_equal(layer.bias, bias)

    def test_runs_read_the_adapted_parameters(self):
        res = small_reservoir(n_layers=3)
        seqs = self.corpus(steps=50)
        pretrain_ip(res, seqs, IpConfig(learning_rate=0.05, epochs=1))
        adapted = [(layer.gain.copy(), layer.bias.copy()) for layer in res.layers]
        assert not any(np.array_equal(gain, np.ones(30)) for gain, _ in adapted)
        expected = reference_stack(res.layers, seqs[0], res.initial_states())
        assert np.array_equal(run_sequence(res, seqs[0]), expected)
        activation_statistics(res, seqs)
        for layer, (gain, bias) in zip(res.layers, adapted):
            assert layer.gain.tobytes() == gain.tobytes()
            assert layer.bias.tobytes() == bias.tobytes()

    def test_returns_same_reservoir(self):
        res = small_reservoir()
        assert pretrain_ip(res, self.corpus(steps=20), IpConfig(epochs=1)) is res


class TestActivationStatistics:
    def test_shapes_per_unit(self):
        res = small_reservoir(n_layers=3)
        seqs = [np.random.default_rng(2).uniform(-1, 1, size=(40, 3))]
        means, stds = activation_statistics(res, seqs)
        assert means.shape == (3, 30)
        assert stds.shape == (3, 30)

    def test_does_not_adapt(self):
        res = small_reservoir()
        gains = [layer.gain.copy() for layer in res.layers]
        activation_statistics(
            res, [np.random.default_rng(3).uniform(-1, 1, size=(20, 3))]
        )
        for layer, gain in zip(res.layers, gains):
            assert np.array_equal(layer.gain, gain)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            activation_statistics(small_reservoir(), [])


def reference_walk(layers, sequences, on_step):
    """Per-step loop over the stack, written out against the matrices.

    Calls `on_step(i, layer, net, y)` right after layer i's update and
    before layer i + 1 steps, reading gain and bias from the layer each
    time, as online IP does.
    """
    for inputs in sequences:
        states = [np.zeros(layer.units) for layer in layers]
        for t in range(inputs.shape[0]):
            drive = inputs[t]
            for i, layer in enumerate(layers):
                a = layer.leaky_rate
                net = layer.feed @ drive + layer.recurrent @ states[i]
                y = np.tanh(layer.gain * net + layer.bias)
                states[i] = (1.0 - a) * states[i] + a * y
                on_step(i, layer, net, y)
                drive = states[i]


class TestReferenceLoop:
    """pretrain_ip and activation_statistics equal a per-step loop bit for bit."""

    N_LAYERS, CONNECTIVITY, LENGTHS = 3, 0.2, (80, 80)
    CONFIG = IpConfig(learning_rate=0.05, epochs=2)
    LEAKY_RATES = ()

    def leaky_reservoir(self):
        res = init_deep_reservoir(
            ReservoirConfig(
                input_dim=3, n_layers=self.N_LAYERS, units_per_layer=50,
                leaky_rate=0.5, spectral_radius_target=0.9, input_scaling=1.0,
                connectivity=self.CONNECTIVITY, seed=4,
            )
        )
        for layer, rate in zip(res.layers, self.LEAKY_RATES):
            layer.leaky_rate = rate
        return res

    def sequences(self):
        rng = np.random.default_rng(5)
        return [rng.uniform(-1, 1, size=(n, 3)) for n in self.LENGTHS]

    def reference_pretrain(self, seqs):
        expected = self.leaky_reservoir()

        def adapt(i, layer, net, y):
            layer.gain, layer.bias = ip_update(
                layer.gain, layer.bias, net, y, self.CONFIG
            )

        for _ in range(self.CONFIG.epochs):
            reference_walk(expected.layers, seqs, adapt)
        return expected

    def test_pretrain_matches_reference(self, caplog):
        seqs = self.sequences()
        expected = self.reference_pretrain(seqs)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="deepesn.ip"):
            actual = pretrain_ip(self.leaky_reservoir(), seqs, self.CONFIG)
        assert any("clamped" in r.message for r in caplog.records)
        for got, want in zip(actual.layers, expected.layers):
            assert np.all(np.isfinite(got.gain))
            assert np.array_equal(got.gain, want.gain)
            assert np.array_equal(got.bias, want.bias)

    def test_clamps_counted_once_per_layer(self, caplog):
        seqs = self.sequences()
        with caplog.at_level(logging.WARNING, logger="deepesn.ip"):
            self.reference_pretrain(seqs)
            per_step = [r.args[0] for r in caplog.records]
            caplog.clear()
            pretrain_ip(self.leaky_reservoir(), seqs, self.CONFIG)
        per_layer = [r.args[0] for r in caplog.records]
        assert len(per_layer) <= self.N_LAYERS
        assert all(r.getMessage().startswith("clamped") for r in caplog.records)
        assert sum(per_layer) == sum(per_step) > 0

    def test_statistics_match_reference(self):
        res = self.leaky_reservoir()
        pretrain_ip(res, self.sequences(), IpConfig(epochs=1))
        seqs = self.sequences()
        sums = np.zeros((self.N_LAYERS, 50))
        sq_sums = np.zeros((self.N_LAYERS, 50))

        def accumulate(i, layer, net, y):
            sums[i] += y
            sq_sums[i] += y * y

        reference_walk(res.layers, seqs, accumulate)
        count = sum(s.shape[0] for s in seqs)
        means = sums / count
        stds = np.sqrt(np.maximum(sq_sums / count - means**2, 0.0))
        got_means, got_stds = activation_statistics(res, seqs)
        assert np.array_equal(got_means, means)
        assert np.array_equal(got_stds, stds)


# (n_layers, connectivity, sequence lengths, IP config, leaky rates) per
# edge case: one layer, with no feed stack; dense recurrent matrices;
# sequences too short to fill the diagonal of waves, with a learning
# rate that still clamps within their few steps; and layers that do not
# share one leaky rate.
EDGE_CASES = {
    "one-layer": (1, 0.2, (80, 80), TestReferenceLoop.CONFIG, ()),
    "dense": (3, 1.0, (80, 80), TestReferenceLoop.CONFIG, ()),
    "short": (3, 0.2, (0, 1, 2), IpConfig(learning_rate=10.0, epochs=2), ()),
    "mixed-leak": (3, 0.2, (80, 80), TestReferenceLoop.CONFIG, (0.5, 1.0, 0.3)),
}


class TestReferenceLoopEdges(TestReferenceLoop):
    """The same oracle on the shapes at the edges of the diagonal schedule."""

    @pytest.fixture(autouse=True, params=list(EDGE_CASES))
    def case(self, request):
        (
            self.N_LAYERS, self.CONNECTIVITY, self.LENGTHS, self.CONFIG,
            self.LEAKY_RATES,
        ) = EDGE_CASES[request.param]


class TestTwoStages:
    """Above the one-thread width, the two-stage pipeline adapts and pools
    with the bits of the one-part loop."""

    CONFIG = IpConfig(learning_rate=0.05, epochs=2)

    @pytest.mark.parametrize("n_layers, units", [(2, 501), (3, 334)])
    def test_equals_one_part(self, monkeypatch, caplog, n_layers, units):
        rng = np.random.default_rng(n_layers)
        # sequences shorter than the stack is deep, and empty ones
        lengths = (0, 40, 1, 2, 0, 25, 1)
        sequences = [rng.uniform(-1, 1, size=(n, 3)) for n in lengths]
        config = ReservoirConfig(
            input_dim=3, n_layers=n_layers, units_per_layer=units,
            leaky_rate=0.5, connectivity=0.05, seed=2,
        )
        runs = {}
        for cpus in (1, 2):
            counts = spy_parts(monkeypatch, cpus)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="deepesn.ip"):
                res = pretrain_ip(init_deep_reservoir(config), sequences, self.CONFIG)
            clamps = [r.args[0] for r in caplog.records]
            stats = activation_statistics(res, sequences)
            gains = [(layer.gain, layer.bias) for layer in res.layers]
            runs[cpus] = gains, clamps, stats
            assert counts == ([2, 2] if cpus == 2 else [])
        (one_gains, one_clamps, one_stats), (two_gains, two_clamps, two_stats) = (
            runs[1], runs[2]
        )
        assert sum(one_clamps) > 0
        assert two_clamps == one_clamps
        for (gain, bias), (want_gain, want_bias) in zip(two_gains, one_gains):
            assert np.array_equal(gain, want_gain)
            assert np.array_equal(bias, want_bias)
        for got, want in zip(two_stats, one_stats):
            assert np.array_equal(got, want)

    def test_concurrent_calls_under_fast_thread_switching(self, monkeypatch):
        # three calls at once run six threads on at most two CPUs, switching
        # every microsecond; a lost update to a shared sum would show
        rng = np.random.default_rng(8)
        sequences = [rng.uniform(-1, 1, size=(n, 3)) for n in (30, 3, 20, 12)]
        config = ReservoirConfig(
            input_dim=3, n_layers=3, units_per_layer=334, connectivity=0.05, seed=3
        )

        def statistics():
            res = pretrain_ip(init_deep_reservoir(config), sequences, self.CONFIG)
            return [layer.gain for layer in res.layers], activation_statistics(
                res, sequences
            )

        monkeypatch.setattr(reservoir_module, "_cpus", lambda: 1)
        want_gains, want_stats = statistics()
        monkeypatch.setattr(reservoir_module, "_cpus", lambda: 2)
        results = []

        def run_three():
            callers = [
                threading.Thread(target=lambda: results.append(statistics()))
                for _ in range(3)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            call_in_time(run_three)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 3
        for gains, stats in results:
            assert all(np.array_equal(g, w) for g, w in zip(gains, want_gains))
            assert all(np.array_equal(g, w) for g, w in zip(stats, want_stats))
