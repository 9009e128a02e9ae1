import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from deepesn import reservoir as reservoir_module
from deepesn.errors import InitializationError
from deepesn.ip import IpConfig, activation_statistics, pretrain_ip
from deepesn.linalg import operator_norm
from deepesn.reservoir import (
    DeepReservoir,
    ReservoirConfig,
    ReservoirLayer,
    effective_matrix,
    init_deep_reservoir,
    rescale_recurrent,
    run_layers,
    run_online,
    run_sequence,
    step_deep,
)

TANH_05 = 0.46211715726000974  # tanh(0.5)
TANH_COMPOSED = 0.2270326087174543  # tanh(0.5 * tanh(0.5))
HALF_TANH_01 = 0.04983399731247791  # 0.5 * tanh(0.1)


def small_config(**overrides):
    base = dict(
        input_dim=4,
        n_layers=2,
        units_per_layer=30,
        leaky_rate=0.5,
        spectral_radius_target=0.9,
        input_scaling=1.0,
        connectivity=0.2,
        seed=0,
    )
    base.update(overrides)
    return ReservoirConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("input_dim", 0),
            ("n_layers", 0),
            ("units_per_layer", 0),
            ("leaky_rate", 0.0),
            ("leaky_rate", 1.5),
            ("spectral_radius_target", 0.0),
            ("spectral_radius_target", 1.0),
            ("input_scaling", 0.0),
            ("connectivity", 0.0),
            ("connectivity", 1.5),
            ("input_scaling", float("nan")),
            ("input_scaling", float("inf")),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError):
            small_config(**{field: value})

    def test_state_dim(self):
        assert small_config(n_layers=3, units_per_layer=7).state_dim == 21


class TestRescaling:
    def test_diagonal_example(self):
        # a = 1 reduces to plain scaling: diag(1, 0.5) at target 0.9
        scaled = rescale_recurrent(np.diag([1.0, 0.5]), 1.0, 0.9)
        np.testing.assert_allclose(scaled, np.diag([0.9, 0.45]), rtol=1e-15)

    @pytest.mark.parametrize("leaky_rate", [0.1, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("target", [0.2, 0.9])
    def test_effective_radius_hits_target(self, leaky_rate, target):
        # above the dense cutoff the radius comes from power iteration,
        # so the scale factor is accurate to the estimator tolerance
        rng = np.random.default_rng(6)
        raw = sp.csr_matrix(rng.uniform(-1.0, 1.0, size=(80, 80)))
        scaled = rescale_recurrent(raw, leaky_rate, target)
        eff = effective_matrix(scaled, leaky_rate)
        got = float(np.max(np.abs(np.linalg.eigvals(eff.toarray()))))
        assert got == pytest.approx(target, rel=1e-6)

    @pytest.mark.parametrize("leaky_rate", [0.1, 0.5, 1.0])
    def test_small_matrix_rescale_is_exact(self, leaky_rate):
        rng = np.random.default_rng(6)
        raw = rng.uniform(-1.0, 1.0, size=(40, 40))
        scaled = rescale_recurrent(raw, leaky_rate, 0.35)
        eff = effective_matrix(scaled, leaky_rate)
        got = float(np.max(np.abs(np.linalg.eigvals(eff))))
        assert got == pytest.approx(0.35, abs=1e-12)

    def test_dense_input_stays_dense(self):
        rng = np.random.default_rng(7)
        scaled = rescale_recurrent(rng.uniform(-1, 1, size=(20, 20)), 0.5, 0.3)
        assert isinstance(scaled, np.ndarray)

    def test_rejects_zero_radius(self):
        # a nilpotent matrix at a = 1 cannot be scaled to any target
        with pytest.raises(InitializationError):
            rescale_recurrent(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 0.9)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        r1 = init_deep_reservoir(small_config())
        r2 = init_deep_reservoir(small_config())
        for l1, l2 in zip(r1.layers, r2.layers):
            assert np.array_equal(l1.feed, l2.feed)
            assert (l1.recurrent != l2.recurrent).nnz == 0

    def test_different_seed_differs(self):
        r1 = init_deep_reservoir(small_config(seed=0))
        r2 = init_deep_reservoir(small_config(seed=1))
        assert not np.array_equal(r1.layers[0].feed, r2.layers[0].feed)

    def test_shapes_and_fan_in(self):
        res = init_deep_reservoir(small_config(n_layers=3))
        assert res.layers[0].feed.shape == (30, 4)
        assert res.layers[1].feed.shape == (30, 30)
        assert res.layers[2].feed.shape == (30, 30)
        for layer in res.layers:
            assert layer.recurrent.shape == (30, 30)

    def test_feed_norm_matches_scaling(self):
        res = init_deep_reservoir(small_config(input_scaling=1.7))
        for layer in res.layers:
            assert operator_norm(layer.feed) == pytest.approx(1.7, rel=1e-10)

    def test_sparse_nonzero_count(self):
        # with a = 1 no diagonal shift is added, so the count is exact
        cfg = small_config(leaky_rate=1.0, units_per_layer=50, connectivity=0.1)
        res = init_deep_reservoir(cfg)
        assert res.layers[0].recurrent.nnz == round(0.1 * 50 * 50)

    def test_effective_radius_after_init(self):
        cfg = small_config(leaky_rate=0.3, spectral_radius_target=0.2)
        res = init_deep_reservoir(cfg)
        for layer in res.layers:
            eff = effective_matrix(layer.recurrent, 0.3).toarray()
            got = float(np.max(np.abs(np.linalg.eigvals(eff))))
            assert got == pytest.approx(0.2, abs=1e-10)

    def test_full_connectivity_gives_dense(self):
        res = init_deep_reservoir(small_config(connectivity=1.0))
        assert isinstance(res.layers[0].recurrent, np.ndarray)

    def test_too_sparse_raises(self):
        with pytest.raises(InitializationError):
            init_deep_reservoir(small_config(units_per_layer=5, connectivity=0.01))

    def test_gain_bias_identity(self):
        res = init_deep_reservoir(small_config())
        for layer in res.layers:
            assert np.array_equal(layer.gain, np.ones(30))
            assert np.array_equal(layer.bias, np.zeros(30))


def scalar_layer(feed, recurrent, leaky_rate=1.0):
    return ReservoirLayer(
        feed=np.array([[feed]]),
        recurrent=np.array([[recurrent]]),
        leaky_rate=leaky_rate,
    )


class TestStepArithmetic:
    def test_single_unit_step(self):
        layer = scalar_layer(1.0, 0.5)
        state = layer.step(np.zeros(1), np.array([0.5]))
        assert state[0] == pytest.approx(TANH_05, abs=1e-15)

    def test_two_layer_same_step_composition(self):
        # the second layer must see the first layer's state from this
        # very step, not the previous one
        res = DeepReservoir(
            config=small_config(input_dim=1, n_layers=2, units_per_layer=1),
            layers=[scalar_layer(1.0, 0.0), scalar_layer(0.5, 0.0)],
        )
        states = step_deep(res, res.initial_states(), np.array([0.5]))
        assert states[0][0] == pytest.approx(TANH_05, abs=1e-15)
        assert states[1][0] == pytest.approx(TANH_COMPOSED, abs=1e-15)

    def test_leaky_interpolation(self):
        layer = scalar_layer(1.0, 0.0, leaky_rate=0.5)
        state = layer.step(np.zeros(1), np.array([0.1]))
        assert state[0] == pytest.approx(HALF_TANH_01, abs=1e-15)

    def test_leaky_keeps_previous_state(self):
        layer = scalar_layer(1.0, 0.0, leaky_rate=0.25)
        state = layer.step(np.array([0.8]), np.array([0.0]))
        assert state[0] == pytest.approx(0.75 * 0.8, abs=1e-15)


class TestRunSequence:
    def test_shapes_and_washout(self):
        res = init_deep_reservoir(small_config())
        rng = np.random.default_rng(8)
        inputs = rng.uniform(-1, 1, size=(50, 4))
        full = run_sequence(res, inputs)
        washed = run_sequence(res, inputs, washout=10)
        assert full.shape == (50, 60)
        assert washed.shape == (40, 60)
        np.testing.assert_array_equal(washed, full[10:])

    def test_states_bounded_by_tanh(self):
        res = init_deep_reservoir(small_config())
        rng = np.random.default_rng(9)
        states = run_sequence(res, rng.uniform(-1, 1, size=(100, 4)))
        assert np.all(np.abs(states) <= 1.0)

    def test_contraction_forgets_initial_state(self):
        res = init_deep_reservoir(small_config(n_layers=3))
        rng = np.random.default_rng(10)
        inputs = rng.uniform(-1, 1, size=(200, 4))
        init_a = [rng.uniform(-1, 1, size=30) for _ in range(3)]
        init_b = [rng.uniform(-1, 1, size=30) for _ in range(3)]
        sa = run_sequence(res, inputs, initial_states=init_a)
        sb = run_sequence(res, inputs, initial_states=init_b)
        d0 = np.linalg.norm(np.concatenate(init_a) - np.concatenate(init_b))
        d1 = np.linalg.norm(sa[-1] - sb[-1])
        assert d1 < 1e-3 * d0

    def test_rejects_wrong_input_dim(self):
        res = init_deep_reservoir(small_config())
        with pytest.raises(ValueError):
            run_sequence(res, np.zeros((10, 5)))

    def test_rejects_bad_washout(self):
        res = init_deep_reservoir(small_config())
        with pytest.raises(ValueError):
            run_sequence(res, np.zeros((10, 4)), washout=11)

    @pytest.mark.parametrize(
        "washout, error, message",
        [
            (1.5, TypeError, "washout must be an integer, got 1.5"),
            (-1, ValueError, "washout must be >= 0, got -1"),
        ],
        ids=["float", "negative"],
    )
    def test_washout_checked_before_running(self, monkeypatch, washout, error, message):
        def refuse(*args, **kwargs):
            raise AssertionError("sequence run before the washout was checked")

        res = init_deep_reservoir(small_config())
        monkeypatch.setattr("deepesn.reservoir.run_layers", refuse)
        with pytest.raises(error, match=message):
            run_sequence(res, np.zeros((10, 4)), washout=washout)

    def test_initial_states_are_zero(self):
        res = init_deep_reservoir(small_config())
        for state in res.initial_states():
            assert np.array_equal(state, np.zeros(30))


def reference_stack(layers, inputs, states):
    """Per-step loop over the stack, written out against the matrices."""
    states = [np.array(state, dtype=float) for state in states]
    out = np.empty((inputs.shape[0], sum(layer.units for layer in layers)))
    for t in range(inputs.shape[0]):
        drive = inputs[t]
        for i, layer in enumerate(layers):
            a = layer.leaky_rate
            net = layer.feed @ drive + layer.recurrent @ states[i]
            y = np.tanh(layer.gain * net + layer.bias)
            states[i] = (1.0 - a) * states[i] + a * y
            drive = states[i]
        out[t] = np.concatenate(states)
    return out


class TestStackOracle:
    """The layer-major kernel equals stepping the whole stack, bit for bit."""

    def setup_method(self):
        self.res = init_deep_reservoir(small_config(n_layers=3, leaky_rate=0.5))
        rng = np.random.default_rng(11)
        for layer in self.res.layers:
            layer.gain = rng.uniform(0.5, 1.5, size=30)
            layer.bias = rng.uniform(-0.2, 0.2, size=30)
        self.inputs = rng.uniform(-1, 1, size=(60, 4))
        self.start = [rng.uniform(-1, 1, size=30) for _ in range(3)]

    def test_run_sequence_matches_reference(self):
        expected = reference_stack(self.res.layers, self.inputs, self.start)
        got = run_sequence(self.res, self.inputs, washout=7, initial_states=self.start)
        assert np.array_equal(got, expected[7:])

    def test_step_deep_loop_matches_reference(self):
        expected = reference_stack(self.res.layers, self.inputs, self.start)
        states = self.start
        for t in range(self.inputs.shape[0]):
            states = step_deep(self.res, states, self.inputs[t])
            assert np.array_equal(np.concatenate(states), expected[t])

    def test_zero_length_input(self):
        assert run_sequence(self.res, np.zeros((0, 4))).shape == (0, 90)

    @pytest.mark.parametrize("connectivity", [0.2, 1.0])
    def test_six_layer_step_deep_loop_matches_reference(self, connectivity):
        res = init_deep_reservoir(small_config(n_layers=6, connectivity=connectivity))
        rng = np.random.default_rng(12)
        for layer in res.layers:
            layer.gain = rng.uniform(0.5, 1.5, size=30)
            layer.bias = rng.uniform(-0.2, 0.2, size=30)
        inputs = rng.uniform(-1, 1, size=(40, 4))
        states = [rng.uniform(-1, 1, size=30) for _ in range(6)]
        expected = reference_stack(res.layers, inputs, states)
        for t in range(inputs.shape[0]):
            states = step_deep(res, states, inputs[t])
            assert np.array_equal(np.concatenate(states), expected[t])


def non_canonical(matrix) -> sp.csr_matrix:
    """`matrix` as CSR with every row's entries reversed and row 0's first
    entry given a duplicate."""
    matrix = sp.csr_matrix(matrix)
    rows = [slice(a, b) for a, b in zip(matrix.indptr[:-1], matrix.indptr[1:])]
    indices = [matrix.indices[row][::-1] for row in rows]
    data = [matrix.data[row][::-1] for row in rows]
    indices[0] = np.append(indices[0], indices[0][0])
    data[0] = np.append(data[0], 0.125)
    indptr = np.cumsum([0] + [len(row) for row in indices])
    out = sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr), shape=matrix.shape
    )
    assert not out.has_sorted_indices and not out.has_canonical_format
    return out


class TestNonCanonicalRecurrent:
    """A layer's unsorted, duplicated CSR matrix is summed in one order
    by `step_deep`, the wave kernel and the layer's own `W @ x`."""

    def test_step_deep_run_sequence_and_reference_agree(self):
        res = init_deep_reservoir(small_config(n_layers=3))
        given = non_canonical(res.layers[1].recurrent)
        given_indices = given.indices.copy()
        res.layers[1].recurrent = given
        rng = np.random.default_rng(13)
        inputs = rng.uniform(-1, 1, size=(40, 4))
        states, stepped = res.initial_states(), []
        for t in range(inputs.shape[0]):
            states = step_deep(res, states, inputs[t])
            stepped.append(np.concatenate(states))
        assert np.array_equal(stepped, run_sequence(res, inputs))
        expected = reference_stack(res.layers, inputs, res.initial_states())
        assert np.array_equal(stepped, expected)
        # the caller's matrix is left as given
        assert np.array_equal(given.indices, given_indices)


def weight_bytes(reservoir):
    total = 0
    for layer in reservoir.layers:
        total += layer.feed.nbytes
        recurrent = layer.recurrent
        if sp.issparse(recurrent):
            total += recurrent.data.nbytes + recurrent.indices.nbytes
            total += recurrent.indptr.nbytes
        else:
            total += recurrent.nbytes
    return total


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoWeightCopies:
    """A kernel call allocates far less than the weights it reads.

    The stacked weights are built with the reservoir, so a call that
    stacked or copied them again would peak near their size.
    """

    @pytest.mark.parametrize("connectivity", [1.0, 0.2])
    def test_calls_peak_below_a_tenth_of_the_weights(self, connectivity):
        res = init_deep_reservoir(
            small_config(n_layers=3, units_per_layer=300, connectivity=connectivity)
        )
        limit = 0.1 * weight_bytes(res)
        inputs = np.random.default_rng(15).uniform(-1, 1, size=(5, 4))
        states = res.initial_states()
        assert traced_peak(lambda: step_deep(res, states, inputs[0])) < limit
        assert traced_peak(lambda: run_sequence(res, inputs)) < limit

    @pytest.mark.parametrize("connectivity", [1.0, 0.2])
    def test_ip_epoch_peak_below_a_tenth_of_the_feed_stack(self, connectivity):
        # IP copies only the gain and bias stacks, never the weights
        res = init_deep_reservoir(
            small_config(n_layers=3, units_per_layer=300, connectivity=connectivity)
        )
        limit = 0.1 * res._weight_stacks().feeds.nbytes
        inputs = np.random.default_rng(17).uniform(-1, 1, size=(5, 4))
        ip = IpConfig(epochs=1)
        assert traced_peak(lambda: pretrain_ip(res, [inputs], ip)) < limit

    def test_replaced_weights_are_used(self):
        res = init_deep_reservoir(small_config(n_layers=3))
        inputs = np.random.default_rng(16).uniform(-1, 1, size=(20, 4))
        run_sequence(res, inputs)
        res.layers[1].feed = 2.0 * res.layers[1].feed
        res.layers[2].recurrent = 0.5 * res.layers[2].recurrent
        res.layers[0].gain = 1.5 * res.layers[0].gain
        res.layers[0].bias = res.layers[0].bias + 0.1
        expected = reference_stack(res.layers, inputs, res.initial_states())
        assert np.array_equal(run_sequence(res, inputs), expected)


class TestLayersMatchConfig:
    """Layers that contradict the config are refused, never run."""

    def test_layer_count(self):
        config = small_config(
            input_dim=3, n_layers=3, units_per_layer=3, connectivity=1.0
        )
        layer = init_deep_reservoir(replace(config, n_layers=1)).layers[0]
        with pytest.raises(ValueError, match="config has 3 layers, got 1"):
            DeepReservoir(config=config, layers=[layer])

    def test_replaced_feed_shape(self):
        res = init_deep_reservoir(
            small_config(input_dim=3, n_layers=3, units_per_layer=3, connectivity=1.0)
        )
        res.layers[2].feed = np.ones((3, 1))
        message = r"layer 2: feed must have shape \(3, 3\), got \(3, 1\)"
        with pytest.raises(ValueError, match=message):
            run_sequence(res, np.zeros((4, 3)))

    @pytest.mark.parametrize(
        "n_layers, replaced, name, size",
        [(2, [0, 1], "gain", 1), (3, [1], "gain", 2), (3, [2], "bias", 4)],
        ids=["broadcastable-gain", "short-gain", "long-bias"],
    )
    def test_parameter_shape(self, n_layers, replaced, name, size):
        # a (1,) gain would broadcast over every unit if it were let through
        config = small_config(
            input_dim=3, n_layers=n_layers, units_per_layer=3, connectivity=1.0
        )
        res = init_deep_reservoir(config)
        for index in replaced:
            setattr(res.layers[index], name, np.full(size, 2.0))
        message = rf"layer {replaced[0]}: {name} must have shape \(3,\), got \({size},\)"
        with pytest.raises(ValueError, match=message):
            run_sequence(res, np.zeros((4, 3)))
        with pytest.raises(ValueError, match=message):
            step_deep(res, res.initial_states(), np.zeros(3))
        with pytest.raises(ValueError, match=message):
            DeepReservoir(config=config, layers=res.layers)

    def test_units(self):
        layers = init_deep_reservoir(small_config(units_per_layer=20)).layers
        with pytest.raises(ValueError, match=r"layer 0: feed must have shape \(30, 4\)"):
            DeepReservoir(config=small_config(), layers=layers)


class TestKernelChecks:
    """Every entry point rejects a bad input width or state list alike."""

    def setup_method(self):
        self.res = init_deep_reservoir(small_config(n_layers=3))

    @pytest.mark.parametrize("count", [2, 4])
    def test_state_count(self, count):
        states = [np.zeros(30) for _ in range(count)]
        with pytest.raises(ValueError, match="states must be 3 arrays of shape"):
            step_deep(self.res, states, np.zeros(4))
        with pytest.raises(ValueError, match="states must be 3 arrays of shape"):
            run_sequence(self.res, np.zeros((5, 4)), initial_states=states)

    def test_state_shape(self):
        states = [np.zeros(30), np.zeros(29), np.zeros(30)]
        with pytest.raises(ValueError, match=r"got shapes \[\(30,\), \(29,\)"):
            run_sequence(self.res, np.zeros((5, 4)), initial_states=states)

    def test_input_width(self):
        message = r"inputs must have shape \(T, 4\)"
        with pytest.raises(ValueError, match=message):
            step_deep(self.res, self.res.initial_states(), np.zeros(5))
        with pytest.raises(ValueError, match=message):
            pretrain_ip(self.res, [np.zeros((5, 5))])
        with pytest.raises(ValueError, match=message):
            activation_statistics(self.res, [np.zeros((5, 5))])


def spy_parts(monkeypatch, cpus):
    """Patch the CPU count to `cpus`; a list that gets each phase's part count."""
    monkeypatch.setattr(reservoir_module, "_cpus", lambda: cpus)
    counts, run_parts = [], reservoir_module._run_parts

    def spy(tasks):
        counts.append(len(tasks))
        run_parts(tasks)

    monkeypatch.setattr(reservoir_module, "_run_parts", spy)
    return counts


class TestTwoPartCollection:
    """Above the one-thread width, two groups of a batch run on two threads
    and give every row the bits of running its sequence alone."""

    # (n_layers, units): 1000 features, the widest that runs as one part,
    # and 1001, the narrowest that splits
    SHAPES = {1000: (8, 125), 1001: (7, 143)}

    @pytest.mark.parametrize("lengths", [(17,), (1, 40, 7, 40, 2), (3, 0, 1, 9, 33, 0, 12)])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("width", [1000, 1001])
    def test_rows_equal_sequences_run_alone(self, monkeypatch, width, cpus, lengths):
        n_layers, units = self.SHAPES[width]
        res = init_deep_reservoir(
            small_config(n_layers=n_layers, units_per_layer=units, connectivity=0.05)
        )
        rng = np.random.default_rng(len(lengths))
        sequences = [rng.uniform(-1, 1, size=(n, 4)) for n in lengths]
        expected = [run_sequence(res, inputs) for inputs in sequences]
        counts = spy_parts(monkeypatch, cpus)
        got = run_layers(res, sequences)
        split = width > 1000 and cpus == 2 and np.count_nonzero(lengths) > 1
        assert counts == [2 if split else 1]
        for states, want in zip(got, expected):
            assert np.array_equal(states, want)
        assert len({id(states.base) for states in got}) == 1


def call_in_time(call, seconds=60.0):
    """Run `call` on a daemon thread; its error, or fail if it runs too long."""
    errors = []

    def run():
        try:
            call()
        except BaseException as error:
            errors.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "the call did not return"
    if errors:
        raise errors[0]


class TestTwoStageErrors:
    """An error in either stage of `run_online` reaches the caller, and no
    thread outlives the call."""

    def setup_method(self):
        # 3 x 400 = 1200 features: the stages are layer 0 and layers 1-2
        self.res = init_deep_reservoir(small_config(n_layers=3, units_per_layer=400))
        rng = np.random.default_rng(21)
        # more sequences than the hand-off queue holds
        self.sequences = [rng.uniform(-1, 1, size=(5, 4)) for _ in range(12)]

    @pytest.mark.parametrize("failing", [0, 1, 2], ids=["lower", "upper", "last"])
    def test_error_reaches_caller_and_threads_end(self, monkeypatch, failing):
        counts = spy_parts(monkeypatch, 2)
        calls, queue_full = [], threading.Event()

        def on_step(rows, gain, bias, net, y):
            calls.append(rows)
            if rows.start == 0 and len(calls) >= 6 * 5:
                # the lower stage has run six sequences: one is with the
                # upper stage, four fill the queue, and it waits on the sixth
                queue_full.set()
            if rows.start <= failing < rows.stop:
                if failing:
                    queue_full.wait(10.0)
                raise KeyError(rows)

        before = threading.active_count()
        with pytest.raises(KeyError):
            call_in_time(lambda: run_online(self.res, self.sequences, on_step))
        assert threading.active_count() == before
        assert counts == [2]
        assert len(calls) < 12 * 7  # both stages stopped early

    def test_threads_end_after_success(self, monkeypatch):
        spy_parts(monkeypatch, 2)
        steps = np.zeros(3, dtype=int)

        def on_step(rows, gain, bias, net, y):
            steps[rows] += 1

        before = threading.active_count()
        call_in_time(lambda: run_online(self.res, self.sequences, on_step))
        assert threading.active_count() == before
        assert steps.tolist() == [60, 60, 60]
