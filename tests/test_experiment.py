import numpy as np
import pytest
from test_reservoir import reference_stack, traced_peak

from deepesn.data import (
    SPLIT_NAMES,
    PianoRollDataset,
    make_synthetic_dataset,
    next_step_pairs,
    to_dense,
)
from deepesn.errors import ConfigError
from deepesn.experiment import (
    THRESHOLD_GRID,
    choose_threshold,
    collect_pairs,
    collect_splits,
    run_model,
    sweep_ridges,
)
from deepesn.ip import IpConfig, pretrain_ip
from deepesn.metrics import frame_counts
from deepesn import readout as readout_module
from deepesn.readout import RidgeAccumulator
from deepesn.reservoir import (
    ReservoirConfig,
    init_deep_reservoir,
    run_layers,
    run_sequence,
)


def small_config(dim, **overrides):
    base = dict(
        input_dim=dim,
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


class TestCollectPairs:
    def test_alignment_and_washout(self):
        res = init_deep_reservoir(small_config(3))
        dense = to_dense([[0], [1], [2], [0], [1]], 3)
        pairs = collect_pairs(res, [dense], washout=1)
        assert len(pairs) == 1
        states, targets = pairs[0]
        assert states.shape == (3, 60)  # 4 input steps minus 1 washed out
        np.testing.assert_array_equal(targets, dense[2:])
        full = run_sequence(res, dense[:-1])
        np.testing.assert_array_equal(states, full[1:])

    def test_skips_too_short_sequences(self):
        res = init_deep_reservoir(small_config(3))
        dense_long = to_dense([[0], [1], [2]], 3)
        dense_short = to_dense([[0]], 3)
        pairs = collect_pairs(res, [dense_short, dense_long], washout=0)
        assert len(pairs) == 1
        pairs = collect_pairs(res, [dense_long], washout=2)
        assert pairs == []

    def test_rejects_negative_washout(self):
        ds = make_synthetic_dataset(seed=5)
        res = init_deep_reservoir(small_config(ds.dim))
        with pytest.raises(ValueError, match="washout must be >= 0, got -1"):
            collect_pairs(res, ds.dense("train"), washout=-1)
        with pytest.raises(ValueError, match="washout must be >= 0, got -1"):
            collect_splits(res, [ds.dense("train")], washout=-1)

    @pytest.mark.parametrize("washout", [1.5, 2.0])
    def test_rejects_non_integer_washout_before_running(self, monkeypatch, washout):
        # a float washout used to run every sequence, then fail in slicing
        def refuse(*args, **kwargs):
            raise AssertionError("sequences run before the washout was checked")

        ds = make_synthetic_dataset(seed=5)
        res = init_deep_reservoir(small_config(ds.dim))
        monkeypatch.setattr("deepesn.experiment.run_layers", refuse)
        with pytest.raises(TypeError, match="washout must be an integer"):
            collect_pairs(res, ds.dense("train"), washout=washout)
        with pytest.raises(TypeError, match="washout must be an integer"):
            collect_splits(res, [ds.dense("train")], washout=washout)


class TestBatchOracle:
    """One batch over unequal sequences equals running each one alone."""

    # The 3-layer cases keep the ids they had before depth was a parameter.
    @pytest.mark.parametrize(
        "connectivity, n_layers",
        [(0.2, 3), (1.0, 3), (0.2, 1), (1.0, 1), (0.2, 6), (1.0, 6)],
        ids=["0.2", "1.0", "0.2-1", "1.0-1", "0.2-6", "1.0-6"],
    )
    def test_pairs_match_reference_per_sequence(self, connectivity, n_layers):
        res = init_deep_reservoir(
            small_config(4, n_layers=n_layers, connectivity=connectivity)
        )
        rng = np.random.default_rng(12)
        for layer in res.layers:
            layer.gain = rng.uniform(0.5, 1.5, size=30)
            layer.bias = rng.uniform(-0.2, 0.2, size=30)
        lengths = (17, 40, 3, 25, 40, 9)  # 3 frames leave 2 steps: skipped
        dense = [rng.uniform(-1, 1, size=(n, 4)) for n in lengths]
        pairs = collect_pairs(res, dense, washout=2)
        kept = [seq for seq in dense if seq.shape[0] > 3]
        assert len(pairs) == len(kept) == 5
        rest = [np.zeros(30)] * n_layers
        for (states, targets), seq in zip(pairs, kept):
            inputs, aligned = next_step_pairs(seq)
            expected = reference_stack(res.layers, inputs, rest)[2:]
            assert np.array_equal(states, expected)
            assert np.array_equal(targets, aligned[2:])


    # The first lengths end before 6 layers take 6 waves to fill; the
    # others end on consecutive steps, so one wave's slab spans six
    # running counts. The first cases keep their ids.
    @pytest.mark.parametrize(
        "connectivity, lengths",
        [(0.2, (0, 1, 2, 7)), (1.0, (0, 1, 2, 7)),
         (0.2, (9, 8, 7, 6, 5, 4, 3)), (1.0, (9, 8, 7, 6, 5, 4, 3))],
        ids=["0.2", "1.0", "0.2-consecutive", "1.0-consecutive"],
    )
    def test_sequences_ending_before_the_diagonal_fills(self, connectivity, lengths):
        res = init_deep_reservoir(
            small_config(4, n_layers=6, connectivity=connectivity)
        )
        rng = np.random.default_rng(13)
        for layer in res.layers:
            layer.gain = rng.uniform(0.5, 1.5, size=30)
            layer.bias = rng.uniform(-0.2, 0.2, size=30)
        start = [rng.uniform(-1, 1, size=30) for _ in range(6)]
        inputs = [rng.uniform(-1, 1, size=(n, 4)) for n in lengths]
        got = run_layers(res, inputs, start)
        assert [s.shape for s in got] == [(n, 180) for n in lengths]
        for states, seq in zip(got, inputs):
            assert np.array_equal(states, reference_stack(res.layers, seq, start))

    def test_splits_in_one_batch_match_split_by_split(self):
        res = init_deep_reservoir(small_config(4, n_layers=3))
        rng = np.random.default_rng(14)
        splits = [
            [rng.uniform(-1, 1, size=(n, 4)) for n in lengths]
            for lengths in ((12, 30, 2), (25,), (8, 19))
        ]
        merged = collect_splits(res, splits, washout=1)
        assert len(merged) == 3
        for pairs, split in zip(merged, splits):
            alone = collect_pairs(res, split, washout=1)
            assert len(pairs) == len(alone)
            for (states, targets), (states1, targets1) in zip(pairs, alone):
                assert np.array_equal(states, states1)
                assert np.array_equal(targets, targets1)


class TestChooseThreshold:
    def test_picks_best_and_breaks_ties_low(self):
        # identity readout on one state feature; target on at 0.6
        weights = np.array([[1.0], [0.0]])
        states = np.array([[0.15], [0.35], [0.62], [0.85]])
        targets = np.array([[0], [0], [1], [1]])
        chosen = choose_threshold(weights, [(states, targets)])
        # thresholds 0.4, 0.5, 0.6 are all perfect; the smallest wins
        assert chosen == 0.4

    def test_grid_values(self):
        assert THRESHOLD_GRID == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class TestRunModel:
    def test_deterministic_scores(self):
        ds = make_synthetic_dataset(seed=3)
        cfg = small_config(ds.dim)
        a = run_model(ds, cfg, ridge=1e-3)
        b = run_model(ds, cfg, ridge=1e-3)
        assert (a.train_acc, a.valid_acc, a.test_acc) == (
            b.train_acc, b.valid_acc, b.test_acc,
        )
        assert a.seconds > 0

    def test_learns_predictable_data(self):
        ds = make_synthetic_dataset(seed=3)
        result = run_model(ds, small_config(ds.dim), ridge=1e-3)
        assert result.test_acc > 0.8

    def test_ip_changes_scores(self):
        ds = make_synthetic_dataset(seed=3)
        cfg = small_config(ds.dim)
        plain = run_model(ds, cfg, ridge=1e-3)
        adapted = run_model(ds, cfg, ridge=1e-3, ip=IpConfig(epochs=1))
        assert (plain.train_acc, plain.valid_acc) != (
            adapted.train_acc, adapted.valid_acc,
        )

    def test_threshold_tuning_reported(self):
        ds = make_synthetic_dataset(seed=3)
        result = run_model(
            ds, small_config(ds.dim), ridge=1e-3, tune_threshold=True
        )
        assert result.threshold in THRESHOLD_GRID

    def test_fixed_threshold_respected(self):
        ds = make_synthetic_dataset(seed=3)
        result = run_model(ds, small_config(ds.dim), ridge=1e-3, threshold=0.3)
        assert result.threshold == 0.3


class TestSweepRidges:
    def test_matches_individual_runs(self):
        ds = make_synthetic_dataset(seed=4)
        cfg = small_config(ds.dim)
        ridges = (1e-3, 1e-1)
        swept = sweep_ridges(ds, cfg, ridges)
        assert len(swept) == 2
        for ridge, result in zip(ridges, swept):
            single = run_model(ds, cfg, ridge=ridge)
            assert result.train_acc == single.train_acc
            assert result.valid_acc == single.valid_acc
            assert result.test_acc == single.test_acc

    @pytest.mark.skipif(
        readout_module._THREADS is None, reason="no OpenBLAS thread count to set"
    )
    def test_small_states_solve_on_one_blas_thread(self, monkeypatch):
        get, put = readout_module._THREADS
        seen, factor = [], readout_module.cho_factor

        def spy(*args, **kwargs):
            seen.append(get())
            return factor(*args, **kwargs)

        monkeypatch.setattr(readout_module, "cho_factor", spy)
        ds = make_synthetic_dataset(seed=4)
        before = get()
        sweep_ridges(ds, small_config(ds.dim), (1e-3, 1e-1))
        assert seen == [1, 1]
        assert get() == before

    def test_each_trial_reports_full_cost(self):
        ds = make_synthetic_dataset(seed=4)
        swept = sweep_ridges(ds, small_config(ds.dim), (1e-3, 1e-2, 1e-1))
        assert all(r.seconds > 0 for r in swept)

    def test_washout_must_leave_a_training_step(self):
        ds = make_synthetic_dataset(seed=4)
        longest = max(seq.shape[0] for seq in ds.dense("train"))
        cfg = small_config(ds.dim)
        # a T-frame sequence gives T - 1 aligned steps
        assert len(sweep_ridges(ds, cfg, (1e-3,), washout=longest - 2)) == 1
        with pytest.raises(ConfigError, match="washout"):
            sweep_ridges(ds, cfg, (1e-3,), washout=longest - 1)

    @pytest.mark.parametrize(
        "ridges, message",
        [
            ((), "ridges must not be empty"),
            ((1e-3, -1.0), "ridge must be finite and >= 0, got -1.0"),
            ((float("nan"),), "ridge must be finite and >= 0, got nan"),
            ((1e-3, float("inf")), "ridge must be finite and >= 0, got inf"),
        ],
        ids=["empty", "negative", "nan", "infinite"],
    )
    def test_ridges_checked_before_any_work(self, monkeypatch, ridges, message):
        def refuse(config):
            raise AssertionError("reservoir built before the ridges were checked")

        monkeypatch.setattr("deepesn.experiment.init_deep_reservoir", refuse)
        ds = make_synthetic_dataset(seed=4)
        with pytest.raises(ValueError, match=message):
            sweep_ridges(ds, small_config(ds.dim), ridges)

    def test_input_dim_checked_before_any_work(self, monkeypatch):
        def refuse(config):
            raise AssertionError("reservoir built before input_dim was checked")

        monkeypatch.setattr("deepesn.experiment.init_deep_reservoir", refuse)
        ds = make_synthetic_dataset(seed=4)
        message = f"input_dim must be the dataset's dim {ds.dim}, got {ds.dim + 1}"
        with pytest.raises(ValueError, match=message):
            sweep_ridges(ds, small_config(ds.dim + 1), (1e-3,))

    @pytest.mark.parametrize("washout", [-1, -50])
    def test_negative_washout_checked_before_any_work(self, monkeypatch, washout):
        # a negative washout would fit and score only the last steps
        def refuse(config):
            raise AssertionError("reservoir built before the washout was checked")

        monkeypatch.setattr("deepesn.experiment.init_deep_reservoir", refuse)
        ds = make_synthetic_dataset(seed=4)
        with pytest.raises(ValueError, match=f"washout must be >= 0, got {washout}"):
            sweep_ridges(ds, small_config(ds.dim), (1e-3,), washout=washout)
        with pytest.raises(ValueError, match=f"washout must be >= 0, got {washout}"):
            run_model(ds, small_config(ds.dim), 1e-3, washout=washout)

    @pytest.mark.parametrize("washout", [1.5, 2.0])
    def test_non_integer_washout_checked_before_any_work(self, monkeypatch, washout):
        def refuse(config):
            raise AssertionError("reservoir built before the washout was checked")

        monkeypatch.setattr("deepesn.experiment.init_deep_reservoir", refuse)
        ds = make_synthetic_dataset(seed=4)
        with pytest.raises(TypeError, match="washout must be an integer"):
            sweep_ridges(ds, small_config(ds.dim), (1e-3,), washout=washout)
        with pytest.raises(TypeError, match="washout must be an integer"):
            run_model(ds, small_config(ds.dim), 1e-3, washout=washout)

    def test_numpy_integer_washout_accepted(self):
        ds = make_synthetic_dataset(seed=4)
        cfg = small_config(ds.dim)
        a = run_model(ds, cfg, 1e-3, washout=np.int64(2))
        b = run_model(ds, cfg, 1e-3, washout=2)
        assert (a.train_acc, a.valid_acc, a.test_acc) == (
            b.train_acc, b.valid_acc, b.test_acc
        )

    @pytest.mark.parametrize("tune_threshold", [False, True])
    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_checked_before_any_work(
        self, monkeypatch, threshold, tune_threshold
    ):
        # nan and inf used to score 0.0 on every split without a word
        def refuse(config):
            raise AssertionError("reservoir built before the threshold was checked")

        monkeypatch.setattr("deepesn.experiment.init_deep_reservoir", refuse)
        ds = make_synthetic_dataset(seed=4)
        cfg = small_config(ds.dim)
        settings = dict(threshold=threshold, tune_threshold=tune_threshold)
        message = f"threshold must be finite, got {threshold}"
        with pytest.raises(ValueError, match=message):
            sweep_ridges(ds, cfg, (1e-3,), **settings)
        with pytest.raises(ValueError, match=message):
            run_model(ds, cfg, 1e-3, **settings)

    def test_washout_must_leave_a_step_in_every_split(self):
        # the longest valid sequence has 54 frames, train and test have 57:
        # a split without steps would score accuracy 1.0
        ds = make_synthetic_dataset(seed=0)
        cfg = small_config(ds.dim, n_layers=1, units_per_layer=20)
        with pytest.raises(ConfigError, match="washout 55 leaves no valid step"):
            sweep_ridges(ds, cfg, (1e-3,), washout=55, tune_threshold=True)


def reference_sweep(ds, cfg, ridges, ip, washout, threshold, tune_threshold):
    """`sweep_ridges` from public pieces, split by split and sequence by sequence."""
    res = init_deep_reservoir(cfg)
    if ip is not None:
        drives = [seq[:-1] for seq in ds.dense("train") if seq.shape[0] > 1]
        pretrain_ip(res, drives, ip)
    splits = [collect_pairs(res, ds.dense(split), washout) for split in SPLIT_NAMES]
    accumulator = RidgeAccumulator(res.state_dim, ds.dim)
    for states, targets in splits[0]:
        accumulator.add(states, targets)
    results = []
    for ridge in ridges:
        readout = accumulator.solve(ridge)
        outputs = [
            [(readout.predict_continuous(s), t) for s, t in pairs] for pairs in splits
        ]
        chosen = reference_threshold(outputs[1]) if tune_threshold else threshold
        scores = [pooled_accuracy((out >= chosen, t) for out, t in o) for o in outputs]
        results.append((*scores, chosen))
    return results


def reference_threshold(outputs):
    """The first best threshold of the grid on (continuous output, target)
    pairs, scored by `pooled_accuracy`."""
    scores = [
        pooled_accuracy((out >= th, t) for out, t in outputs) for th in THRESHOLD_GRID
    ]
    return THRESHOLD_GRID[scores.index(max(scores))]


def pooled_accuracy(pairs):
    """TP / (TP + FP + FN) with each count summed over the (predicted,
    target) pairs one pair at a time; 1.0 when no note is on anywhere."""
    tp = fp = fn = 0
    for predicted, target in pairs:
        counts = frame_counts(predicted, target)
        tp, fp, fn = tp + counts.tp, fp + counts.fp, fn + counts.fn
    return tp / (tp + fp + fn) if tp + fp + fn else 1.0


def with_short_sequences(ds):
    """`ds` with a 3-frame sequence (2 steps) first in every split."""
    short = [[0], [1, 2], [3]]
    splits = {name: [short] + list(ds.splits[name]) for name in SPLIT_NAMES}
    return PianoRollDataset(name=ds.name, dim=ds.dim, splits=splits)


class TestSweepOracle:
    """One product over the packed states scores as sequence by sequence."""

    ridges = (1e-4, 1e-2, 1.0)

    @pytest.mark.parametrize("tune_threshold", [True, False])
    @pytest.mark.parametrize("washout", [0, 2])
    @pytest.mark.parametrize(
        "connectivity, ip", [(0.2, None), (1.0, IpConfig(epochs=1))]
    )
    def test_matches_reference(self, connectivity, ip, washout, tune_threshold):
        # washout 2 skips the 2-step sequences, washout 0 keeps them
        ds = with_short_sequences(make_synthetic_dataset(seed=6))
        cfg = small_config(ds.dim, connectivity=connectivity)
        args = (ip, washout, 0.3, tune_threshold)
        swept = sweep_ridges(ds, cfg, self.ridges, *args)
        expected = reference_sweep(ds, cfg, self.ridges, *args)
        got = [(r.train_acc, r.valid_acc, r.test_acc, r.threshold) for r in swept]
        assert got == expected

    @pytest.mark.parametrize("tune_threshold", [True, False])
    def test_silent_targets_and_predictions_score_one(self, tune_threshold):
        silent = [[[]] * 20] * 3
        ds = PianoRollDataset(
            name="silent", dim=5, splits=dict.fromkeys(SPLIT_NAMES, silent)
        )
        cfg = small_config(ds.dim)
        swept = sweep_ridges(ds, cfg, self.ridges, washout=2, tune_threshold=tune_threshold)
        got = [(r.train_acc, r.valid_acc, r.test_acc, r.threshold) for r in swept]
        expected = reference_sweep(ds, cfg, self.ridges, None, 2, 0.5, tune_threshold)
        assert got == expected
        assert all(r.train_acc == r.valid_acc == r.test_acc == 1.0 for r in swept)

    def test_more_ridges_copy_no_states(self):
        # Eight ridges hold seven more (61, 24) weight arrays than one;
        # a copy of any split's states would be larger than that.
        ds = make_synthetic_dataset(
            n_sequences=(8, 8, 8), length_range=(60, 100), seed=7
        )
        cfg = small_config(ds.dim)
        steps = min(
            sum(len(seq) - 1 for seq in ds.dense(split)) for split in SPLIT_NAMES
        )
        split_bytes = steps * cfg.state_dim * 8

        def peak(ridges):
            return traced_peak(
                lambda: sweep_ridges(ds, cfg, ridges, tune_threshold=True)
            )

        eight = tuple(np.logspace(-5, 0, 8))
        assert peak(eight) - peak((1e-3,)) < split_bytes
