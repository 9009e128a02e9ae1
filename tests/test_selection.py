import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from deepesn.data import make_synthetic_dataset
from deepesn.experiment import TrialResult, sweep_ridges
from deepesn.ip import IpConfig
from deepesn.readout import RidgeAccumulator
from deepesn.reservoir import ReservoirConfig
from deepesn.selection import (
    GridSpec,
    clip_radius_target,
    deep_trained_parameters,
    grid_search,
    gru_parameters,
    guess_seed,
    lstm_parameters,
    srn_parameters,
    units_for_budget,
)


class TestParameterCounts:
    def test_deep_reservoir_counts(self):
        assert deep_trained_parameters(88, 30, 200) == 540088
        assert deep_trained_parameters(88, 1, 6000) == 540088
        assert deep_trained_parameters(52, 30, 200) == 324052

    def test_reference_network_counts(self):
        assert srn_parameters(88, 88, 652) == 540596
        assert lstm_parameters(88, 88, 316) == 539816
        assert gru_parameters(88, 88, 369) == 539566

    def test_units_for_budget_exact_boundaries(self):
        fn = lambda n: srn_parameters(88, 88, n)  # noqa: E731
        assert units_for_budget(fn, fn(652)) == 652
        assert units_for_budget(fn, fn(652) - 1) == 651
        assert units_for_budget(fn, fn(653) - 1) == 652

    @pytest.mark.parametrize("budget", [10, float("nan")])
    def test_units_for_budget_rejects_tiny_budget(self, budget):
        with pytest.raises(ValueError):
            units_for_budget(lambda n: srn_parameters(88, 88, n), budget)

    @pytest.mark.parametrize(
        "counter, names",
        [
            (deep_trained_parameters, ("output_dim", "n_layers", "units_per_layer")),
            (srn_parameters, ("input_dim", "output_dim", "units")),
            (lstm_parameters, ("input_dim", "output_dim", "units")),
            (gru_parameters, ("input_dim", "output_dim", "units")),
        ],
    )
    def test_counters_reject_zero_and_boolean_counts(self, counter, names):
        for i, name in enumerate(names):
            counts = [88, 3, 100]
            counts[i] = 0
            with pytest.raises(ValueError, match=rf"{name} must be >= 1, got 0"):
                counter(*counts)
            counts[i] = True
            with pytest.raises(TypeError, match=rf"{name} must be an integer"):
                counter(*counts)

    def test_units_for_budget_rejects_flat_param_fn(self):
        calls = []

        def flat(units):
            calls.append(units)
            assert len(calls) <= 200, "units_for_budget did not stop"
            return 88

        with pytest.raises(ValueError, match="budget 1000"):
            units_for_budget(flat, 1000)
        # the previously unbounded case: a deep model with no layers
        with pytest.raises(ValueError, match="n_layers must be >= 1"):
            units_for_budget(lambda u: deep_trained_parameters(88, 0, u), 1000)


class TestSeeds:
    def test_frozen_derivations(self):
        assert guess_seed(0, 0, 0) == 2968811710
        assert guess_seed(0, 0, 1) == 3831201730
        assert guess_seed(0, 1, 0) == 3964924996
        assert guess_seed(1, 0, 0) == 1835504127

    def test_distinct_across_cells_and_guesses(self):
        seeds = {
            guess_seed(0, cell, guess)
            for cell in range(20)
            for guess in range(5)
        }
        assert len(seeds) == 100


class TestGridSpec:
    def test_defaults_match_protocol(self):
        grid = GridSpec()
        assert grid.spectral_radii == (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        assert grid.leaky_rates == (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        assert grid.input_scalings == (0.5, 1.5, 2.5)
        assert grid.ridges == (1e-4, 1e-3, 1e-2, 1e-1)
        assert grid.n_guesses == 5
        assert grid.n_configs == 432

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"spectral_radii": ()},
            {"spectral_radii": (0.0,)},
            {"spectral_radii": (1.1,)},
            {"leaky_rates": (0.0,)},
            {"input_scalings": (0.0,)},
            {"ridges": (-1.0,)},
            {"n_guesses": 0},
            {"input_scalings": (float("nan"),)},
            {"input_scalings": (float("inf"),)},
            {"ridges": (float("nan"),)},
            {"ridges": (float("inf"),)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    def test_clip_radius_target(self):
        assert clip_radius_target(0.9) == 0.9
        assert 0.0 < clip_radius_target(1.0) < 1.0


def _sweep_with_ip_epochs(epochs):
    ds = make_synthetic_dataset(seed=3)
    config = ReservoirConfig(ds.dim, 1, 10, connectivity=0.2)
    return sweep_ridges(ds, config, (1e-3,), ip=IpConfig(epochs=epochs))


def _grid_with_master_seed(master_seed):
    ds = make_synthetic_dataset(seed=3)
    grid = GridSpec(
        spectral_radii=(0.5,), leaky_rates=(0.5,), input_scalings=(1.0,),
        ridges=(1e-3,), n_guesses=1,
    )
    config = ReservoirConfig(ds.dim, 1, 10, connectivity=0.2)
    return grid_search(ds, config, grid=grid, master_seed=master_seed)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _sweep_with_ip_epochs(1.5), "epochs must be an integer, got 1.5"),
        (lambda: GridSpec(n_guesses=1.5), "n_guesses must be an integer, got 1.5"),
        (lambda: ReservoirConfig(24, 2.0, 20), "n_layers must be an integer, got 2.0"),
        (lambda: tiny_search(workers=2.5), "workers must be an integer, got 2.5"),
        (lambda: ReservoirConfig(24, 2, 20, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: ReservoirConfig(24, True, 20), "n_layers must be an integer, got True"),
        (lambda: RidgeAccumulator(2.5, 3), "state_dim must be an integer, got 2.5"),
        (lambda: _grid_with_master_seed(1.5), "master_seed must be an integer, got 1.5"),
        (lambda: _grid_with_master_seed(True),
         "master_seed must be an integer, got True"),
    ],
    ids=["ip-epochs", "n-guesses", "n-layers", "workers", "seed", "bool-n-layers",
         "state-dim", "master-seed", "bool-master-seed"],
)
def test_non_integer_count_names_its_field(call, message):
    # each used to be accepted, then fail later with a message naming no field
    with pytest.raises(TypeError, match=message):
        call()


def test_negative_seed_names_its_field():
    # used to be accepted, then fail in numpy's generator naming no field
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ReservoirConfig(4, 1, 10, seed=-1)


def test_negative_master_seed_names_its_field():
    # used to fail in SeedSequence, naming no field
    with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
        _grid_with_master_seed(-1)


def tiny_search(workers=1, grid=None, monkey=None):
    ds = make_synthetic_dataset(seed=3)
    base = ReservoirConfig(
        input_dim=ds.dim,
        n_layers=2,
        units_per_layer=20,
        connectivity=0.2,
        seed=0,
    )
    grid = grid or GridSpec(
        spectral_radii=(0.5, 0.9),
        leaky_rates=(0.5,),
        input_scalings=(1.0,),
        ridges=(1e-3, 1e-1),
        n_guesses=2,
    )
    return grid_search(ds, base, grid=grid, master_seed=7, workers=workers)


class TestGridSearch:
    def test_report_shape_and_order(self):
        result = tiny_search()
        assert len(result.trials) == 2 * 2 * 2  # cells x ridges x guesses
        keys = [(t.config_index, t.guess) for t in result.trials]
        assert keys == sorted(keys)
        assert {t.status for t in result.trials} == {"ok"}

    def test_washout_without_training_step_fails_every_trial(self):
        ds = make_synthetic_dataset(seed=3)
        base = ReservoirConfig(input_dim=ds.dim, n_layers=1, units_per_layer=10)
        grid = GridSpec(
            spectral_radii=(0.5,), leaky_rates=(0.5,), input_scalings=(1.0,),
            ridges=(1e-3,), n_guesses=2,
        )
        result = grid_search(ds, base, grid=grid, master_seed=7, washout=1000)
        assert [t.status for t in result.trials] == ["failed", "failed"]
        assert all("washout" in t.error for t in result.trials)
        assert result.best is None

    def test_negative_washout_fails_every_trial(self):
        ds = make_synthetic_dataset(seed=3)
        base = ReservoirConfig(input_dim=ds.dim, n_layers=1, units_per_layer=10)
        grid = GridSpec(
            spectral_radii=(0.5,), leaky_rates=(0.5,), input_scalings=(1.0,),
            ridges=(1e-3, 1e-1), n_guesses=2,
        )
        result = grid_search(ds, base, grid=grid, master_seed=7, washout=-1)
        assert [t.status for t in result.trials] == ["failed"] * 4
        assert all("washout must be >= 0" in t.error for t in result.trials)
        assert result.best is None

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"washout": 1.5}, "washout must be an integer"),
            ({"threshold": float("nan")}, "threshold must be finite"),
            ({"threshold": float("inf")}, "threshold must be finite"),
        ],
        ids=["washout-float", "threshold-nan", "threshold-inf"],
    )
    def test_bad_setting_fails_every_trial(self, setting, message):
        ds = make_synthetic_dataset(seed=3)
        base = ReservoirConfig(input_dim=ds.dim, n_layers=1, units_per_layer=10)
        grid = GridSpec(
            spectral_radii=(0.5,), leaky_rates=(0.5,), input_scalings=(1.0,),
            ridges=(1e-3, 1e-1), n_guesses=2,
        )
        result = grid_search(ds, base, grid=grid, master_seed=7, **setting)
        assert [t.status for t in result.trials] == ["failed"] * 4
        assert all(message in t.error for t in result.trials)
        assert result.best is None

    def test_seed_shared_across_ridges(self):
        result = tiny_search()
        by_key = {(t.config_index, t.guess): t.seed for t in result.trials}
        # config 0 and 1 are the two ridges of the same search cell
        assert by_key[(0, 0)] == by_key[(1, 0)]
        assert by_key[(0, 0)] != by_key[(0, 1)]
        assert by_key[(0, 0)] != by_key[(2, 0)]

    @staticmethod
    def strip(trial):
        return {k: v for k, v in trial.to_dict().items() if k != "timing"}

    def test_deterministic(self):
        a = tiny_search()
        b = tiny_search()
        assert [self.strip(t) for t in a.trials] == [self.strip(t) for t in b.trials]
        assert a.best.to_dict() == b.best.to_dict()

    def test_workers_do_not_change_results(self):
        a = tiny_search(workers=1)
        b = tiny_search(workers=2)
        assert [self.strip(t) for t in a.trials] == [self.strip(t) for t in b.trials]
        assert a.best.to_dict() == b.best.to_dict()

    def test_pool_no_larger_than_the_work(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return list(map(func, items))

        monkeypatch.setattr("deepesn.selection.ProcessPoolExecutor", SerialPool)
        grid = GridSpec(
            spectral_radii=(0.5,), leaky_rates=(0.5,), input_scalings=(1.0,),
            ridges=(1e-3,), n_guesses=2,
        )
        result = tiny_search(workers=8, grid=grid)
        assert sizes == [2]  # one (cell, guess) item per guess
        assert [t.status for t in result.trials] == ["ok", "ok"]

    def test_best_maximizes_mean_valid_acc(self):
        result = tiny_search()
        means = {}
        for t in result.trials:
            means.setdefault(t.config_index, []).append(t.valid_acc)
        means = {k: float(np.mean(v)) for k, v in means.items()}
        assert result.best.mean_valid_acc == max(means.values())
        assert means[result.best.config_index] == result.best.mean_valid_acc

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            tiny_search(workers=0)


class TestFailureHandling:
    def fake_sweep(self, fail_when):
        def sweep(dataset, config, ridges, **kwargs):
            if fail_when(config):
                raise RuntimeError("boom")
            return [
                TrialResult(
                    train_acc=0.5, valid_acc=0.5, test_acc=0.5,
                    threshold=0.5, seconds=0.01,
                )
                for _ in ridges
            ]
        return sweep

    def test_failures_reported_and_excluded(self, monkeypatch):
        monkeypatch.setattr(
            "deepesn.selection.sweep_ridges",
            self.fake_sweep(lambda cfg: cfg.spectral_radius_target > 0.7),
        )
        result = tiny_search()
        failed = [t for t in result.trials if t.status == "failed"]
        ok = [t for t in result.trials if t.status == "ok"]
        assert len(failed) == 4 and len(ok) == 4
        assert all("RuntimeError: boom" in t.error for t in failed)
        assert all(t.valid_acc is None for t in failed)
        # only the surviving cell can be selected
        assert result.best.spectral_radius == 0.5

    def test_failed_reports_keep_their_metadata(self, monkeypatch):
        # a failed sweep reports every ridge of its (cell, guess) item
        # under the same identity as an all-ok run of the grid
        fields = (
            "config_index", "ridge", "guess", "seed",
            "spectral_radius", "leaky_rate", "input_scaling",
        )
        scores = ("train_acc", "valid_acc", "test_acc", "threshold", "seconds")
        ok = tiny_search()
        monkeypatch.setattr(
            "deepesn.selection.sweep_ridges",
            self.fake_sweep(lambda cfg: cfg.spectral_radius_target > 0.7),
        )
        mixed = tiny_search()
        assert {t.status for t in ok.trials} == {"ok"}
        assert len(mixed.trials) == len(ok.trials)
        failed = 0
        for a, b in zip(ok.trials, mixed.trials):
            assert [getattr(b, f) for f in fields] == [getattr(a, f) for f in fields]
            if b.status == "failed":
                failed += 1
                assert [getattr(b, f) for f in scores] == [None] * len(scores)
        assert failed == 4

    def test_dead_worker_ends_the_grid(self, monkeypatch):
        # a worker killed outright, as by the OOM killer, must end the
        # search with an error; the alarm turns a hang into a failure
        parent = os.getpid()
        survive = self.fake_sweep(lambda cfg: False)

        def sweep(dataset, config, ridges, **kwargs):
            if os.getpid() != parent and config.spectral_radius_target > 0.7:
                os.kill(os.getpid(), signal.SIGKILL)
            return survive(dataset, config, ridges)

        def hung(signum, frame):
            raise TimeoutError("grid_search still waiting after a worker died")

        monkeypatch.setattr("deepesn.selection.sweep_ridges", sweep)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(BrokenProcessPool):
                tiny_search(workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_all_failed_gives_no_best(self, monkeypatch):
        monkeypatch.setattr(
            "deepesn.selection.sweep_ridges", self.fake_sweep(lambda cfg: True)
        )
        result = tiny_search()
        assert result.best is None
        assert all(t.status == "failed" for t in result.trials)

    def test_exact_ties_keep_smallest_index(self, monkeypatch):
        monkeypatch.setattr(
            "deepesn.selection.sweep_ridges", self.fake_sweep(lambda cfg: False)
        )
        result = tiny_search()
        assert result.best.config_index == 0
        assert result.best.mean_valid_acc == 0.5
        assert result.best.n_guesses_ok == 2
