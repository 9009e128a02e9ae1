"""Hyper-parameter grid search and trained-parameter accounting.

The search protocol sweeps spectral radius, leaky rate, and input
scaling over a grid, crossed with a list of ridge strengths and
repeated over several independently seeded guesses. Guesses of the same
(radius, rate, scaling) cell share collected states across the ridge
sweep, since the regularizer only affects the solve. A model is
selected by the mean validation accuracy of its configuration across
guesses; failed runs are kept in the report but excluded from
selection.

The accounting helpers count trained parameters (reservoirs train only
the readout plus the adapted gains and biases; the reference recurrent
networks train everything) and size networks to a parameter budget.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import chain, product

import numpy as np

from .data import PianoRollDataset
from .experiment import sweep_ridges
from .ip import IpConfig
from .reservoir import ReservoirConfig, _check_count

logger = logging.getLogger(__name__)

__all__ = [
    "GridSpec",
    "TrialReport",
    "BestConfig",
    "SelectionResult",
    "grid_search",
    "clip_radius_target",
    "deep_trained_parameters",
    "srn_parameters",
    "lstm_parameters",
    "gru_parameters",
    "units_for_budget",
]

# A radius target of exactly 1 sits on the stability boundary; run it
# just inside so the contraction condition still holds. The margin must
# dominate the radius estimator's relative tolerance (`linalg._RTOL`), or
# the achieved radius could land on the wrong side of 1.
_RADIUS_MARGIN = 1e-6


def clip_radius_target(value: float) -> float:
    """Map a grid radius in (0, 1] to a valid target in (0, 1).

    Raises ValueError for a radius outside (0, 1].
    """
    if not 0.0 < value <= 1.0:
        raise ValueError(f"spectral_radius must be in (0, 1], got {value}")
    if value == 1.0:
        logger.info(
            "spectral radius %g is on the stability boundary; using %g",
            value,
            1.0 - _RADIUS_MARGIN,
        )
        return 1.0 - _RADIUS_MARGIN
    return value


@dataclass(frozen=True)
class GridSpec:
    """Grid values and guess count for the search protocol."""

    spectral_radii: tuple = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    leaky_rates: tuple = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    input_scalings: tuple = (0.5, 1.5, 2.5)
    ridges: tuple = (1e-4, 1e-3, 1e-2, 1e-1)
    n_guesses: int = 5

    def __post_init__(self):
        for name in ("spectral_radii", "leaky_rates", "input_scalings", "ridges"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for rho in self.spectral_radii:
            if not 0.0 < rho <= 1.0:
                raise ValueError(f"spectral_radii must be in (0, 1], got {rho}")
        for a in self.leaky_rates:
            if not 0.0 < a <= 1.0:
                raise ValueError(f"leaky_rates must be in (0, 1], got {a}")
        for s in self.input_scalings:
            if not 0.0 < s < math.inf:
                raise ValueError(f"input_scalings must be finite and > 0, got {s}")
        for r in self.ridges:
            if not 0.0 <= r < math.inf:
                raise ValueError(f"ridges must be finite and >= 0, got {r}")
        _check_count("n_guesses", self.n_guesses, 1)

    @property
    def n_configs(self) -> int:
        return (
            len(self.spectral_radii)
            * len(self.leaky_rates)
            * len(self.input_scalings)
            * len(self.ridges)
        )


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one (configuration, guess) training run.

    `config_index` enumerates the (radius, rate, scaling, ridge)
    product with ridge varying fastest; `seed` is the derived reservoir
    seed shared by every ridge of the same configuration cell and
    guess. Failed runs carry an error string and no scores.
    """

    config_index: int
    spectral_radius: float
    leaky_rate: float
    input_scaling: float
    ridge: float
    guess: int
    seed: int
    status: str
    error: str | None = None
    train_acc: float | None = None
    valid_acc: float | None = None
    test_acc: float | None = None
    threshold: float | None = None
    seconds: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready record; wall-clock time sits under 'timing'."""
        record = asdict(self)
        record["timing"] = {"seconds": record.pop("seconds")}
        return record


@dataclass(frozen=True)
class BestConfig:
    """The selected configuration with its across-guess statistics."""

    config_index: int
    spectral_radius: float
    leaky_rate: float
    input_scaling: float
    ridge: float
    mean_valid_acc: float
    mean_test_acc: float
    std_test_acc: float
    n_guesses_ok: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SelectionResult:
    """All trial reports plus the selected configuration, if any."""

    trials: list
    best: BestConfig | None


def guess_seed(master_seed: int, arch_index: int, guess: int) -> int:
    """Derive one reservoir seed per (search cell, guess).

    The derivation is position-based, so adding grid values or guesses
    never changes the seeds of existing cells.
    """
    seq = np.random.SeedSequence((master_seed, arch_index, guess))
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def _run_work(item, dataset, ridges, settings):
    """Run one (cell, guess) ridge sweep and report each ridge; never raises."""
    first_index, config, shared = item
    try:
        sweeps = sweep_ridges(dataset, config, ridges, **settings)
        outcomes = [dict(status="ok", **asdict(result)) for result in sweeps]
    except Exception as exc:  # report the failure, keep the search going
        outcomes = [dict(status="failed", error=f"{type(exc).__name__}: {exc}")]
        outcomes *= len(ridges)
    return [
        TrialReport(config_index=first_index + i, ridge=ridge, **shared, **outcome)
        for i, (ridge, outcome) in enumerate(zip(ridges, outcomes))
    ]


def _select_best(trials) -> BestConfig | None:
    by_config = {}
    for trial in trials:
        if trial.status == "ok":
            by_config.setdefault(trial.config_index, []).append(trial)
    if not by_config:
        return None
    means = {i: float(np.mean([t.valid_acc for t in g])) for i, g in by_config.items()}
    # max keeps the first of equal means, so ties keep the earlier grid index
    config_index = max(sorted(means), key=means.__getitem__)
    group = by_config[config_index]
    first = group[0]
    return BestConfig(
        config_index=config_index,
        spectral_radius=first.spectral_radius,
        leaky_rate=first.leaky_rate,
        input_scaling=first.input_scaling,
        ridge=first.ridge,
        mean_valid_acc=means[config_index],
        mean_test_acc=float(np.mean([t.test_acc for t in group])),
        std_test_acc=float(np.std([t.test_acc for t in group])),
        n_guesses_ok=len(group),
    )


def grid_search(
    dataset: PianoRollDataset,
    base: ReservoirConfig,
    grid: GridSpec = GridSpec(),
    master_seed: int = 0,
    ip: IpConfig | None = None,
    washout: int = 0,
    threshold: float = 0.5,
    tune_threshold: bool = False,
    workers: int = 1,
) -> SelectionResult:
    """Search the grid around a base architecture on one dataset.

    `base` fixes layers, units, and connectivity; its radius, rate,
    scaling, and seed fields are overwritten per cell. Work is split by
    (cell, guess), each item building its own trial reports, and
    optionally spread over worker processes; results come back in
    deterministic order either way.
    """
    _check_count("master_seed", master_seed, 0)
    _check_count("workers", workers, 1)
    cells = product(grid.spectral_radii, grid.leaky_rates, grid.input_scalings)
    items = []
    for arch_index, (rho, rate, scaling) in enumerate(cells):
        cell = replace(
            base,
            input_dim=dataset.dim,
            spectral_radius_target=clip_radius_target(rho),
            leaky_rate=rate,
            input_scaling=scaling,
        )
        first_index = arch_index * len(grid.ridges)
        for guess in range(grid.n_guesses):
            seed = guess_seed(master_seed, arch_index, guess)
            shared = dict(
                spectral_radius=rho, leaky_rate=rate, input_scaling=scaling,
                guess=guess, seed=seed,
            )
            items.append((first_index, replace(cell, seed=seed), shared))
    settings = dict(
        ip=ip, washout=washout, threshold=threshold, tune_threshold=tune_threshold
    )
    run = partial(_run_work, dataset=dataset, ridges=grid.ridges, settings=settings)
    if workers == 1:
        outcomes = list(map(run, items))
    else:
        # A worker that dies raises BrokenProcessPool here, not a hang.
        with ProcessPoolExecutor(min(workers, len(items))) as pool:
            outcomes = list(pool.map(run, items))
    trials = sorted(chain(*outcomes), key=lambda t: (t.config_index, t.guess))
    return SelectionResult(trials=trials, best=_select_best(trials))


def _check_counts(**counts) -> None:
    """Raise unless every named count is an integer >= 1."""
    for name, count in counts.items():
        _check_count(name, count, 1)


def deep_trained_parameters(
    output_dim: int, n_layers: int, units_per_layer: int
) -> int:
    """Trained parameters of a deep reservoir model.

    The readout maps the concatenated state plus a bias to the outputs;
    adaptation trains one gain and one bias per unit. Reservoir weights
    are fixed and not counted.
    """
    _check_counts(
        output_dim=output_dim, n_layers=n_layers, units_per_layer=units_per_layer
    )
    total_units = n_layers * units_per_layer
    return output_dim * (total_units + 1) + 2 * total_units


def _rnn_parameters(blocks, input_dim, output_dim, units) -> int:
    """`blocks` blocks of input, recurrent and bias weights, plus readout."""
    _check_counts(input_dim=input_dim, output_dim=output_dim, units=units)
    block = input_dim * units + units * units + units
    return blocks * block + output_dim * (units + 1)


def srn_parameters(input_dim: int, output_dim: int, units: int) -> int:
    """Trained parameters of a simple recurrent network."""
    return _rnn_parameters(1, input_dim, output_dim, units)


def lstm_parameters(input_dim: int, output_dim: int, units: int) -> int:
    """Trained parameters of an LSTM: four gated blocks plus readout."""
    return _rnn_parameters(4, input_dim, output_dim, units)


def gru_parameters(input_dim: int, output_dim: int, units: int) -> int:
    """Trained parameters of a GRU: three gated blocks plus readout."""
    return _rnn_parameters(3, input_dim, output_dim, units)


def units_for_budget(param_fn, budget: int) -> int:
    """Largest unit count whose parameter total stays within `budget`.

    `param_fn` maps a unit count to a parameter total and must be
    nondecreasing; the search doubles, then halves the interval. A
    `param_fn` still within the budget past 2**62 units is a ValueError.
    """
    if not param_fn(1) <= budget:
        raise ValueError(f"budget {budget} is below the one-unit size {param_fn(1)}")
    hi = 1
    while param_fn(hi) <= budget:
        if hi > 2**62:
            raise ValueError(f"param_fn stays within budget {budget} past 2**62 units")
        hi *= 2
    lo = hi // 2  # param_fn(lo) <= budget < param_fn(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if param_fn(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo
