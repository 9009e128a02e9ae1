"""Training and evaluation of one model on a piano-roll dataset.

Ties the pieces together: build a reservoir from a configuration,
optionally pre-train gains and biases with intrinsic plasticity on the
training inputs, collect states for every split, fit the ridge readout,
and score frame-level accuracy. A sweep helper fits several ridge
strengths on one set of collected states, since the states do not
depend on the regularizer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import SPLIT_NAMES, PianoRollDataset, next_step_pairs
from .errors import ConfigError
from .ip import IpConfig, pretrain_ip
from .metrics import accuracy, pooled_accuracy
from .readout import RidgeAccumulator, RidgeReadout, _check_ridge
from .reservoir import ReservoirConfig, _check_count, init_deep_reservoir, run_layers

__all__ = [
    "THRESHOLD_GRID",
    "TrialResult",
    "collect_pairs",
    "collect_splits",
    "choose_threshold",
    "evaluate_readout",
    "run_model",
    "sweep_ridges",
]

# Candidate binarization thresholds when tuning on the validation split.
THRESHOLD_GRID = tuple(i / 10 for i in range(1, 10))


@dataclass(frozen=True)
class TrialResult:
    """Scores of one trained model.

    `seconds` covers reservoir construction, optional pre-training,
    state collection, the ridge solve, and evaluation; loading and
    converting data is excluded.
    """

    train_acc: float
    valid_acc: float
    test_acc: float
    threshold: float
    seconds: float


def collect_pairs(
    reservoir, dense_sequences, washout: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Run sequences and align states with next-step targets.

    For a (T, dim) sequence the drive is frames 0..T-2 and the targets
    frames 1..T-1; the first `washout` aligned steps are dropped.
    Sequences too short to contribute any step are skipped. The rest run
    as one batch; each pair's states are a view of the batch's states.
    """
    return collect_splits(reservoir, [dense_sequences], washout)[0]


def collect_splits(reservoir, splits, washout: int = 0) -> list[list]:
    """`collect_pairs` of every split in `splits`, run as one batch.

    Every row of a batch is bit-equal to running its sequence alone, so
    this equals collecting split by split; one batch shares each wave's
    pass over the weights among more sequences.
    """
    _check_count("washout", washout, 0)
    states, targets = _collect(reservoir, splits, washout)
    states = iter(states)
    return [[(next(states)[washout:], t[washout:]) for t in split] for split in targets]


def _collect(reservoir, splits, washout):
    """`run_layers`' states and each split's targets, washout steps kept."""
    drives, targets = [], []
    for dense_sequences in splits:
        targets.append([])
        for dense in dense_sequences:
            inputs, aligned = next_step_pairs(dense)
            if inputs.shape[0] > washout:
                drives.append(inputs)
                targets[-1].append(aligned)
    return run_layers(reservoir, drives), targets


def evaluate_readout(readout: RidgeReadout, pairs) -> float:
    """`metrics.pooled_accuracy` of a readout's predictions over (states,
    targets), predicted sequence by sequence, as `choose_threshold` does."""
    return pooled_accuracy((readout.predict(s), t) for s, t in pairs)


def choose_threshold(weights: np.ndarray, pairs) -> float:
    """The `THRESHOLD_GRID` entry with the best pooled accuracy on `pairs`.

    Continuous predictions are computed once, one product per sequence,
    and binarized per candidate; ties go to the smallest threshold.
    `sweep_ridges` multiplies all sequences at once, which gives the same
    bits only past about 100 rows per sequence; on shorter ones a score
    can differ where an output lies within rounding of a threshold.
    """
    readout = RidgeReadout(weights)
    continuous = [(readout.predict_continuous(s), t) for s, t in pairs]
    return max(
        THRESHOLD_GRID,
        key=lambda c: pooled_accuracy((out >= c, t) for out, t in continuous),
    )


def _prepare(dataset, config, ip, washout):
    """Build, pre-train if asked, and collect: the train accumulator, the
    packed states of all splits, their boolean targets with washout rows
    off, the washout rows, and each split's (start, stop) rows."""
    dense = {split: dataset.dense(split) for split in SPLIT_NAMES}
    for split, sequences in dense.items():
        if all(seq.shape[0] < 2 for seq in sequences):
            raise ConfigError(
                f"no {split} sequence has two frames, so there is no {split} "
                "step to fit or score on"
            )
        if all(seq.shape[0] - 1 <= washout for seq in sequences):
            raise ConfigError(
                f"washout {washout} leaves no {split} step to fit or score on"
            )
    reservoir = init_deep_reservoir(config)
    if ip is not None:
        drives = [seq[:-1] for seq in dense["train"] if seq.shape[0] > 1]
        pretrain_ip(reservoir, drives, ip)
    states, targets = _collect(reservoir, dense.values(), washout)
    accumulator = RidgeAccumulator(reservoir.state_dim, dataset.dim)
    for train_states, train_targets in zip(states, targets[0]):
        accumulator.add(train_states[washout:], train_targets[washout:])
    lengths = [len(s) for s in states]
    washed = (np.cumsum(lengths) - lengths)[:, None] + np.arange(washout)
    on = np.concatenate(sum(targets, [])).astype(bool)
    on[washed] = False
    stops = np.cumsum([sum(map(len, split)) for split in targets]).tolist()
    packed = states[0].base[: stops[-1]]  # the views' consecutive rows
    return accumulator, packed, on, washed, list(zip([0] + stops, stops))


def run_model(
    dataset: PianoRollDataset,
    config: ReservoirConfig,
    ridge: float,
    ip: IpConfig | None = None,
    washout: int = 0,
    threshold: float = 0.5,
    tune_threshold: bool = False,
) -> TrialResult:
    """Train one model end to end and score all three splits."""
    return sweep_ridges(
        dataset, config, (ridge,), ip, washout, threshold, tune_threshold
    )[0]


def sweep_ridges(
    dataset: PianoRollDataset,
    config: ReservoirConfig,
    ridges,
    ip: IpConfig | None = None,
    washout: int = 0,
    threshold: float = 0.5,
    tune_threshold: bool = False,
) -> list[TrialResult]:
    """Fit several ridge strengths on one set of collected states.

    States depend on the reservoir but not on the regularizer, so the
    expensive collection happens once. Every ridge is solved, and the
    accumulator dropped, before any is scored: its readout's
    `predict_continuous` of the packed states of all splits, with washout
    rows set to NaN, which no threshold counts, and `metrics.accuracy` of
    each split. Each result reports the standalone cost of its trial:
    shared time plus its own solve and scoring time. `config.input_dim`,
    `ridges`, `washout` and `threshold` are checked before any work.
    """
    if config.input_dim != dataset.dim:
        raise ValueError(
            f"input_dim must be the dataset's dim {dataset.dim}, got {config.input_dim}"
        )
    ridges = tuple(ridges)
    if not ridges:
        raise ValueError("ridges must not be empty")
    for ridge in ridges:
        _check_ridge(ridge)
    _check_count("washout", washout, 0)
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    start = time.perf_counter()
    accumulator, packed, on, washed, ranges = _prepare(dataset, config, ip, washout)
    shared = time.perf_counter() - start
    solved = []
    for ridge in ridges:
        start = time.perf_counter()
        solved.append((accumulator.solve(ridge), time.perf_counter() - start))
    del accumulator  # its (d + 1)^2 buffer is not needed to score
    results = []
    for readout, solve_seconds in solved:
        start = time.perf_counter()
        outputs = readout.predict_continuous(packed)
        outputs[washed] = np.nan
        splits = [(outputs[a:b], on[a:b]) for a, b in ranges]
        chosen = threshold
        if tune_threshold:
            out, target = splits[1]
            chosen = max(THRESHOLD_GRID, key=lambda c: accuracy(out >= c, target))
        train, valid, test = (accuracy(out >= chosen, t) for out, t in splits)
        seconds = shared + solve_seconds + time.perf_counter() - start
        results.append(TrialResult(train, valid, test, chosen, seconds))
    return results
