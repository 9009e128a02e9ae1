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
from .metrics import pooled_accuracy
from .readout import RidgeAccumulator, RidgeReadout, _check_ridge, binarize
from .reservoir import ReservoirConfig, init_deep_reservoir, run_layers

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
    drives, targets = [], []
    for dense_sequences in splits:
        targets.append([])
        for dense in dense_sequences:
            inputs, aligned = next_step_pairs(dense)
            if inputs.shape[0] > washout:
                drives.append(inputs)
                targets[-1].append(aligned[washout:])
    states = iter(run_layers(reservoir, drives))
    return [[(next(states)[washout:], t) for t in split] for split in targets]


def evaluate_readout(readout: RidgeReadout, pairs) -> float:
    """Pooled frame-level accuracy of a readout over (states, targets)."""
    return pooled_accuracy((readout.predict(s), t) for s, t in pairs)


def choose_threshold(
    weights: np.ndarray, pairs, grid=THRESHOLD_GRID
) -> float:
    """Pick the threshold with the best pooled accuracy on `pairs`.

    Continuous predictions are computed once and re-binarized per
    candidate. Ties go to the smallest threshold.
    """
    readout = RidgeReadout(weights)
    continuous = [(readout.predict_continuous(s), t) for s, t in pairs]
    best_threshold, best_acc = None, -1.0
    for threshold in grid:
        acc = pooled_accuracy((binarize(c, threshold), t) for c, t in continuous)
        if acc > best_acc:
            best_threshold, best_acc = threshold, acc
    return best_threshold


def _prepare(dataset, config, ip, washout):
    """Build, optionally pre-train, and collect states for all splits."""
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
    train_pairs, valid_pairs, test_pairs = collect_splits(
        reservoir, dense.values(), washout
    )
    accumulator = RidgeAccumulator(reservoir.state_dim, dataset.dim)
    for states, targets in train_pairs:
        accumulator.add(states, targets)
    return accumulator, train_pairs, valid_pairs, test_pairs


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
    expensive collection happens once. Each result still reports the
    standalone cost of its trial: shared collection time plus its own
    solve and evaluation time. `ridges` is checked before any work.
    """
    ridges = tuple(ridges)
    if not ridges:
        raise ValueError("ridges must not be empty")
    for ridge in ridges:
        _check_ridge(ridge)
    start = time.perf_counter()
    accumulator, train_pairs, valid_pairs, test_pairs = _prepare(
        dataset, config, ip, washout
    )
    shared = time.perf_counter() - start
    results = []
    for ridge in ridges:
        start = time.perf_counter()
        readout = accumulator.solve(ridge)
        if tune_threshold:
            readout.threshold = choose_threshold(readout.weights, valid_pairs)
        else:
            readout.threshold = threshold
        results.append(
            TrialResult(
                train_acc=evaluate_readout(readout, train_pairs),
                valid_acc=evaluate_readout(readout, valid_pairs),
                test_acc=evaluate_readout(readout, test_pairs),
                threshold=readout.threshold,
                seconds=shared + time.perf_counter() - start,
            )
        )
    return results
