"""Intrinsic-plasticity pre-training of reservoir gains and biases.

Adapts the per-unit gain g and bias b inside tanh(g * net + b) so that
each unit's output distribution approaches a Gaussian with a chosen
mean and standard deviation, by gradient descent on the KL divergence
between the two. Reservoir weights are never touched. For a tanh unit
the updates at one step are

    db = -eta * (-mu / s^2 + (y / s^2) * (2 s^2 + 1 - y^2 + mu * y))
    dg = eta / g + db * net

with target mean mu, target standard deviation s, and learning rate
eta. Updates are applied online: at every time step each layer first
computes its output with its current parameters, then adjusts them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .reservoir import DeepReservoir, _check_count, run_online

logger = logging.getLogger(__name__)

__all__ = ["IpConfig", "pretrain_ip", "activation_statistics"]

# Gains this small would effectively disconnect a unit, and eta / g in
# the gain update would blow up; clamp and report instead.
_MIN_GAIN = 1e-6


@dataclass(frozen=True)
class IpConfig:
    """Targets and schedule for intrinsic-plasticity adaptation."""

    target_mean: float = 0.0
    target_std: float = 0.1
    learning_rate: float = 1e-3
    epochs: int = 5

    def __post_init__(self):
        if not math.isfinite(self.target_mean):
            raise ValueError(f"target_mean must be finite, got {self.target_mean}")
        for name in ("target_std", "learning_rate"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        _check_count("epochs", self.epochs, 1)


def _update(gain, bias, net, y, config: IpConfig):
    """Update `gain` and `bias` in place; the mask of clamped gains, or None.

    Applies the module docstring's equations one term per statement, in
    their order, so the result is bit-equal to evaluating them as plain
    array expressions.
    """
    mu, var, eta = config.target_mean, config.target_std**2, config.learning_rate
    db = 2.0 * var + 1.0 - y * y
    db += mu * y
    db *= y / var
    db += -mu / var
    db *= -eta
    gain += eta / gain + db * net
    bias += db
    low = gain < _MIN_GAIN
    if not np.count_nonzero(low):
        return None
    np.maximum(gain, _MIN_GAIN, out=gain)
    return low


def pretrain_ip(
    reservoir: DeepReservoir,
    sequences: list[np.ndarray],
    config: IpConfig = IpConfig(),
) -> DeepReservoir:
    """Adapt every layer's gain and bias on the given input sequences.

    Runs `config.epochs` passes over the sequences in the order given.
    Each sequence starts from the zero state; after each step, a layer
    adapts with the output it just computed, before its next step. A
    layer's step reads only its own parameters and the state of the
    layer below at the same step, so this equals stepping the whole
    stack and then adapting every layer. Every sequence is checked
    before anything adapts. Fresh copies of the gain and bias stacks
    adapt in place, so arrays a caller held keep their values. Each
    layer whose gains were clamped logs one warning with its count. The
    reservoir is modified in place and returned. Above
    `reservoir._ONE_THREAD_MAX_DIM` features the two halves of the stack
    adapt on two threads (`run_online`), with the same bits.
    """
    reservoir._weight_stacks().restack_parameters(reservoir.layers)
    clamps = np.zeros(reservoir.config.n_layers, dtype=np.int64)

    def adapt(rows, gain, bias, net, y):
        low = _update(gain, bias, net, y, config)
        if low is not None:
            clamps[rows] += np.count_nonzero(low, axis=1)

    # Convert once, so the repeated epochs share one array per sequence.
    sequences = [np.asarray(inputs, dtype=float) for inputs in sequences]
    run_online(reservoir, sequences * config.epochs, adapt)
    for count in clamps.tolist():
        if count:
            logger.warning("clamped %d gain(s) at %g during intrinsic-plasticity "
                           "update", count, _MIN_GAIN)
    return reservoir


def activation_statistics(
    reservoir: DeepReservoir, sequences: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit mean and standard deviation of the tanh outputs.

    Pools every time step of every sequence, without adapting anything.
    Useful to check how close each unit's output distribution is to the
    adaptation targets. Returns (means, stds), each of shape
    (n_layers, units_per_layer). Each layer sums its steps in order, on
    one thread or, above `reservoir._ONE_THREAD_MAX_DIM` features, on
    the thread of its half of the stack (`run_online`), so both give the
    same bits.
    """
    sequences = list(sequences)
    sums = np.zeros((reservoir.config.n_layers, reservoir.config.units_per_layer))
    sq_sums = np.zeros(sums.shape)

    def accumulate(rows, gain, bias, net, y):
        sums[rows] += y
        sq_sums[rows] += y * y

    run_online(reservoir, sequences, accumulate)
    count = sum(len(inputs) for inputs in sequences)
    if count == 0:
        raise ValueError("no time steps to compute activation statistics from")
    means = sums / count
    stds = np.sqrt(np.maximum(sq_sums / count - means**2, 0.0))
    return means, stds
