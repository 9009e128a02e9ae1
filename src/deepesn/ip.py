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
from dataclasses import dataclass

import numpy as np

from .reservoir import DeepReservoir, run_layers

logger = logging.getLogger(__name__)

__all__ = ["IpConfig", "ip_update", "pretrain_ip", "activation_statistics"]

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
        if self.target_std <= 0.0:
            raise ValueError(f"target_std must be > 0, got {self.target_std}")
        if self.learning_rate <= 0.0:
            raise ValueError(
                f"learning_rate must be > 0, got {self.learning_rate}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


class _IpRule:
    """The update equation, applied in place to one layer's gain and bias.

    Holds the scalar terms and the work buffers, so a step allocates
    nothing. The ufuncs run in the order of the module docstring's
    equations as written, so the result is bit-equal to evaluating them
    as plain array expressions.
    """

    def __init__(self, config: IpConfig, shape):
        var = config.target_std**2
        self._mu = config.target_mean
        self._var = var
        self._eta = config.learning_rate
        self._offset = -self._mu / var
        self._width = 2.0 * var + 1.0
        self._db = np.empty(shape)
        self._dg = np.empty(shape)
        self._tmp = np.empty(shape)
        self._low = np.empty(shape, dtype=bool)

    def apply(self, gain, bias, net, y) -> None:
        db, dg, tmp, low = self._db, self._dg, self._tmp, self._low
        np.multiply(y, y, db)
        np.subtract(self._width, db, db)
        np.multiply(self._mu, y, tmp)
        np.add(db, tmp, db)
        np.divide(y, self._var, tmp)
        np.multiply(tmp, db, db)
        np.add(self._offset, db, db)
        np.multiply(-self._eta, db, db)
        np.divide(self._eta, gain, dg)
        np.multiply(db, net, tmp)
        np.add(dg, tmp, dg)
        np.add(gain, dg, gain)
        np.add(bias, db, bias)
        np.less(gain, _MIN_GAIN, low)
        clamped = np.count_nonzero(low)
        if clamped:
            logger.warning(
                "clamped %d gain(s) at %g during intrinsic-plasticity update",
                clamped,
                _MIN_GAIN,
            )
            np.maximum(gain, _MIN_GAIN, out=gain)


def ip_update(
    gain: np.ndarray,
    bias: np.ndarray,
    net: np.ndarray,
    y: np.ndarray,
    config: IpConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One online update of (gain, bias) given net input and tanh output.

    Returns new arrays; the inputs are not modified. Gains are clamped
    from below so a unit can shrink but never vanish or change sign.
    """
    gain = np.array(gain, dtype=float)
    bias = np.array(bias, dtype=float)
    _IpRule(config, gain.shape).apply(gain, bias, net, y)
    return gain, bias


def pretrain_ip(
    reservoir: DeepReservoir,
    sequences: list[np.ndarray],
    config: IpConfig = IpConfig(),
) -> DeepReservoir:
    """Adapt every layer's gain and bias on the given input sequences.

    Runs `config.epochs` passes over the sequences in the order given.
    Each sequence starts from the zero state and runs alone, layer by
    layer; after each step, a layer adapts with the output it just
    computed. A layer's step reads only its own parameters and the state
    of the layer below at the same step, so this equals stepping the
    whole stack and then adapting every layer. Each layer gets new gain
    and bias arrays, updated in place from then on, so arrays a caller
    held before the call keep their values. The reservoir is modified in
    place and returned.
    """
    rules = []
    for layer in reservoir.layers:
        layer.gain = np.array(layer.gain, dtype=float)
        layer.bias = np.array(layer.bias, dtype=float)
        rules.append(_IpRule(config, layer.gain.shape))

    def adapt(i, layer, net, y):
        rules[i].apply(layer.gain, layer.bias, net[0], y[0])

    for _ in range(config.epochs):
        for inputs in sequences:
            run_layers(reservoir, [inputs], on_step=adapt)
    return reservoir


def activation_statistics(
    reservoir: DeepReservoir, sequences: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit mean and standard deviation of the tanh outputs.

    Pools every time step of every sequence, without adapting anything.
    Useful to check how close each unit's output distribution is to the
    adaptation targets. Returns (means, stds), each of shape
    (n_layers, units_per_layer).
    """
    shape = (reservoir.config.n_layers, reservoir.config.units_per_layer)
    sums = np.zeros(shape)
    sq_sums = np.zeros(shape)

    def accumulate(i, layer, net, y):
        sums[i] += y[0]
        sq_sums[i] += y[0] * y[0]

    count = 0
    for inputs in sequences:
        count += run_layers(reservoir, [inputs], on_step=accumulate)[0].shape[0]
    if count == 0:
        raise ValueError("no time steps to compute activation statistics from")
    means = sums / count
    stds = np.sqrt(np.maximum(sq_sums / count - means**2, 0.0))
    return means, stds
