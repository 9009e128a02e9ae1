"""Stacked leaky-integrator reservoirs with fixed random weights.

A deep reservoir is a stack of recurrent layers. The first layer is
driven by the external input; every deeper layer is driven by the state
of the layer below, computed at the same time step. Each layer updates
as

    x(t) = (1 - a) x(t-1) + a tanh(g * (F u(t) + W x(t-1)) + b)

where F is the dense feed matrix (from the input or from the previous
layer), W is the sparse recurrent matrix, a is the leaky rate, and
(g, b) are per-unit gain and bias, identity unless adapted. The global
state is the concatenation of all layer states.

Initialization draws every weight from uniform[-1, 1] with a seeded
generator, rescales feed matrices to a prescribed operator 2-norm, and
rescales recurrent matrices so the effective matrix (1 - a) I + a W has
a prescribed spectral radius. Keeping that radius below one for every
layer keeps the network state a contraction with respect to past
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InitializationError
from .linalg import operator_norm, spectral_radius

__all__ = [
    "ReservoirConfig",
    "ReservoirLayer",
    "DeepReservoir",
    "init_deep_reservoir",
    "effective_matrix",
    "rescale_recurrent",
    "run_layers",
    "step_deep",
    "run_sequence",
]


@dataclass(frozen=True)
class ReservoirConfig:
    """Architecture and initialization parameters for a deep reservoir.

    Attributes:
        input_dim: Size of the external input vector.
        n_layers: Number of stacked layers, at least 1.
        units_per_layer: Units in each layer, at least 1.
        leaky_rate: Leaky-integration rate a in (0, 1]; 1 disables leaking.
        spectral_radius_target: Spectral radius of each layer's effective
            matrix (1 - a) I + a W after rescaling, in (0, 1).
        input_scaling: Operator 2-norm of each feed matrix after
            rescaling, strictly positive.
        connectivity: Fraction of nonzero entries in each recurrent
            matrix, in (0, 1]; 1 gives a dense matrix.
        seed: Seed for the weight-drawing generator.
    """

    input_dim: int
    n_layers: int
    units_per_layer: int
    leaky_rate: float = 1.0
    spectral_radius_target: float = 0.9
    input_scaling: float = 1.0
    connectivity: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.units_per_layer < 1:
            raise ValueError(
                f"units_per_layer must be >= 1, got {self.units_per_layer}"
            )
        if not 0.0 < self.leaky_rate <= 1.0:
            raise ValueError(f"leaky_rate must be in (0, 1], got {self.leaky_rate}")
        if not 0.0 < self.spectral_radius_target < 1.0:
            raise ValueError(
                "spectral_radius_target must be in (0, 1), got "
                f"{self.spectral_radius_target}"
            )
        if self.input_scaling <= 0.0:
            raise ValueError(
                f"input_scaling must be > 0, got {self.input_scaling}"
            )
        if not 0.0 < self.connectivity <= 1.0:
            raise ValueError(
                f"connectivity must be in (0, 1], got {self.connectivity}"
            )

    @property
    def state_dim(self) -> int:
        """Length of the concatenated global state vector."""
        return self.n_layers * self.units_per_layer


@dataclass
class ReservoirLayer:
    """One leaky-integrator layer with fixed weights.

    `feed` maps the drive (external input for the first layer, previous
    layer's state otherwise) into the layer; `recurrent` maps the
    layer's own previous state. `gain` and `bias` act inside the tanh
    and are the only parameters intrinsic-plasticity adaptation touches.
    """

    feed: np.ndarray
    recurrent: object  # csr_matrix, or ndarray when dense
    leaky_rate: float
    gain: np.ndarray = field(default=None)
    bias: np.ndarray = field(default=None)

    def __post_init__(self):
        n = self.feed.shape[0]
        if self.gain is None:
            self.gain = np.ones(n)
        if self.bias is None:
            self.bias = np.zeros(n)

    @property
    def units(self) -> int:
        return self.feed.shape[0]

    def update(
        self, state: np.ndarray, drive: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One step of the layer equation: (new state, net, y).

        `net` is the net input F drive + W state, before gain and bias;
        `y` the tanh output that the leak mixes into the state.
        """
        net = self.feed @ drive + self.recurrent @ state
        y = np.tanh(self.gain * net + self.bias)
        return (1.0 - self.leaky_rate) * state + self.leaky_rate * y, net, y

    def step(self, state: np.ndarray, drive: np.ndarray) -> np.ndarray:
        """Advance the layer state by one time step."""
        return self.update(state, drive)[0]


@dataclass
class DeepReservoir:
    """A stack of reservoir layers sharing one configuration."""

    config: ReservoirConfig
    layers: list[ReservoirLayer]

    @property
    def state_dim(self) -> int:
        return self.config.state_dim

    def initial_states(self) -> list[np.ndarray]:
        """Zero state for every layer; sequences start from rest."""
        return [np.zeros(layer.units) for layer in self.layers]


def effective_matrix(recurrent, leaky_rate: float):
    """(1 - a) I + a W, the linearized one-step state map of a layer.

    The spectral radius of this matrix, not of W alone, is what decides
    whether past states fade, so it is the quantity initialization
    controls.
    """
    n = recurrent.shape[0]
    if sp.issparse(recurrent):
        return (1.0 - leaky_rate) * sp.identity(n, format="csr") + (
            leaky_rate * recurrent
        )
    out = leaky_rate * np.asarray(recurrent, dtype=float)
    out[np.diag_indices_from(out)] += 1.0 - leaky_rate
    return out


def rescale_recurrent(recurrent, leaky_rate: float, target: float):
    """Rescale W so that (1 - a) I + a W has spectral radius `target`.

    Multiplying W alone cannot reach targets below 1 - a, because the
    (1 - a) I term puts a floor under the effective radius. Instead the
    whole effective matrix is scaled by s = target / rho, which in terms
    of W is s W + ((s - 1)(1 - a) / a) I. For a = 1 the shift vanishes
    and this reduces to plain scaling of W.
    """
    rho = spectral_radius(effective_matrix(recurrent, leaky_rate))
    if rho == 0.0:
        raise InitializationError(
            "effective matrix has zero spectral radius and cannot be rescaled; "
            "increase connectivity or units"
        )
    s = target / rho
    shift = (s - 1.0) * (1.0 - leaky_rate) / leaky_rate
    if sp.issparse(recurrent):
        scaled = s * recurrent
        if shift != 0.0:
            n = recurrent.shape[0]
            scaled = (scaled + shift * sp.identity(n, format="csr")).tocsr()
        return scaled
    scaled = s * np.asarray(recurrent, dtype=float)
    if shift != 0.0:
        scaled[np.diag_indices_from(scaled)] += shift
    return scaled


def _sample_sparse_uniform(rng: np.random.Generator, n: int, connectivity: float):
    """Draw an n x n matrix with round(connectivity * n^2) uniform entries.

    Positions are drawn as flat indices, rejection-sampled to
    uniqueness, and kept in sorted order; values are then drawn in that
    order. Connectivity 1 (or any count reaching n^2) gives a dense
    array instead.
    """
    total = n * n
    k = int(round(connectivity * total))
    if k < 1:
        raise InitializationError(
            f"connectivity {connectivity} leaves no nonzero entries in a "
            f"{n}x{n} matrix"
        )
    if k >= total:
        return rng.uniform(-1.0, 1.0, size=(n, n))
    positions = np.empty(0, dtype=np.int64)
    while positions.size < k:
        draw = rng.integers(0, total, size=k - positions.size, dtype=np.int64)
        positions = np.unique(np.concatenate([positions, draw]))
    values = rng.uniform(-1.0, 1.0, size=k)
    rows, cols = np.divmod(positions, n)
    return sp.csr_matrix((values, (rows, cols)), shape=(n, n))


def init_deep_reservoir(config: ReservoirConfig) -> DeepReservoir:
    """Build a deep reservoir from a configuration, deterministically.

    One generator seeded with config.seed draws everything. Per layer,
    in order: the dense feed matrix (uniform[-1, 1], rescaled to
    operator norm input_scaling), then the recurrent matrix (sparse
    uniform at the given connectivity, rescaled so the effective matrix
    hits the target spectral radius). The same seed therefore always
    yields bit-identical weights.
    """
    rng = np.random.default_rng(config.seed)
    layers = []
    fan_in = config.input_dim
    for _ in range(config.n_layers):
        feed = rng.uniform(-1.0, 1.0, size=(config.units_per_layer, fan_in))
        norm = operator_norm(feed)
        if norm == 0.0:
            raise InitializationError("feed matrix has zero operator norm")
        feed *= config.input_scaling / norm
        raw = _sample_sparse_uniform(rng, config.units_per_layer, config.connectivity)
        recurrent = rescale_recurrent(
            raw, config.leaky_rate, config.spectral_radius_target
        )
        layers.append(
            ReservoirLayer(
                feed=feed, recurrent=recurrent, leaky_rate=config.leaky_rate
            )
        )
        fan_in = config.units_per_layer
    return DeepReservoir(config=config, layers=layers)


def run_layers(reservoir, inputs, states=None, on_step=None) -> np.ndarray:
    """Run the stack over (T, input_dim) `inputs` one layer at a time.

    Layer 1 steps over every row, then layer 2 over layer 1's states,
    and so on; returns the (T, state_dim) states in stack order. Starts
    from rest unless `states` holds one (units,) state per layer.
    `on_step(i, layer, net, y)` runs after each step of layer i, before
    its next, and may adapt the gain and bias that next step reads.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != reservoir.config.input_dim:
        raise ValueError(
            f"inputs must have shape (T, {reservoir.config.input_dim}), "
            f"got {inputs.shape}"
        )
    if states is None:
        states = reservoir.initial_states()
    shapes = [np.shape(state) for state in states]
    if shapes != [(layer.units,) for layer in reservoir.layers]:
        raise ValueError(
            f"states must be {reservoir.config.n_layers} arrays of shape "
            f"({reservoir.config.units_per_layer},), got shapes {shapes}"
        )
    out = np.empty((inputs.shape[0], reservoir.state_dim))
    drives, start = inputs, 0
    for i, (layer, state) in enumerate(zip(reservoir.layers, states)):
        block = out[:, start : start + layer.units]
        for t, drive in enumerate(drives):
            state, net, y = layer.update(state, drive)
            block[t] = state
            if on_step is not None:
                on_step(i, layer, net, y)
        drives, start = block, start + layer.units
    return out


def step_deep(
    reservoir: DeepReservoir, states: list[np.ndarray], inputs: np.ndarray
) -> list[np.ndarray]:
    """Advance every layer by one step: `run_layers` on one input row.

    Layer l sees the state that layer l - 1 reached in this same call.
    """
    return np.split(run_layers(reservoir, [inputs], states)[0], len(reservoir.layers))


def run_sequence(
    reservoir: DeepReservoir,
    inputs: np.ndarray,
    washout: int = 0,
    initial_states: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Run a sequence from rest and return the concatenated states.

    `inputs` has shape (T, input_dim). The result has one row per
    retained step, shape (T - washout, n_layers * units_per_layer),
    with layer states concatenated in stack order. The first `washout`
    steps are computed but not returned. `initial_states`, one per
    layer, replaces the rest state.
    """
    states = run_layers(reservoir, inputs, initial_states)
    if not 0 <= washout <= states.shape[0]:
        raise ValueError(
            f"washout {washout} out of range for a {states.shape[0]}-step sequence"
        )
    return states[washout:]
