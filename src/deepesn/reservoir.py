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
    "run_online",
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


def _leaky_tanh(states, net, gain, bias, leaky_rate):
    """The elementwise part of the layer equation: (new states, y).

    y = tanh(gain * net + bias) is the output that the leak mixes into
    `states`. Every operand broadcasts row by row, so a (k, units) slab
    of layers gives each row the bits of that row alone.
    """
    y = np.tanh(gain * net + bias)
    return (1.0 - leaky_rate) * states + leaky_rate * y, y


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

    def feed_products(self, drives: np.ndarray) -> np.ndarray:
        """F d for every row d of (k, fan_in) `drives`, shape (k, units).

        One stacked matrix-vector product: each row is bit-equal to
        `feed @ d`. A GEMM (`drives @ feed.T`) is not, so it is not used.
        """
        return np.matmul(self.feed, drives[:, :, None])[:, :, 0]

    def advance(self, states: np.ndarray, fed: np.ndarray) -> np.ndarray:
        """One step of the layer equation for every row; the new states.

        `states` holds one (units,) state per row and `fed` the matching
        feed products F d. Each row of W state is bit-equal to
        `recurrent @ state`: a CSR matrix takes the whole block as
        columns, and a dense matrix takes one stacked matrix-vector
        product, since a GEMM would change the bits.
        """
        if sp.issparse(self.recurrent):
            recurrent = (self.recurrent @ states.T).T
        else:
            recurrent = np.matmul(self.recurrent, states[:, :, None])[:, :, 0]
        return _leaky_tanh(
            states, fed + recurrent, self.gain, self.bias, self.leaky_rate
        )[0]

    def step(self, state: np.ndarray, drive: np.ndarray) -> np.ndarray:
        """Advance one (units,) state by one time step."""
        state = np.asarray(state, dtype=float)[None]
        drive = np.asarray(drive, dtype=float)[None]
        return self.advance(state, self.feed_products(drive))[0]


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


def _checked_inputs(reservoir, inputs) -> np.ndarray:
    """`inputs` as a float (T, input_dim) array, or a ValueError."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != reservoir.config.input_dim:
        raise ValueError(
            f"inputs must have shape (T, {reservoir.config.input_dim}), "
            f"got {inputs.shape}"
        )
    return inputs


def run_layers(reservoir, sequences, states=None) -> list[np.ndarray]:
    """Run the stack over a batch of (T_j, input_dim) sequences.

    Returns one (T_j, state_dim) array of states per sequence, in the
    order given, layer states in stack order; the arrays are views of
    one packed array. Every sequence starts from rest, or from
    `states`, one (units,) state per layer.

    The batch goes layer by layer, since layer l is driven only by
    layer l - 1 at the same step. For each layer, one stacked product
    computes the feed of every row of the batch; then the recurrent
    product, tanh and leak step over time on the block of sequences
    still running. Sequences are ordered longest first, so that block
    shrinks from the bottom as sequences end. Every row is bit-equal to
    stepping its sequence alone.
    """
    sequences = [_checked_inputs(reservoir, inputs) for inputs in sequences]
    if states is None:
        states = reservoir.initial_states()
    shapes = [np.shape(state) for state in states]
    if shapes != [(layer.units,) for layer in reservoir.layers]:
        raise ValueError(
            f"states must be {reservoir.config.n_layers} arrays of shape "
            f"({reservoir.config.units_per_layer},), got shapes {shapes}"
        )
    if not sequences:
        return []
    lengths = np.array([inputs.shape[0] for inputs in sequences])
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    # Time-major packing: the rows of step t are the sequences still
    # running at t, longest first. `rows` maps each packed row to its row
    # of `out`, where every sequence's steps are contiguous.
    steps = np.arange(lengths.max())
    running = len(lengths) - np.searchsorted(np.sort(lengths), steps, side="right")
    firsts = np.cumsum(running) - running
    step = np.repeat(steps, running)
    rank = np.arange(step.size) - firsts[step]
    rows = starts[order[rank]] + step
    out = np.empty((lengths.sum(), reservoir.state_dim))
    drives = np.concatenate(sequences)[rows]
    bounds = list(zip(firsts.tolist(), running.tolist()))
    start = 0
    for layer, state in zip(reservoir.layers, states):
        # Each step's feed rows are read once, then hold that step's states.
        block = layer.feed_products(drives)
        prev = np.broadcast_to(
            np.asarray(state, dtype=float), (len(sequences), layer.units)
        )
        for first, k in bounds:
            prev = layer.advance(prev[:k], block[first : first + k])
            block[first : first + k] = prev
        out[rows, start : start + layer.units] = block
        drives, start = block, start + layer.units
    return [out[s : s + n] for s, n in zip(starts.tolist(), lengths.tolist())]


def _block_diagonal(matrices) -> sp.csr_matrix:
    """The CSR matrices as one block-diagonal CSR matrix.

    Built from each matrix's own arrays, so every row keeps its entries
    in their order and a product sums each row as the matrix alone would.
    """
    n = matrices[0].shape[0]
    offsets = np.cumsum([0] + [m.nnz for m in matrices])
    indptr = np.concatenate(
        [[0]] + [m.indptr[1:] + off for m, off in zip(matrices, offsets)]
    )
    indices = np.concatenate([m.indices + i * n for i, m in enumerate(matrices)])
    data = np.concatenate([m.data for m in matrices])
    size = n * len(matrices)
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


def run_online(reservoir, sequences, gain, bias, on_step) -> None:
    """Run sequences one after another, each from rest, calling back every step.

    `gain` and `bias` are (n_layers, units) stacks that stand in for the
    layers' own. Layer l at step t reads only layer l - 1 at step t and
    itself at step t - 1, so a sequence runs in T + n_layers - 1 waves:
    in wave w, every layer l with 0 <= w - l < T takes its step t = w - l,
    all of them together as one slab. After each wave,
    `on_step(rows, net, y)` gets `rows`, the slice of active layers, and
    their (k, units) net inputs (F d + W x, before gain and bias) and
    tanh outputs; it may adapt `gain[rows]` and `bias[rows]` in place,
    and the next wave reads them. Each row is bit-equal to stepping its
    layer alone: the deeper layers' feeds are one stacked matrix-vector
    product, and the recurrent products one block-diagonal CSR product
    (or one stacked product when dense). Every sequence is checked before
    any runs.
    """
    sequences = [_checked_inputs(reservoir, inputs) for inputs in sequences]
    layers = reservoir.layers
    depth, units = len(layers), layers[0].units
    leak = np.array([layer.leaky_rate for layer in layers])[:, None]
    if depth > 1:
        feeds = np.stack([layer.feed for layer in layers[1:]])
    sparse = sp.issparse(layers[0].recurrent)
    if sparse:
        block = _block_diagonal([layer.recurrent for layer in layers])
    else:
        dense = np.stack([layer.recurrent for layer in layers])
    fed = np.empty((depth, units))
    for inputs in sequences:
        steps = inputs.shape[0]
        first = layers[0].feed_products(inputs)
        states = np.zeros((depth, units))
        for wave in range(steps + depth - 1 if steps else 0):
            lo, hi = max(0, wave - steps + 1), min(depth, wave + 1)
            if lo == 0:
                fed[0] = first[wave]
            deep = max(lo, 1)
            if deep < hi:
                np.matmul(
                    feeds[deep - 1 : hi - 1],
                    states[deep - 1 : hi - 1, :, None],
                    out=fed[deep:hi, :, None],
                )
            if sparse:
                recurrent = (block @ states.ravel()).reshape(depth, units)[lo:hi]
            else:
                recurrent = np.matmul(dense[lo:hi], states[lo:hi, :, None])[:, :, 0]
            net = fed[lo:hi] + recurrent
            states[lo:hi], y = _leaky_tanh(
                states[lo:hi], net, gain[lo:hi], bias[lo:hi], leak[lo:hi]
            )
            on_step(slice(lo, hi), net, y)


def step_deep(
    reservoir: DeepReservoir, states: list[np.ndarray], inputs: np.ndarray
) -> list[np.ndarray]:
    """Advance every layer by one step: `run_layers` on one input row.

    Layer l sees the state that layer l - 1 reached in this same call.
    """
    row = run_layers(reservoir, [[inputs]], states)[0][0]
    return np.split(row, len(reservoir.layers))


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
    inputs = _checked_inputs(reservoir, inputs)
    if not 0 <= washout <= inputs.shape[0]:
        raise ValueError(
            f"washout {washout} out of range for a {inputs.shape[0]}-step sequence"
        )
    return run_layers(reservoir, [inputs], initial_states)[0][washout:]
