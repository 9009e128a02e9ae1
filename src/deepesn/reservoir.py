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

import copy
import functools
import itertools
import math
import os
import queue
import threading
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

# Widest global state whose reservoir phases run on one thread, and whose
# sweep runs scipy's BLAS on one (`readout._blas_threads`). At that width
# a second thread costs more than it saves.
_ONE_THREAD_MAX_DIM = 1000


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _parts(state_dim: int, count: int) -> int:
    """Threads for a reservoir phase over `count` sequences: two for states
    wider than `_ONE_THREAD_MAX_DIM` when there are two sequences and two
    CPUs to run them on, else one."""
    return 2 if state_dim > _ONE_THREAD_MAX_DIM and count > 1 and _cpus() > 1 else 1


def _run_parts(tasks) -> None:
    """Run the first task on this thread and every other on one of its own.

    Returns once all have ended, so no thread outlives the call. The
    first task's error, else the first other one's, is raised here.
    """
    errors = []

    def run(task):
        try:
            task()
        except BaseException as error:  # re-raised on the calling thread
            errors.append(error)

    threads = [threading.Thread(target=run, args=(task,)) for task in tasks[1:]]
    for thread in threads:
        thread.start()
    try:
        tasks[0]()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _check_count(name: str, value, minimum: int) -> int:
    """`value`, an integer >= `minimum` and no bool; TypeError or ValueError if not."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_rows(name: str, array, width: int) -> np.ndarray:
    """`array` as a float (T, width) array, or a ValueError."""
    array = np.asarray(array, dtype=float)
    if array.ndim != 2 or array.shape[1] != width:
        raise ValueError(f"{name} must have shape (T, {width}), got {array.shape}")
    return array


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
            rescaling, finite and strictly positive.
        connectivity: Fraction of nonzero entries in each recurrent
            matrix, in (0, 1]; 1 gives a dense matrix.
        seed: Seed for the weight-drawing generator, an integer >= 0.
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
        for name in ("input_dim", "n_layers", "units_per_layer"):
            _check_count(name, getattr(self, name), 1)
        _check_count("seed", self.seed, 0)
        if not 0.0 < self.leaky_rate <= 1.0:
            raise ValueError(f"leaky_rate must be in (0, 1], got {self.leaky_rate}")
        if not 0.0 < self.spectral_radius_target < 1.0:
            raise ValueError(
                "spectral_radius_target must be in (0, 1), got "
                f"{self.spectral_radius_target}"
            )
        if not 0.0 < self.input_scaling < math.inf:
            raise ValueError(
                f"input_scaling must be finite and > 0, got {self.input_scaling}"
            )
        if not 0.0 < self.connectivity <= 1.0:
            raise ValueError(
                f"connectivity must be in (0, 1], got {self.connectivity}"
            )

    @property
    def state_dim(self) -> int:
        """Length of the concatenated global state vector."""
        return self.n_layers * self.units_per_layer


def _leaky_tanh(states, net, gain, bias, keep, leaky_rate, y):
    """The elementwise part of the layer equation, in place.

    `states` becomes keep * states + a y, with keep = 1 - a and
    y = tanh(gain * net + bias) written to `y`. The ufuncs run in the
    order of the equation as written, and every operand broadcasts row
    by row, so a slab of layers gives each row the bits of that row
    alone.
    """
    np.multiply(gain, net, y)
    np.add(y, bias, y)
    np.tanh(y, y)
    states *= keep
    states += leaky_rate * y


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

    def step(self, state: np.ndarray, drive: np.ndarray) -> np.ndarray:
        """Advance one (units,) state by one time step; a new array."""
        state = np.array(state, dtype=float)
        net = self.feed @ np.asarray(drive, dtype=float) + self.recurrent @ state
        a = self.leaky_rate
        _leaky_tanh(state, net, self.gain, self.bias, 1.0 - a, a, np.empty_like(state))
        return state


@dataclass
class DeepReservoir:
    """A stack of reservoir layers sharing one configuration.

    The layers' weights, gains, biases and leaky rates are stacked once,
    when the reservoir is made, for the wave kernel (`_WeightStacks`);
    each layer holds a view of its slot of a dense stack, so no dense
    array is held twice. A layer whose array or rate is later replaced
    gets the stacks rebuilt at the next run. Layers whose count or array
    shapes differ from `config` raise ValueError, when the reservoir is
    made or the stacks are rebuilt.
    """

    config: ReservoirConfig
    layers: list[ReservoirLayer]

    def __post_init__(self):
        self._stacks = _WeightStacks(self.config, self.layers)

    def _weight_stacks(self) -> "_WeightStacks":
        """The stacks, rebuilt if a layer no longer holds its own arrays."""
        if not self._stacks.held_by(self.layers):
            self._stacks = _WeightStacks(self.config, self.layers)
        return self._stacks

    @property
    def state_dim(self) -> int:
        return self.config.state_dim

    def initial_states(self) -> list[np.ndarray]:
        """Zero state for every layer; sequences start from rest."""
        return [np.zeros(layer.units) for layer in self.layers]


def _stack_into(layers, name) -> np.ndarray:
    """One (k, ...) array of the layers' `name` arrays; each layer gets a view.

    Filled layer by layer, and each layer's own array is dropped as soon
    as it is copied, so at most one layer's array is held twice at a
    time.
    """
    stack = np.empty((len(layers),) + np.shape(getattr(layers[0], name)))
    for layer, slot in zip(layers, stack):
        slot[...] = getattr(layer, name)
        setattr(layer, name, slot)
    return stack


def _check_layers(config, layers) -> None:
    """Raise ValueError unless `layers` has the count and shapes of `config`."""
    if len(layers) != config.n_layers:
        raise ValueError(f"config has {config.n_layers} layers, got {len(layers)}")
    n = config.units_per_layer
    for index, layer in enumerate(layers):
        fan_in = config.input_dim if index == 0 else n
        shapes = {"feed": (n, fan_in), "recurrent": (n, n), "gain": (n,), "bias": (n,)}
        for name, shape in shapes.items():
            got = np.shape(getattr(layer, name))
            if got != shape:
                raise ValueError(
                    f"layer {index}: {name} must have shape {shape}, got {got}"
                )


class _WeightStacks:
    """All the wave kernel reads of the layers, checked against the config.

    `feeds` stacks the deeper layers' (units, units) feed matrices,
    `dense` the dense recurrent matrices, and `gain` and `bias` the
    (n_layers, units) gains and biases; each layer holds a view of its
    slot, so the two share every write. Each sparse layer gets a canonical
    CSR copy of its matrix (sorted, duplicates summed, as scipy sorts the
    block's rows), joined in the block-diagonal CSR `block`, so `W @ x`
    and the block sum a row alike. `first_feed` is the first layer's feed;
    `leak` and `keep` hold each layer's a and 1 - a, shaped (n_layers, 1, 1).
    """

    def __init__(self, config, layers):
        _check_layers(config, layers)
        kinds = {sp.issparse(layer.recurrent) for layer in layers}
        if len(kinds) > 1:
            raise ValueError("recurrent matrices must be all sparse or all dense")
        n = config.units_per_layer
        self.first_feed = layers[0].feed
        self.feeds = _stack_into(layers[1:], "feed") if layers[1:] else np.empty((0, n, n))
        self.dense = self.block = None
        if kinds == {True}:
            for layer in layers:
                layer.recurrent = sp.csr_matrix(layer.recurrent, copy=True)
                layer.recurrent.sum_duplicates()
            self.block = sp.block_diag([layer.recurrent for layer in layers], "csr")
        else:
            self.dense = _stack_into(layers, "recurrent")
        self.gain = _stack_into(layers, "gain")
        self.bias = _stack_into(layers, "bias")
        self.leak = np.array([layer.leaky_rate for layer in layers])[:, None, None]
        self.keep = 1.0 - self.leak
        self._held = self._arrays_of(layers)

    def restack_parameters(self, layers) -> None:
        """Copy the gain and bias stacks, and no other, for the layers to view."""
        self.gain, self.bias = self.gain.copy(), self.bias.copy()
        for layer, gain, bias in zip(layers, self.gain, self.bias):
            layer.gain, layer.bias = gain, bias
        self._held = self._arrays_of(layers)

    def part(self, first: int, stop: int) -> "_WeightStacks":
        """The stacks of layers [first, stop) alone, the whole when that is all.

        Gains and biases are views, so a part shares every write; the
        sparse block is its diagonal sub-block, which sums each row in the
        order of the whole. Layer `first` is fed by `first_feed`.
        """
        if (first, stop) == (0, len(self.gain)):
            return self
        part, units = copy.copy(self), self.gain.shape[1]
        if first:
            part.first_feed = self.feeds[first - 1]
        part.feeds = self.feeds[first : stop - 1]
        if self.block is not None:
            rows = slice(first * units, stop * units)
            part.block = self.block[rows, rows]
        else:
            part.dense = self.dense[first:stop]
        for name in ("gain", "bias", "leak", "keep"):
            setattr(part, name, getattr(self, name)[first:stop])
        return part

    @staticmethod
    def _arrays_of(layers) -> list:
        names = ("recurrent", "feed", "gain", "bias", "leaky_rate")
        return [getattr(layer, name) for name in names for layer in layers]

    def held_by(self, layers) -> bool:
        """Whether `layers` still hold exactly the arrays and rates stacked here."""
        held = self._arrays_of(layers)
        return len(held) == len(self._held) and all(
            mine is theirs for mine, theirs in zip(self._held, held)
        )


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


def _checked(reservoir, sequences, states):
    """The checked sequences and one start state per layer, rest if None."""
    sequences = [_check_rows("inputs", x, reservoir.config.input_dim) for x in sequences]
    if states is None:
        states = reservoir.initial_states()
    shapes = [np.shape(state) for state in states]
    if shapes != [(layer.units,) for layer in reservoir.layers]:
        raise ValueError(
            f"states must be {reservoir.config.n_layers} arrays of shape "
            f"({reservoir.config.units_per_layer},), got shapes {shapes}"
        )
    return sequences, states


def _schedule(lengths: np.ndarray, starts: np.ndarray, spare: int):
    """Where every step of a group of sequences goes: (running, dest).

    The group is given longest first, by `lengths` and by `starts`, the
    rows of their first steps in the sequence-major layout, where every
    sequence's steps are contiguous. `running[t]` counts the sequences
    still running at step t, a prefix of the group. `dest[t, r]` is the
    row of step t of the r-th sequence, or the spare row `spare` once
    that sequence has ended.
    """
    steps = np.arange(lengths[0])[:, None]
    ended = steps >= lengths
    dest = np.where(ended, spare, starts + steps)
    return (len(lengths) - ended.sum(axis=1)).tolist(), dest


def _waves(stacks, inputs, running, states):
    """The diagonal wave loop over a batch; yields once per wave.

    Layer l at step t reads only layer l - 1 at step t and itself at step
    t - 1, so the batch runs in T + n_layers - 1 waves: in wave w, every
    layer l with 0 <= w - l < T takes its step t = w - l for the
    `running[t]` sequences still running, a prefix of the batch. The
    active layers `lo:hi` step as one (hi - lo, k, units) slab of
    `states`, the (n_layers, batch, units) state array, updated in place;
    k is the running count of the deepest active layer, the largest.
    Slab rows past a layer's own count belong to sequences that have
    ended; they are computed and never read. `inputs` is the (T, batch,
    input_dim) table of the first layer's drives. Each wave reads gains
    and biases from `stacks` afresh, so in-place changes take effect.

    Each wave yields (lo, hi, net, y): the slab's net inputs (F d + W x,
    before gain and bias) and tanh outputs, valid until the next wave.
    Every row is bit-equal to stepping its layer and sequence alone:
    - the feeds are stacked matrix-vector products, each `np.matmul` row
      a GEMV `F @ d`: one call for the first layer's k rows, one for the
      deeper layers' slab;
    - the recurrent products are one product of the stack's
      block-diagonal CSR matrix with the (n_layers * units, k) block of
      states, each column summed as `W @ x` sums it and the rows of
      inactive layers not used, or one stacked product when dense;
    - the elementwise update runs in the order of the layer equation.
    """
    depth, _, units = states.shape
    steps = len(running)
    fed = np.zeros(states.shape)
    y = np.empty(states.shape)
    shape = None
    for wave in range(steps + depth - 1):
        lo, hi = max(0, wave - steps + 1), min(depth, wave + 1)
        k = running[wave - hi + 1]
        if (lo, hi, k) != shape:
            # The views of a slab, made again only when its shape changes.
            shape = lo, hi, k
            deeper = max(lo, 1)
            feeds = stacks.feeds[deeper - 1 : hi - 1, None]
            below = states[deeper - 1 : hi - 1, :k, :, None]
            fed_deeper = fed[deeper:hi, :k, :, None]
            if stacks.dense is None:
                columns = states[:, :k].transpose(0, 2, 1)
            else:
                dense = stacks.dense[lo:hi, None], states[lo:hi, :k, :, None]
            net, out = fed[lo:hi, :k], y[lo:hi, :k]
            slab = (
                states[lo:hi, :k], net, stacks.gain[lo:hi, None],
                stacks.bias[lo:hi, None], stacks.keep[lo:hi], stacks.leak[lo:hi], out,
            )
        if lo == 0:
            np.matmul(stacks.first_feed, inputs[wave, :k, :, None], out=fed[0, :k, :, None])
        np.matmul(feeds, below, out=fed_deeper)
        if stacks.dense is None:
            product = stacks.block @ columns.reshape(-1, k)
            product = product.reshape(depth, units, k)[lo:hi]
            np.add(net, product.transpose(0, 2, 1), net)
        else:
            np.add(net, np.matmul(*dense)[..., 0], net)
        _leaky_tanh(*slab)
        yield lo, hi, net, out


def run_layers(reservoir, sequences, states=None) -> list[np.ndarray]:
    """Run the stack over a batch of (T_j, input_dim) sequences.

    Returns one (T_j, state_dim) array of states per sequence, in the
    order given, layer states in stack order; the arrays are views of
    one packed array. Every sequence starts from rest, or from
    `states`, one (units,) state per layer.

    The batch is taken longest first and dealt in turn to `_parts`
    groups: two above `_ONE_THREAD_MAX_DIM` features with two CPUs, else
    one. Each group runs on the diagonal waves of `_waves`, on a thread
    of its own, and each wave's new states go straight to their rows of
    the result with one indexed assignment. Every row is bit-equal to
    stepping its sequence alone, whatever group it ran in.
    """
    sequences, states = _checked(reservoir, sequences, states)
    if not sequences:
        return []
    depth, units = reservoir.config.n_layers, reservoir.config.units_per_layer
    lengths = np.array([inputs.shape[0] for inputs in sequences])
    total = int(lengths.sum())
    starts = np.cumsum(lengths) - lengths
    parts = _parts(reservoir.state_dim, np.count_nonzero(lengths))
    # One spare row per group takes the slab rows of sequences that have ended.
    out = np.empty((total + parts, reservoir.state_dim))
    views = [out[s : s + n] for s, n in zip(starts.tolist(), lengths.tolist())]
    if total == 0:
        return views
    # The spare rows of the drives are zero: an ended sequence's input.
    drives = np.concatenate(sequences + [np.zeros((parts, reservoir.config.input_dim))])
    stacks, start = reservoir._weight_stacks(), np.asarray(states, dtype=float)
    layered = out.reshape(total + parts, depth, units)
    level = np.arange(depth)[:, None]

    def collect(group, spare):
        running, dest = _schedule(lengths[group], starts[group], spare)
        batch = np.empty((depth, len(group), units))
        batch[...] = start[:, None]
        waves = _waves(stacks, drives[dest], running, batch)
        # Slab row (l, r) of wave w is step w - l of the group's r-th
        # sequence: layer l of row dest[w - l, r] of `out`. Read backwards
        # in time, the table has the rows of layers lo..hi - 1 as one slice.
        back, last = dest[::-1], len(running) - 1
        for wave, (lo, hi, net, _) in enumerate(waves):
            k, at = net.shape[1], last - wave
            layered[back[at + lo : at + hi, :k], level[lo:hi]] = batch[lo:hi, :k]

    order = np.argsort(-lengths, kind="stable")
    groups = [order[p::parts] for p in range(parts)]
    _run_parts([functools.partial(collect, g, total + p) for p, g in enumerate(groups)])
    return views


def run_online(reservoir, sequences, on_step) -> None:
    """Run sequences one after another, each from rest, calling back every wave.

    Each sequence is a batch of one on the diagonal waves of `_waves`.
    After each wave, `on_step(rows, gain, bias, net, y)` gets `rows`, the
    slice of active layers, the stacks' gain and bias rows of those
    layers, and their (k, units) net inputs (F d + W x, before gain and
    bias) and tanh outputs. It may adapt `gain` and `bias` in place: they
    are the layers' own, and the next wave reads them. Every sequence is
    checked before any runs.

    Above `_ONE_THREAD_MAX_DIM` features, with two CPUs and two nonempty
    sequences, the stack splits at its middle layer m into two stages on
    two threads: the first runs layers [0, m) sequence after sequence
    and hands each sequence's layer m - 1 states to the second, which
    runs layers [m, n_layers) on them. A layer reads only the layer below
    at the same step and its own parameters, so every layer sees the
    same steps in the same order with the same bits. `on_step` may then
    be called from both threads at once, always for disjoint `rows`. If
    either stage or `on_step` raises, both stages stop and the error is
    raised here, after both threads have ended.
    """
    sequences = [_check_rows("inputs", x, reservoir.config.input_dim) for x in sequences]
    sequences = [inputs for inputs in sequences if inputs.shape[0]]
    stacks, depth = reservoir._weight_stacks(), reservoir.config.n_layers
    if depth == 1 or _parts(reservoir.state_dim, len(sequences)) == 1:
        _run_stage(stacks, 0, depth, sequences, on_step)
        return
    middle = depth // 2
    handoff, failed = queue.Queue(maxsize=4), threading.Event()

    def handed():
        while (drives := handoff.get()) is not None:
            yield drives

    def lower():
        try:
            drives = itertools.takewhile(lambda _: not failed.is_set(), sequences)
            _run_stage(stacks, 0, middle, drives, on_step, handoff.put)
        finally:
            handoff.put(None)

    def upper():
        try:
            _run_stage(stacks, middle, depth, handed(), on_step)
        except BaseException:
            failed.set()
            for _ in handed():  # until `lower` stops, so it never waits on a full queue
                pass
            raise

    _run_parts([lower, upper])


def _run_stage(stacks, first, stop, sequences, on_step, hand=None) -> None:
    """`run_online`'s loop over layers [first, stop), driven by `sequences`.

    Each (T, width) drive runs from rest; `on_step` gets the global rows
    of the layers. `hand`, if given, gets a new (T, units) array of each
    drive's states of layer stop - 1.
    """
    part = stacks.part(first, stop)
    states = np.empty_like(part.gain[:, None])
    depth = len(states)
    for inputs in sequences:
        states[...] = 0.0
        last = None if hand is None else np.empty((inputs.shape[0], states.shape[2]))
        waves = _waves(part, inputs[:, None], [1] * inputs.shape[0], states)
        for wave, (lo, hi, net, y) in enumerate(waves):
            rows = slice(first + lo, first + hi)
            on_step(rows, stacks.gain[rows], stacks.bias[rows], net[:, 0], y[:, 0])
            if last is not None and hi == depth:
                last[wave - depth + 1] = states[-1, 0]
        if last is not None:
            hand(last)


def step_deep(
    reservoir: DeepReservoir, states: list[np.ndarray], inputs: np.ndarray
) -> list[np.ndarray]:
    """Advance every layer by one step, bottom up, each by its own `step`.

    Layer l sees the state that layer l - 1 reached in this same call.
    The checks and states are those of `run_layers` on one input row.
    """
    (drives,), states = _checked(reservoir, [[inputs]], states)
    reservoir._weight_stacks()  # refuses layers that contradict the config
    out = [drives[0]]
    for layer, state in zip(reservoir.layers, states):
        out.append(layer.step(state, out[-1]))
    return out[1:]


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
    inputs = _check_rows("inputs", inputs, reservoir.config.input_dim)
    if _check_count("washout", washout, 0) > inputs.shape[0]:
        raise ValueError(
            f"washout {washout} out of range for a {inputs.shape[0]}-step sequence"
        )
    return run_layers(reservoir, [inputs], initial_states)[0][washout:]
