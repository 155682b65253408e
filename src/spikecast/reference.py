"""The reference pass, and the graph walk both forward passes share.

The activation is the clip-floor staircase

    act(z) = theta * clip(floor(z * L / theta + 1/2) / L, 0, 1)

whose outputs live exactly on the level grid {0, 1, ..., L} * theta / L.
A boundary input landing exactly on a level edge, z = (k - 1/2) * theta/L,
maps to level k (the floor argument hits the integer k exactly). _levels
computes every level the program reads, for qcfs, qcfs_levels, ann_forward
and runtime.if_input_layer: z * L, / theta, + 1/2 and clip, in that order
in one float64 buffer, then a cast to the narrowest unsigned integer that
holds L. The activation output is levels * theta / L, which is qcfs(z).

One walk, forward, runs a graph for both passes: input_batch, then every
layer in graph order, then the logits. A value carries its timesteps folded
into the batch axis: a layer unrolled over T timesteps holds T*N rows,
timestep-major, and a single-shot (N, ...) value is just T = 1. Every conv,
fc, pool and residual layer runs through run_layer, whatever its T; an
unrolled matmul's affine arrives already divided by T (runtime.convert does
that split, through BnAffine.scaled). The two passes differ only in what an
activation does, what they record and which matmuls they defer.
ann_forward applies the staircase, defers nothing, and records every
layer output plus, per activation layer, the pre-activation tensor and a
histogram of the emitted levels; those histograms feed the
layer-sensitivity metric. runtime.snn_forward runs integrate-and-fire
layers instead, and defers to each one a conv or fc layer that feeds only
it (see forward): a generic layer takes the row blocks as run_layer makes
them, so the T*N-row output is never built, and an input-mode layer may
take its pre-activation from a reference trace and never run the matmul.

A trace holds only what it cannot rebuild. TraceValues._record makes the
entries of LayerTrace.outputs and of runtime.SnnTrace.sums by one rule.
An activation entry is its levels times theta / L, rebuilt on each read:
qcfs of the stored pre-activation, or a train's counts times theta_star.
A pool or residual add entry is that layer re-run on its inputs' entries.
Any other entry is stored, a read-only view of the value's timestep sum.
_timestep_sum is the one timestep-sum rule of both traces and of
forward's logits.

A SpikeTrain stores each neuron's spike count, which fixes its bits (its
first c timesteps fire), plus the shared theta_star scalar, so the "every
element is 0 or theta_star" guarantee is structural. run_layer reads a
train in one of three ways, and only fc and a residual add build a
float64 copy of it:

  conv          kernels.conv2d scales the bits into its patch buffer one
                block at a time.
  average pool  a 2 x 2 window's float sum depends only on its spike
                count, so kernels.avg_pool2d looks each window up by count.
  fc, residual  the dense train, T*N rows of theta_star or 0.

Each gives byte for byte the result of the dense train. docs/numerics.md
gives the memory bounds and measurements behind these rules.
"""

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import kernels
from .graph import conv_params, layer_affine


def _levels(z, cfg):
    """clip(floor(z * L / theta + 1/2), 0, L), built in one float64 buffer
    and returned in np.min_scalar_type(L), the narrowest type that holds L.
    The clip runs before the floor: on [0, L] the integer cast truncates,
    which is the floor, and clipping first gives the same level. z * L / theta
    passes the largest float once |z| is large against theta / L; the
    infinity then clips to L or 0, as the staircase saturates."""
    with np.errstate(over="ignore"):
        levels = np.multiply(z, cfg.L, out=np.empty(np.shape(z)), dtype=np.float64)
        np.divide(levels, cfg.theta, out=levels)
    np.add(levels, 0.5, out=levels)
    levels.clip(0.0, float(cfg.L), out=levels)  # the method skips np.clip's wrapper
    return levels.astype(np.min_scalar_type(cfg.L))


def _histogram(levels, L):
    """The (L + 1,) level counts."""
    return np.bincount(levels.reshape(-1), minlength=L + 1)


def _level_values(levels, step):
    """Integer levels times theta / L, as a new float64 array."""
    return np.multiply(levels, step, dtype=np.float64)


def qcfs(z, cfg):
    """Elementwise quantized clip-floor activation."""
    return _level_values(_levels(z, cfg), cfg.theta / cfg.L)


def qcfs_levels(z, cfg):
    """Integer level index per element (0..L); same rounding as qcfs."""
    return _levels(z, cfg).astype(np.int64)


def _frozen(array):
    """A read-only view of array; the array's own flags stay as they are."""
    view = array.view()
    view.setflags(write=False)
    return view


def _read(entry):
    """A trace entry's array: a stored array as it is, a recipe called."""
    return entry() if isinstance(entry, partial) else entry


def _timestep_sum(value, n):
    """A value of T*N rows summed over its T timesteps; a single-shot value
    of N rows as it is."""
    return value if len(value) == n else value.reshape((-1, n) + value.shape[1:]).sum(axis=0)


def _rerun(layer, sources):
    """A pool or residual add re-run on its inputs' trace entries."""
    return run_layer(None, layer, [_read(source) for source in sources])


class TraceValues(Mapping):
    """A trace's read-only map of layer id -> array, in graph order.

    An entry is stored or derived (_record). A stored entry is a read-only
    view of an array, returned as it is: writing into it raises, and the
    array's own flags are left alone. A derived entry is a recipe, a
    functools.partial that builds the array on each read from the
    arrays, counts or recipes it holds: every read allocates and
    returns a fresh array, so writing into one changes no later read. A
    recipe holds its sources themselves, never the map, so dropping a
    trace frees its bytes at once, without the cyclic garbage collector.
    """

    def __init__(self):
        self._entries = {}    # layer id -> read-only array, or a recipe

    def _put(self, key, value):
        """Add an entry: an array to store read-only, or a partial to call on each read."""
        self._entries[key] = value if isinstance(value, partial) else _frozen(value)

    def _record(self, layer, value, n):
        """Add layer's entry by the rule of both traces (module docstring).
        value is the walk's value for a batch of n; a reference activation
        passes the recipe of its output."""
        if layer.kind in ("avg_pool", "residual_add"):
            value = partial(_rerun, layer, [self._entries[p] for p in layer.preds])
        elif isinstance(value, SpikeTrain):
            value = partial(_level_values, value.counts, value.theta_star)
        elif not isinstance(value, partial):
            value = _timestep_sum(value, n)
        self._put(layer.id, value)

    def __getitem__(self, key):
        return _read(self._entries[key])

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


@dataclass
class LayerTrace:
    """Every layer output from one forward pass, plus activation detail."""

    outputs: Mapping              # layer id -> output array (TraceValues)
    pre_activations: dict         # activation layer id -> input array (read-only)
    histograms: dict              # activation layer id -> level counts (L+1,)
    logits: np.ndarray            # (N, classes)


def input_batch(graph, x):
    """The input as a C-contiguous float64 (N, C, H, W) batch; one (C, H, W)
    image gets N = 1. Only another dtype or layout is copied, so no output
    byte depends on how the caller's batch sits in memory.

    Both forward passes start here. Raises ValueError, naming the input
    layer, for a complex or non-numeric dtype, an empty batch, a sample
    shape other than the model's, or a NaN or infinite value.
    """
    layer = graph.input_layer
    x = np.asarray(x)
    if x.dtype.kind not in "biufO":     # complex, text, bytes, dates, void
        raise ValueError(f"input layer '{layer.id}': input dtype {x.dtype} is not real-valued")
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[None]
    if tuple(x.shape[1:]) != layer.shape:
        raise ValueError(f"input layer '{layer.id}': input shape {tuple(x.shape[1:])} "
                         f"does not match model input {layer.shape}")
    if x.shape[0] == 0:
        raise ValueError(f"input layer '{layer.id}': empty batch")
    if not np.isfinite(x).all():
        raise ValueError(f"input layer '{layer.id}': input contains non-finite values")
    return x


class SpikeTrain:
    """Binary spikes over T timesteps, scaled by a shared threshold.

    counts is each neuron's spike count, a read-only (N, ...) array in
    np.min_scalar_type(T). Every train the passes make fires a neuron's c
    spikes in its first c timesteps, so counts fix the bits.
    SpikeTrain(bits, theta_star) keeps the counts of any bool (T, N, ...)
    tensor, not the timesteps its spikes fell on.
    """

    def __init__(self, bits, theta_star):
        bits = np.asarray(bits, dtype=bool)
        self._hold(bits.sum(axis=0), len(bits), theta_star)

    def _hold(self, counts, timesteps, theta_star):
        # the clip runs before the cast, so the unsafe cast is exact
        self.counts = np.clip(counts, 0, timesteps, casting="unsafe",
                              out=np.empty(np.shape(counts), np.min_scalar_type(timesteps)))
        self.counts.flags.writeable = False
        self.theta_star, self.timesteps = theta_star, timesteps

    @classmethod
    def thermometer(cls, counts, timesteps, theta_star):
        """The T-step train in which a neuron of count c fires in its first
        clip(c, 0, T) timesteps."""
        train = cls.__new__(cls)
        train._hold(counts, timesteps, theta_star)
        return train

    @property
    def bits(self):
        """The bool (T, N, ...) spikes, built as a new array on each read:
        timestep t fires where t < count."""
        counts = self.counts
        steps = np.arange(self.timesteps, dtype=counts.dtype)
        return steps.reshape((-1,) + (1,) * counts.ndim) < counts

    def dense(self):
        """The float64 (T, N, ...) train: theta_star where a spike fires, else 0."""
        return np.multiply(self.bits, self.theta_star, dtype=np.float64)

    def spike_counts(self):
        """Spikes per neuron as int64, shape (N, ...): bits.sum(axis=0)."""
        return self.counts.astype(np.int64)


def _fold(stack):
    """A (T, N, ...) stack as its T*N rows."""
    return stack.reshape((-1,) + stack.shape[2:])


def _rows(value):
    """A value as an array of T*N rows; a train is made dense."""
    return _fold(value.dense()) if isinstance(value, SpikeTrain) else value


def run_layer(graph, layer, srcs, affine=None, consumer=None):
    """Run one conv, fc, pool or residual layer on values of T*N rows.

    srcs holds the layer's input values in pred order: arrays of T*N rows
    or SpikeTrains. affine is a matmul's BnAffine, already divided by T
    when the layer is unrolled. Returns an array of T*N rows; a T-step
    input gives T timestep outputs that sum to the single-shot layer of
    the summed input.

    A conv or fc layer given consumer builds no output and returns None:
    its finished blocks of rows go to consumer(lo, block) in row order,
    conv's as kernels.conv2d makes them and fc's small output as one block.
    The consumer may overwrite a block but must not keep it.
    """
    kind = layer.kind
    if kind == "residual_add":
        a, b = srcs
        return _rows(a) + _rows(b)
    if kind == "fc":
        x = _rows(srcs[0])
        out = kernels.fully_connected(x.reshape(len(x), -1), graph.weights[layer.id]["weight"],
                                      affine)
        del x           # a dense train is freed before the consumer runs
        if consumer is None:
            return out
        consumer(0, out)
        return None
    x, scale = srcs[0], None
    if isinstance(x, SpikeTrain):
        x, scale = _fold(x.bits), x.theta_star
    if kind == "conv":
        out = kernels.conv2d(x, conv_params(graph, layer), scale=scale, affine=affine,
                             consumer=consumer)
        return out if consumer is None else None
    return kernels.avg_pool2d(x, layer.window, scale=scale)


def _named(layer, fn, *args, **kwargs):
    """fn(*args, **kwargs), a KernelError re-raised with the layer's id."""
    try:
        return fn(*args, **kwargs)
    except kernels.KernelError as err:
        raise kernels.KernelError(f"layer '{layer.id}': {err}") from err


def forward(graph, x, activation, affines=None, record=None, streamed=()):
    """The graph walk of both passes. Returns logits, shape (N, classes).

    x goes through input_batch. An activation layer's value is
    activation(layer, value, n), n being the batch size; every other layer
    runs run_layer with its affine from affines (layer id -> BnAffine or
    None), or the graph's own when affines is None. record(layer, value, n),
    if given, sees each layer's value as soon as it is made, and keeps
    whatever it needs of it. The walk drops each value once its last
    consumer has run, so only a few are alive at once. The logits are the
    output value's _timestep_sum divided by its T timesteps.

    streamed holds the ids of activation layers that a matmul may be
    deferred to. A conv or fc layer whose only consumer is such an
    activation is deferred to it: the walk does not run the matmul, and
    the activation's value is instead a functools.partial of run_layer.
    Calling it with consumer=... runs the matmul and hands its finished
    row blocks to the consumer; calling it bare runs it and returns its
    output. The walk never sees the matmul's value, so record does not
    see it either. The reference pass defers nothing; the spiking pass
    defers to every activation.

    A KernelError raised by a layer, deferred or not, is re-raised with a
    message that starts with the layer's id; a graph without weights
    raises ValueError.
    """
    if not graph.weights:
        matmuls = graph.matmul_layers()
        where = f"layer '{matmuls[0].id}'" if matmuls else f"model '{graph.name}'"
        raise ValueError(f"{where}: graph has no weights loaded")
    x = input_batch(graph, x)
    n = len(x)
    last_use = {p: i for i, l in enumerate(graph.layers) for p in l.preds}
    uses = Counter(p for l in graph.layers for p in l.preds)
    deferred = {l.preds[0] for l in graph.layers if l.id in streamed
                and uses[l.preds[0]] == 1 and graph.layer(l.preds[0]).is_matmul}
    values = {}
    for i, layer in enumerate(graph.layers):
        srcs = [values[p] for p in layer.preds]
        for p in layer.preds:
            if last_use[p] == i:  # free each value once its last consumer runs
                del values[p]
        if layer.kind == "input":
            out = x
        elif layer.kind == "qcfs_act":
            out = activation(layer, srcs[0], n)
        else:
            affine = None
            if layer.is_matmul:
                affine = layer_affine(graph, layer) if affines is None else affines[layer.id]
            if layer.id in deferred:
                out = partial(_named, layer, run_layer, graph, layer, srcs, affine)
            else:
                out = _named(layer, run_layer, graph, layer, srcs, affine)
        del srcs
        if record is not None and layer.id not in deferred:
            record(layer, out, n)
        values[layer.id] = out
        del out
    final = _rows(values[graph.output_layer.id])
    return (_timestep_sum(final, n) / (len(final) // n)).reshape(n, -1)


def ann_forward(graph, x):
    """Run the real-valued reference pass, capturing a full trace."""
    outputs, pre, hists = TraceValues(), {}, {}

    def staircase(layer, z, n):
        cfg = layer.qcfs
        levels = _levels(z, cfg)
        pre[layer.id] = _frozen(z)
        hists[layer.id] = _histogram(levels, cfg.L)
        return _level_values(levels, cfg.theta / cfg.L)

    def record(layer, value, n):
        if layer.kind == "qcfs_act":
            value = partial(qcfs, pre[layer.id], layer.qcfs)
        outputs._record(layer, value, n)

    logits = forward(graph, x, staircase, record=record)
    return LayerTrace(outputs=outputs, pre_activations=pre, histograms=hists, logits=logits)
