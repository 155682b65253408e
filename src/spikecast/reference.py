"""The reference pass, and the graph walk both forward passes share.

The activation is the clip-floor staircase

    act(z) = theta * clip(floor(z * L / theta + 1/2) / L, 0, 1)

whose outputs live exactly on the level grid {0, 1, ..., L} * theta / L.
A boundary input landing exactly on a level edge, z = (k - 1/2) * theta/L,
maps to level k (the floor argument hits the integer k exactly).

The staircase is built in one float64 buffer: z * L, / theta, + 1/2,
floor and clip run in place, in that order. ann_forward casts that buffer
to the narrowest unsigned integer that holds L (np.min_scalar_type(L)),
takes the level histogram from those levels, and then scales the buffer
by theta / L to get the activation output the next layers read.

One walk, forward, runs a graph for both passes: input_batch, then every
layer in graph order, then the logits. A value carries its timesteps folded
into the batch axis: a layer unrolled over T timesteps holds T*N rows,
timestep-major, and a single-shot (N, ...) value is just T = 1. Every conv,
fc, pool and residual layer runs through run_layer, whatever its T; an
unrolled matmul's affine arrives already divided by T (runtime.convert does
that split, through BnAffine.scaled). The two passes differ only in what an
activation does and what they record. ann_forward applies the staircase and
records every layer output plus, per activation layer, the pre-activation
tensor and a histogram of the emitted levels; those histograms feed the
layer-sensitivity metric. runtime.snn_forward runs integrate-and-fire
layers instead.

A trace holds as little as the values it reports need. LayerTrace.outputs
is a TraceValues map: a non-activation output is stored as the array the
walk made, and an activation output is kept as its integer levels plus
theta / L. Reading an activation entry builds levels * theta / L as a new
float64 array, the staircase's own final multiply, so its bytes are those
of the activation value; every such read allocates the whole array.

A SpikeTrain stores its spikes as a bit tensor plus the shared theta_star
scalar, so the "every element is 0 or theta_star" guarantee is structural.
run_layer reads a train in one of three ways, and only fc builds a float64
copy of a whole train:

  conv          kernels.conv2d scales the bits into its patch buffer one
                block at a time.
  average pool  a 2 x 2 window's float sum depends only on its spike
                count, so kernels.avg_pool2d looks each window up by count.
  fc            the dense train, T*N rows of theta_star or 0.
  residual add  two trains sum to 0, theta_a, theta_b or theta_a + theta_b,
                looked up by a + 2 b.

Each lookup table holds the very float sums the dense path adds, so the
results are byte for byte those of the dense train.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import kernels
from .graph import conv_params, fc_weights, layer_affine


def _level_buffer(z, cfg):
    """clip(floor(z * L / theta + 1/2), 0, L) as float64, built in one buffer."""
    levels = np.multiply(z, cfg.L, out=np.empty(np.shape(z)), dtype=np.float64)
    np.divide(levels, cfg.theta, out=levels)
    np.add(levels, 0.5, out=levels)
    np.floor(levels, out=levels)
    np.clip(levels, 0.0, float(cfg.L), out=levels)
    return levels


def qcfs(z, cfg):
    """Elementwise quantized clip-floor activation."""
    out = _level_buffer(z, cfg)
    np.multiply(out, cfg.theta / cfg.L, out=out)
    return out


def qcfs_levels(z, cfg):
    """Integer level index per element (0..L); same rounding as qcfs."""
    return _level_buffer(z, cfg).astype(np.int64)


class TraceValues(Mapping):
    """A trace's read-only map of layer id -> array, in graph order.

    An entry is stored or derived. A stored entry is the array itself and
    is returned as it is. A derived entry keeps only what its array is
    built from and builds the array on each read: every read allocates and
    returns a fresh array, so writing into one changes no later read.
    """

    def __init__(self):
        self._entries = {}    # layer id -> array, or a partial that builds it

    def _put(self, key, value):
        """Add an entry: an array to store, or a partial to call on each read."""
        self._entries[key] = value

    def __getitem__(self, key):
        entry = self._entries[key]
        return entry() if isinstance(entry, partial) else entry

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


@dataclass
class LayerTrace:
    """Every layer output from one forward pass, plus activation detail."""

    outputs: Mapping              # layer id -> output array (TraceValues)
    pre_activations: dict         # activation layer id -> input array
    histograms: dict              # activation layer id -> level counts (L+1,)
    logits: np.ndarray            # (N, classes)


def input_batch(graph, x):
    """The input as a float64 (N, C, H, W) batch; one (C, H, W) image gets N = 1.

    Both forward passes start here. Raises ValueError, naming the input
    layer, for an empty batch, a sample shape other than the model's, or a
    NaN or infinite value.
    """
    layer = graph.input_layer
    x = np.asarray(x, dtype=np.float64)
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


@dataclass(frozen=True)
class SpikeTrain:
    """T-stacked binary spikes scaled by a shared threshold."""

    bits: np.ndarray          # bool, shape (T, N, ...)
    theta_star: float

    @property
    def timesteps(self):
        return self.bits.shape[0]

    def dense(self):
        return self.bits.astype(np.float64) * self.theta_star

    def spike_counts(self):
        return self.bits.sum(axis=0)


def _fold(stack):
    """A (T, N, ...) stack as its T*N rows."""
    return stack.reshape((-1,) + stack.shape[2:])


def _rows(value):
    """A value as an array of T*N rows; a train is made dense."""
    return _fold(value.dense()) if isinstance(value, SpikeTrain) else value


def run_layer(graph, layer, srcs, affine=None):
    """Run one conv, fc, pool or residual layer on values of T*N rows.

    srcs holds the layer's input values in pred order: arrays of T*N rows
    or SpikeTrains. affine is a matmul's BnAffine, already divided by T
    when the layer is unrolled. Returns an array of T*N rows; a T-step
    input gives T timestep outputs that sum to the single-shot layer of
    the summed input.
    """
    kind = layer.kind
    if kind == "residual_add":
        a, b = srcs
        if isinstance(a, SpikeTrain) and isinstance(b, SpikeTrain):
            table = np.array([0.0, a.theta_star, b.theta_star, a.theta_star + b.theta_star])
            index = np.multiply(b.bits, 2, dtype=np.uint8)
            np.add(index, a.bits, out=index)
            return table[_fold(index)]
        return _rows(a) + _rows(b)
    if kind == "fc":
        x = _rows(srcs[0])
        out = kernels.fully_connected(x.reshape(len(x), -1), fc_weights(graph, layer))
        return out if affine is None else kernels.fused_bn_affine(out, affine, out=out)
    x, scale = srcs[0], None
    if isinstance(x, SpikeTrain):
        x, scale = _fold(x.bits), x.theta_star
    if kind == "conv":
        return kernels.conv2d(x, conv_params(graph, layer), scale=scale, affine=affine)
    return kernels.avg_pool2d(x, layer.window, scale=scale)


def forward(graph, x, activation, affines=None, record=None):
    """The graph walk of both passes. Returns logits, shape (N, classes).

    x goes through input_batch. An activation layer's value is
    activation(layer, value, n), n being the batch size; every other layer
    runs run_layer with its affine from affines (layer id -> BnAffine or
    None), or the graph's own when affines is None. record(layer, value, n),
    if given, sees each layer's value as soon as it is made, and keeps
    whatever it needs of it. The walk drops each value once its last
    consumer has run, so only a few are alive at once. The logits are the
    mean of the output value over its T timesteps.
    """
    x = input_batch(graph, x)
    n = len(x)
    last_use = {p: i for i, l in enumerate(graph.layers) for p in l.preds}
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
            out = run_layer(graph, layer, srcs, affine)
        del srcs
        if record is not None:
            record(layer, out, n)
        values[layer.id] = out
        del out
    final = _rows(values[graph.output_layer.id])
    if len(final) > n:
        final = final.reshape((-1, n) + final.shape[1:]).mean(axis=0)
    return final.reshape(n, -1)


def _level_values(levels, step):
    """Integer levels times theta / L, as a new float64 array."""
    return np.multiply(levels, step, dtype=np.float64)


def ann_forward(graph, x):
    """Run the real-valued reference pass, capturing a full trace."""
    outputs, pre, hists = TraceValues(), {}, {}

    def staircase(layer, z, n):
        cfg = layer.qcfs
        out = _level_buffer(z, cfg)
        levels = out.astype(np.min_scalar_type(cfg.L))
        pre[layer.id] = z
        hists[layer.id] = np.bincount(levels.ravel(), minlength=cfg.L + 1)
        outputs._put(layer.id, partial(_level_values, levels, cfg.theta / cfg.L))
        np.multiply(out, cfg.theta / cfg.L, out=out)
        return out

    def record(layer, value, n):
        if layer.kind != "qcfs_act":
            outputs._put(layer.id, value)

    logits = forward(graph, x, staircase, record=record)
    return LayerTrace(outputs=outputs, pre_activations=pre, histograms=hists, logits=logits)
