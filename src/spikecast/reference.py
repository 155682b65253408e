"""Reference path: quantized-activation forward pass and classification map.

The activation is the clip-floor staircase

    act(z) = theta * clip(floor(z * L / theta + 1/2) / L, 0, 1)

whose outputs live exactly on the level grid {0, 1, ..., L} * theta / L.
A boundary input landing exactly on a level edge, z = (k - 1/2) * theta/L,
maps to level k (the floor argument hits the integer k exactly).

The staircase is built in one float64 buffer: z * L, / theta, + 1/2,
floor and clip run in place, in that order. ann_forward takes the level
histogram from an integer cast of that buffer and then scales the same
buffer by theta / L to get the activation output.

The forward pass records every layer output plus, per activation layer,
the pre-activation tensor and a histogram of the emitted levels; those
histograms feed the layer-sensitivity metric.
"""

from dataclasses import dataclass

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


def level_counts(values, cfg, atol=1e-9):
    """Histogram of activation outputs over the level grid.

    Counts how many elements equal k * theta / L for each k in 0..L. Raises
    if any value is off the grid, which indicates an upstream bug rather
    than bad data.
    """
    values = np.asarray(values, dtype=np.float64)
    step = cfg.theta / cfg.L
    k = np.rint(values / step).astype(np.int64)
    on_grid = (k >= 0) & (k <= cfg.L) & (np.abs(values - k * step) <= atol * max(cfg.theta, 1.0))
    if not on_grid.all():
        bad = values.ravel()[~on_grid.ravel()][0]
        raise ValueError(f"activation value {bad!r} is not on the {cfg.L}-level grid "
                         f"with threshold {cfg.theta}")
    return np.bincount(k.ravel(), minlength=cfg.L + 1)


@dataclass
class LayerTrace:
    """Every layer output from one forward pass, plus activation detail."""

    outputs: dict                 # layer id -> output array
    pre_activations: dict         # activation layer id -> input array
    histograms: dict              # activation layer id -> level counts (L+1,)
    logits: np.ndarray            # (N, classes)


@dataclass
class ClassificationMap:
    """Per-class score shares f(c) = z[c] / sum(z), plus the argmax.

    The argmax is computed on the raw scores, independent of the
    normalization, with ties broken toward the lowest class index. When
    the scores sum to zero the shares are meaningless; those rows are
    flagged instead of raising.
    """

    probs: np.ndarray             # (N, classes)
    argmax: np.ndarray            # (N,)
    undefined: np.ndarray         # (N,) bool


def classification_map(logits):
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    if logits.shape[1] < 1:
        raise ValueError("classification map needs at least one class")
    totals = logits.sum(axis=1)
    undefined = totals == 0.0
    safe = np.where(undefined, 1.0, totals)
    probs = logits / safe[:, None]
    probs[undefined] = np.nan
    return ClassificationMap(probs=probs, argmax=logits.argmax(axis=1), undefined=undefined)


def _matmul(graph, layer, x):
    """Single-shot conv/fc layer with its bias and batch-norm applied."""
    affine = layer_affine(graph, layer)
    if layer.kind == "conv":
        return kernels.conv2d(x, conv_params(graph, layer), affine=affine)
    if x.ndim > 2:
        x = x.reshape(x.shape[0], -1)
    out = kernels.fully_connected(x, fc_weights(graph, layer))
    if affine is not None:
        out = kernels.fused_bn_affine(out, affine, out=out)
    return out


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


def ann_forward(graph, x):
    """Run the real-valued reference pass, capturing a full trace."""
    x = input_batch(graph, x)
    outputs, pre, hists = {}, {}, {}
    for layer in graph.layers:
        if layer.kind == "input":
            out = x
        elif layer.is_matmul:
            out = _matmul(graph, layer, outputs[layer.preds[0]])
        elif layer.kind == "avg_pool":
            out = kernels.avg_pool2d(outputs[layer.preds[0]], layer.window)
        elif layer.kind == "max_pool":
            out = kernels.max_pool2d(outputs[layer.preds[0]], layer.window)
        elif layer.kind == "residual_add":
            out = outputs[layer.preds[0]] + outputs[layer.preds[1]]
        else:  # qcfs_act
            z = outputs[layer.preds[0]]
            cfg = layer.qcfs
            out = _level_buffer(z, cfg)
            pre[layer.id] = z
            hists[layer.id] = np.bincount(out.astype(np.intp).ravel(), minlength=cfg.L + 1)
            np.multiply(out, cfg.theta / cfg.L, out=out)
        outputs[layer.id] = out
    logits = outputs[graph.output_layer.id].reshape(x.shape[0], -1)
    return LayerTrace(outputs=outputs, pre_activations=pre, histograms=hists, logits=logits)
