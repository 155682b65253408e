"""Correctness oracles written apart from spikecast.

Nothing here calls into spikecast's kernels, reference pass, sensitivity or
energy code. The oracles read only a parsed graph's layer records and its
float32 weight arrays, and recompute everything else their own way:

  * ``staircase_forward``: float64 reference pass with a shifted-accumulate
    convolution (one GEMM per kernel tap, no im2col) and the staircase
    act(z) = theta * clip(floor(z*L/theta + 1/2)/L, 0, 1);
  * ``exact_edge_levels``: rational arithmetic over the actual float operands
    of the level-edge probe nets, to say which pass picked the documented
    tie level;
  * ``layer_macs``: the MAC formula, per matmul layer;
  * ``sensitivity_rows`` and ``best_split_sse``: agreement, skewness,
    kurtosis and the composite metric from the histograms, and the optimal
    3-way clustering by enumerating every contiguous split.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

VGG16_CIFAR10_MACS = 332_111_872   # published VGG-16/CIFAR-10 total


def _w64(graph, layer_id, name):
    return np.asarray(graph.weights[layer_id][name], dtype=np.float64)


def _conv_shift(x, w, stride, padding):
    n, _, h, wd = x.shape
    c_out, _, k_h, k_w = w.shape
    (s_h, s_w), (p_h, p_w) = stride, padding
    xp = np.pad(x, ((0, 0), (0, 0), (p_h, p_h), (p_w, p_w)))
    h_o = (h + 2 * p_h - k_h) // s_h + 1
    w_o = (wd + 2 * p_w - k_w) // s_w + 1
    out = np.zeros((c_out, n, h_o, w_o))
    for i in range(k_h):
        for j in range(k_w):
            tap = xp[:, :, i:i + s_h * h_o:s_h, j:j + s_w * w_o:s_w]
            out += np.tensordot(w[:, :, i, j], tap, axes=([1], [1]))
    return out.transpose(1, 0, 2, 3)


def _affine(graph, layer, y):
    """Bias and batch norm folded into one scale and one shift per channel."""
    if not layer.has_bias and not layer.has_bn:
        return y
    c = layer.out_channels
    bias = _w64(graph, layer.id, "bias") if layer.has_bias else np.zeros(c)
    if layer.has_bn:
        scale = _w64(graph, layer.id, "gamma") / np.sqrt(
            _w64(graph, layer.id, "sigma_sq") + layer.epsilon)
        shift = (bias - _w64(graph, layer.id, "mu")) * scale + _w64(graph, layer.id, "beta")
    else:
        scale, shift = np.ones(c), bias
    shape = (1, c) + (1,) * (y.ndim - 2)
    return y * scale.reshape(shape) + shift.reshape(shape)


def staircase_forward(graph, x):
    """Float64 staircase pass. Returns (logits, {act id: level histogram})."""
    vals, hists = {}, {}
    for layer in graph.layers:
        src = vals[layer.preds[0]] if layer.preds else None
        if layer.kind == "input":
            out = np.asarray(x, dtype=np.float64)
        elif layer.kind == "conv":
            out = _affine(graph, layer, _conv_shift(
                src, _w64(graph, layer.id, "weight"), layer.stride, layer.padding))
        elif layer.kind == "fc":
            flat = src.reshape(src.shape[0], -1)
            out = _affine(graph, layer, (_w64(graph, layer.id, "weight") @ flat.T).T)
        elif layer.kind == "avg_pool":
            n, c, h, w = src.shape
            k = layer.window
            out = src.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))
        elif layer.kind == "residual_add":
            out = src + vals[layer.preds[1]]
        elif layer.kind == "qcfs_act":
            big_l, theta = layer.qcfs.L, layer.qcfs.theta
            levels = np.clip(np.floor(src * big_l / theta + 0.5), 0, big_l)
            hists[layer.id] = np.bincount(levels.astype(np.int64).ravel(),
                                          minlength=big_l + 1)
            out = levels * (theta / big_l)
        else:
            raise ValueError(f"oracle cannot run layer kind {layer.kind!r}")
        vals[layer.id] = out
    return vals[graph.layers[-1].id].reshape(np.shape(x)[0], -1), hists


# ---------------------------------------------------------------------------
# level-edge probe nets: in(3x1x1) -> fc1 -> act1 -> fc2 -> act2 -> head


def _scaled(value, bits=1100):
    """A finite double as an exact integer multiple of 2**-bits."""
    num, den = float(value).as_integer_ratio()
    return num * (2 ** bits // den)


def exact_edge_levels(graph, x):
    """Exact act2 pre-activations of a probe net, from its float operands.

    act1's outputs are rebuilt as the float64 values the program computes
    (level index times theta/L); fc2's float32 weights and those values are
    taken as exact rationals (every double is an integer times 2**-1074),
    so z = sum w*a is computed without rounding. Returns (levels, edge) per
    (row, unit): the level the documented rule floor(z*L/theta + 1/2) gives
    for the exact z, and whether z lies within 1e-12 (in units of theta/L)
    of a level edge.
    """
    a1 = graph.layer("act1").qcfs
    cfg = graph.layer("act2").qcfs
    rows = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    # fc1 is the identity, so act1 sees the input itself
    a1_levels = np.clip(np.floor(rows * a1.L / a1.theta + 0.5), 0, a1.L)
    a1_vals = a1_levels * (a1.theta / a1.L)
    w = [[_scaled(v) for v in row]
         for row in np.asarray(graph.weights["fc2"]["weight"], dtype=np.float64)]
    # u = z*L/theta + 1/2 = (2*Z*L + T*2**1100) / (2*T*2**1100), z = Z*2**-2200
    theta = _scaled(cfg.theta)
    den = 2 * theta * 2 ** 1100
    levels = np.zeros((len(rows), len(w)), dtype=np.int64)
    edge = np.zeros_like(levels, dtype=bool)
    for r, vals in enumerate(a1_vals):
        a = [_scaled(v) for v in vals]
        for j, w_row in enumerate(w):
            z = sum(wi * ai for wi, ai in zip(w_row, a))
            num = 2 * z * cfg.L + theta * 2 ** 1100
            k, rem = divmod(num, den)
            nearest = k + (2 * rem >= den)
            levels[r, j] = min(max(k, 0), cfg.L)
            edge[r, j] = (min(rem, den - rem) * 10 ** 12 <= den
                          and 0 < nearest <= cfg.L)
    return levels, edge


# ---------------------------------------------------------------------------
# op counts


def layer_macs(graph):
    """[(layer id, kind, c_in, c_out, k_h, k_w, h_out, w_out, macs)] per matmul."""
    rows = []
    for layer in graph.layers:
        if layer.kind == "conv":
            c_in = layer.in_shape[0]
            c_out, h_o, w_o = layer.out_shape
            k_h, k_w = layer.kernel
        elif layer.kind == "fc":
            c_in = int(np.prod(layer.in_shape))
            c_out, k_h, k_w, h_o, w_o = layer.out_channels, 1, 1, 1, 1
        else:
            continue
        rows.append((layer.id, layer.kind, c_in, c_out, k_h, k_w, h_o, w_o,
                     c_in * c_out * k_h * k_w * h_o * w_o))
    return rows


# ---------------------------------------------------------------------------
# sensitivity


def sensitivity_rows(hists, alpha):
    """{act id: (A, g, K, M) or None when degenerate}, from level histograms.

    A = 1 - (S-1)/(K_cat-1), S = bins holding >= alpha of the mass;
    g = (sum c(x-mean)^3 / n) / s^3 with s^2 the (n-1) variance;
    K = (n+1)n / ((n-1)(n-2)(n-3)) * sum c(x-mean)^4 / s^4;  M = A (g^2+1) K.
    Level indices stand in for level values: g and K are scale free.
    """
    out = {}
    for lid, counts in hists.items():
        counts = [int(c) for c in counts]
        n = sum(counts)
        cats = len(counts)
        busy = sum(1 for c in counts if c >= alpha * n)
        agree = 1.0 if busy == 0 else 1.0 - (busy - 1) / (cats - 1)
        mean = Fraction(sum(k * c for k, c in enumerate(counts)), n) if n else Fraction(0)
        m2 = sum(c * (k - mean) ** 2 for k, c in enumerate(counts))
        if n <= 3 or m2 == 0:
            out[lid] = None
            continue
        m3 = sum(c * (k - mean) ** 3 for k, c in enumerate(counts))
        m4 = sum(c * (k - mean) ** 4 for k, c in enumerate(counts))
        var = m2 / (n - 1)
        g = float(m3 / n) / float(var) ** 1.5
        kurt = float(Fraction((n + 1) * n, (n - 1) * (n - 2) * (n - 3)) * m4 / var ** 2)
        out[lid] = (agree, g, kurt, agree * (g * g + 1.0) * kurt)
    return out


def _sse(vals):
    mean = sum(vals) / len(vals)
    return sum((v - mean) ** 2 for v in vals)


def best_split_sse(values, chi=3):
    """Minimum within-cluster SSE over every split of the sorted values into
    chi contiguous non-empty runs (an optimal 1-D k-means partition is one
    of them)."""
    vals = sorted(values)
    best = None
    for cuts in combinations(range(1, len(vals)), chi - 1):
        bounds = (0,) + cuts + (len(vals),)
        cost = sum(_sse(vals[a:b]) for a, b in zip(bounds, bounds[1:]))
        best = cost if best is None else min(best, cost)
    return best


def assignment_sse(values, assignments):
    groups = {}
    for v, a in zip(values, assignments):
        groups.setdefault(int(a), []).append(v)
    return sum(_sse(g) for g in groups.values())
