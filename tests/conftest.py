"""Shared builders: small manifests, random model generation, naive oracles."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from spikecast.energy import dims_from_graph
from spikecast.graph import init_random, parse_manifest
from spikecast.reference import ann_forward
from spikecast.zoo import (residual_block_manifest, resnet_manifest, toy_manifest,
                           vgg16_manifest)


@pytest.fixture
def toy_graph():
    return init_random(parse_manifest(toy_manifest()), 42)


def zoo_dims(manifest):
    """MatMulDims of a manifest's matmuls, in graph order."""
    return dims_from_graph(parse_manifest(manifest))[0]


def vgg16_cifar(classes=10):
    return zoo_dims(vgg16_manifest(classes))


def vgg16_imagenet():
    return zoo_dims(vgg16_manifest(1000, input_size=224))


def resnet18_cifar():
    return zoo_dims(resnet_manifest())


def resnet34_imagenet():
    return zoo_dims(resnet_manifest((3, 4, 6, 3), input_size=224, classes=1000,
                                    imagenet_stem=True))


def pooled_input_manifest():
    """in -> avg_pool -> conv -> act -> fc: a pool that reads the caller's batch."""
    return json.dumps({
        "name": "pooled-input", "classes": 3,
        "layers": [
            {"id": "in", "kind": "input", "pred": [], "shape": [2, 8, 8]},
            {"id": "pool0", "kind": "avg_pool", "pred": ["in"], "window": 2},
            {"id": "conv", "kind": "conv", "pred": ["pool0"], "out_channels": 3,
             "kernel": 3, "padding": 1, "bias": True},
            {"id": "act", "kind": "qcfs_act", "pred": ["conv"], "L": 4, "theta": 1.0},
            {"id": "fc", "kind": "fc", "pred": ["act"], "out_features": 3, "bias": True},
        ],
    })


def no_matmul_manifest():
    """in -> avg_pool: a net with no conv or fc layer."""
    return json.dumps({"name": "nomm", "classes": 1, "layers": [
        {"id": "in", "kind": "input", "pred": [], "shape": [1, 2, 2]},
        {"id": "p", "kind": "avg_pool", "pred": ["in"], "window": 2}]})


def clustering_sse(values, assignments):
    """Within-cluster sum of squared deviations for a given assignment."""
    values = np.asarray(values, dtype=np.float64)
    total = 0.0
    for cid in np.unique(assignments):
        member = values[assignments == cid]
        total += float(np.sum((member - member.mean()) ** 2))
    return total


def traced_peak_bytes(call):
    """Peak bytes that tracemalloc sees allocated during call(), above the
    bytes already held when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def traced_held_bytes(make):
    """Bytes that make()'s result still holds once make() has returned: what
    tracemalloc sees freed when that result is dropped."""
    tracemalloc.start()
    try:
        result = make()
        held = tracemalloc.get_traced_memory()[0]
        del result
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def naive_conv2d(x, weights, stride=(1, 1), padding=(0, 0)):
    """Loop reference convolution (independent oracle for the fast kernel)."""
    n, c, h, w = x.shape
    c_o, c_i, k_h, k_w = weights.shape
    s_h, s_w = stride
    p_h, p_w = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p_h, p_h), (p_w, p_w)))
    h_o = (h + 2 * p_h - k_h) // s_h + 1
    w_o = (w + 2 * p_w - k_w) // s_w + 1
    out = np.zeros((n, c_o, h_o, w_o))
    for b in range(n):
        for oc in range(c_o):
            for i in range(h_o):
                for j in range(w_o):
                    patch = xp[b, :, i * s_h:i * s_h + k_h, j * s_w:j * s_w + k_w]
                    out[b, oc, i, j] = np.sum(patch * weights[oc])
    return out


def sliding_window_conv2d(x, params):
    """The earlier conv lowering, kept as a bitwise oracle for kernels.conv2d.

    It builds the same C-contiguous patch matrix through a strided window
    view and a 6-D transpose, then runs the same ``cols @ flat_w.T``.
    """
    n, c, h, w = x.shape
    k_h, k_w = params.kernel
    s_h, s_w = params.stride
    p_h, p_w = params.padding
    h_o = (h + 2 * p_h - k_h) // s_h + 1
    w_o = (w + 2 * p_w - k_w) // s_w + 1
    if p_h or p_w:
        x = np.pad(x, ((0, 0), (0, 0), (p_h, p_h), (p_w, p_w)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (k_h, k_w), axis=(2, 3))
    windows = windows[:, :, ::s_h, ::s_w]            # (N, C, H_o, W_o, K_h, K_w)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * h_o * w_o, c * k_h * k_w)
    flat_w = params.weights.reshape(params.out_channels, c * k_h * k_w)
    out = cols @ flat_w.T
    return np.ascontiguousarray(
        out.reshape(n, h_o, w_o, params.out_channels).transpose(0, 3, 1, 2))


# ---------------------------------------------------------------------------
# earlier epilogues, kept as bitwise oracles for the kernels that replaced them


def affine_expression(y, affine):
    """A BnAffine on each channel of y as one plain expression."""
    shape = (1, -1) + (1,) * (y.ndim - 2)
    shift = (affine.bias - affine.mu).reshape(shape)
    denom = np.sqrt(affine.sigma_sq + affine.epsilon).reshape(shape)
    return affine.gamma.reshape(shape) * (y + shift) / denom + affine.beta.reshape(shape)


def mean_avg_pool2d(x, k=2):
    """Pooling as numpy's mean over a 6-D window view."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))


def expression_levels(z, cfg):
    """The staircase level index as one expression, before the one-buffer form."""
    return np.clip(np.floor(np.asarray(z, dtype=np.float64) * cfg.L / cfg.theta + 0.5),
                   0.0, float(cfg.L))


def step_train_sum(train):
    """A train's timestep sum, theta_star added one step at a time."""
    total = np.zeros(train.bits.shape[1:])
    for step in train.bits:
        np.add(total, train.theta_star, out=total, where=step)
    return total


def full_array_if(stack, plan):
    """Stages 1 and 2 of the IF layer, run on every neuron in every step.

    Returns the counter and [stage 1, stage 2 excitatory, stage 2 inhibitory]
    spike totals.
    """
    th = plan.theta_star
    mem = np.full(stack.shape[1:], th / 2.0)
    count = np.zeros(stack.shape[1:], dtype=np.int64)
    fire = np.empty(mem.shape, dtype=bool)
    inhib = np.empty(mem.shape, dtype=bool)
    spikes = [0, 0, 0]
    for t in range(plan.l_in):
        mem += stack[t]
        np.greater_equal(mem, th, out=fire)
        count += fire
        np.subtract(mem, th, out=mem, where=fire)
        spikes[0] += int(np.count_nonzero(fire))
    for _ in range(max(plan.l_in, plan.l_out) - 1):
        np.greater_equal(mem, th, out=fire)
        np.less(mem, 0.0, out=inhib)
        count += fire
        count -= inhib
        np.add(mem, th, out=mem, where=inhib)
        np.subtract(mem, th, out=mem, where=fire)
        spikes[1] += int(np.count_nonzero(fire))
        spikes[2] += int(np.count_nonzero(inhib))
    return count, spikes


def random_manifest(rng, allow_residual=True):
    """Random 2-5 matmul model: channels <= 16, spatial <= 16, L in {1,2,4,8}."""
    if allow_residual and rng.random() < 0.25:
        return residual_block_manifest(classes=int(rng.integers(2, 6)),
                                       l_main=int(rng.choice([1, 2, 4, 8])),
                                       theta=float(rng.uniform(0.3, 1.5)))
    n_matmul = int(rng.integers(2, 6))
    c_in = int(rng.integers(1, 4))
    hw = int(rng.choice([4, 6, 8, 12, 16]))
    classes = int(rng.integers(2, 6))
    layers = [{"id": "in", "kind": "input", "pred": [], "shape": [c_in, hw, hw]}]
    prev, cur_hw, spatial = "in", hw, True
    for idx in range(1, n_matmul):
        if spatial and rng.random() < 0.75:
            layers.append({"id": f"conv{idx}", "kind": "conv", "pred": [prev],
                           "out_channels": int(rng.integers(2, 17)), "kernel": 3,
                           "stride": 1, "padding": 1,
                           "bias": bool(rng.random() < 0.7),
                           "batch_norm": bool(rng.random() < 0.5)})
            prev = f"conv{idx}"
        else:
            spatial = False
            layers.append({"id": f"fc{idx}", "kind": "fc", "pred": [prev],
                           "out_features": int(rng.integers(2, 17)),
                           "bias": bool(rng.random() < 0.7),
                           "batch_norm": bool(rng.random() < 0.3)})
            prev = f"fc{idx}"
        layers.append({"id": f"act{idx}", "kind": "qcfs_act", "pred": [prev],
                       "L": int(rng.choice([1, 2, 4, 8])),
                       "theta": float(rng.uniform(0.3, 1.5))})
        prev = f"act{idx}"
        if spatial and cur_hw % 2 == 0 and rng.random() < 0.4:
            layers.append({"id": f"pool{idx}", "kind": "avg_pool", "pred": [prev],
                           "window": 2})
            prev, cur_hw = f"pool{idx}", cur_hw // 2
    layers.append({"id": "head", "kind": "fc", "pred": [prev],
                   "out_features": classes, "bias": True})
    return json.dumps({"name": "rand", "classes": classes, "layers": layers})


def random_graph(rng, allow_residual=True):
    g = parse_manifest(random_manifest(rng, allow_residual))
    return init_random(g, int(rng.integers(0, 2 ** 63)))


def negative_weight_graph():
    """Hand-built net that deterministically needs inhibitory spikes.

    The first activation saturates on pixel-like input, the middle fc layer
    is all-negative so the second membrane dives below zero during
    integration, and only an inhibitory correction brings the spike count
    back to the true level (zero).
    """
    doc = {
        "name": "inhibitory-fixture",
        "classes": 2,
        "layers": [
            {"id": "in", "kind": "input", "pred": [], "shape": [1, 2, 2]},
            {"id": "conv1", "kind": "conv", "pred": ["in"], "out_channels": 1,
             "kernel": 1, "bias": True},
            {"id": "act1", "kind": "qcfs_act", "pred": ["conv1"], "L": 2, "theta": 1.0},
            {"id": "fc1", "kind": "fc", "pred": ["act1"], "out_features": 3},
            {"id": "act2", "kind": "qcfs_act", "pred": ["fc1"], "L": 2, "theta": 1.0},
            {"id": "head", "kind": "fc", "pred": ["act2"], "out_features": 2,
             "bias": True},
        ],
    }
    graph = parse_manifest(json.dumps(doc))
    weights = {
        "conv1": {"weight": np.ones((1, 1, 1, 1), dtype=np.float32),
                  "bias": np.array([0.5], dtype=np.float32)},
        "fc1": {"weight": np.full((3, 4), -0.25, dtype=np.float32)},
        "head": {"weight": np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.25]],
                                    dtype=np.float32),
                 "bias": np.array([0.3, 0.1], dtype=np.float32)},
    }
    return graph.with_weights(weights)


def probe_graph(seed):
    """in(3x1x1) -> identity fc -> act (L=10) -> fc with float32 weights
    rounded to multiples of 0.1 -> act (L=2) -> 2-class head.

    On level_grid, seeds 0 and 2-5 put between 1 and 23 of fc2's outputs
    exactly on a level edge of act2 (1/4 or 3/4), where floating point is
    least forgiving; seeds 1, 6 and 7 put none there."""
    doc = {"name": "level-edge", "classes": 2, "layers": [
        {"id": "in", "kind": "input", "pred": [], "shape": [3, 1, 1]},
        {"id": "fc1", "kind": "fc", "pred": ["in"], "out_features": 3},
        {"id": "act1", "kind": "qcfs_act", "pred": ["fc1"], "L": 10, "theta": 1.0},
        {"id": "fc2", "kind": "fc", "pred": ["act1"], "out_features": 3},
        {"id": "act2", "kind": "qcfs_act", "pred": ["fc2"], "L": 2, "theta": 1.0},
        {"id": "head", "kind": "fc", "pred": ["act2"], "out_features": 2, "bias": True},
    ]}
    graph = init_random(parse_manifest(json.dumps(doc)), seed)
    w = dict(graph.weights)
    w["fc1"] = {"weight": np.eye(3, dtype=np.float32)}
    fc2 = np.asarray(w["fc2"]["weight"], dtype=np.float64)
    w["fc2"] = {"weight": (np.round(fc2 * 10.0) / 10.0).astype(np.float32)}
    return graph.with_weights(w)


def level_grid():
    """All 11^3 inputs with each channel in {0, 0.1, ..., 1}."""
    grid = np.array(list(itertools.product(range(11), repeat=3)), dtype=np.float64)
    return grid.reshape(-1, 3, 1, 1) / 10.0


def vgg_edge_graph(steps, seed, batch=1):
    """VGG-16 up to act1_2 plus a 10-class fc head, with conv1_2's batch-norm
    shift beta moved so that, in every channel, one neuron's reference
    pre-activation z sits exactly on a level edge (k - 1/2) * theta / L of
    act1_2. Returns the graph and its batch of inputs.

    steps is the L of both activations, or the pair (act1_1's, act1_2's).
    Weights come from init_random(seed) and the uniform inputs from seed.
    The affine ends with z = fl(a + beta), a fixed by everything before it,
    so one reference pass with beta = 0 gives every a: each channel takes
    the neuron nearest an edge e for which e - a, or a float next to it,
    is a beta with fl(a + beta) = e. beta is then float64 off the float32
    grid, so no weight blob can hold the graph.
    """
    l_first, l_edge = (steps, steps) if isinstance(steps, int) else steps
    doc = json.loads(vgg16_manifest(classes=10, steps=[l_first, l_edge] + [1] * 13))
    layers = doc["layers"][:5]
    assert layers[-1]["id"] == "act1_2"
    layers.append({"id": "head", "kind": "fc", "pred": ["act1_2"], "out_features": 10,
                   "bias": True})
    graph = init_random(parse_manifest(json.dumps(
        {"name": "vgg-edge", "classes": 10, "layers": layers})), seed)
    x = np.random.default_rng(seed).uniform(0.0, 1.0, size=(batch, 3, 32, 32))

    cfg = graph.layer("act1_2").qcfs
    bn = dict(graph.weights["conv1_2"])
    beta = bn["beta"]
    bn["beta"] = np.zeros_like(beta)
    a = ann_forward(graph.with_weights({**graph.weights, "conv1_2": bn}), x)
    a = a.pre_activations["act1_2"].swapaxes(0, 1).reshape(len(beta), -1)
    z = a + beta[:, None]
    k = np.clip(np.floor(z * cfg.L / cfg.theta + 1.0), 1, cfg.L)   # nearest edge's level
    edges = (k - 0.5) * cfg.theta / cfg.L
    nearest = np.argsort(np.abs(z - edges), axis=1)
    # from some a no beta reaches e exactly (a has bits finer than beta's
    # grid), so each channel takes its nearest neuron from which one does
    bn["beta"] = np.array([next(b for j in nearest[c] for b in _edge_shifts(a[c, j], edges[c, j]))
                           for c in range(len(beta))])
    return graph.with_weights({**graph.weights, "conv1_2": bn}), x


def _edge_shifts(base, edge):
    """beta = edge - base and its float neighbours, each one for which
    fl(base + beta) is edge."""
    start = edge - base
    for b in (start, np.nextafter(start, np.inf), np.nextafter(start, -np.inf)):
        if base + b == edge:
            yield float(b)
