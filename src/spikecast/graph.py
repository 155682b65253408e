"""Model graphs: manifest parsing, validation, weight I/O and seeded init.

A model is described by a JSON manifest (see docs/manifest_format.md) plus
one raw float32 blob per weighted layer. The graph is an ordered DAG with a
single input and a single output; batch-norm is always represented fused
into its matmul layer, and standalone ``bn_affine`` manifest entries are
folded into their predecessor at parse time.

Graphs are immutable after construction (nothing here mutates a parsed
graph in place); concurrent readers are safe.

The execution paths read weights through float64 views (``conv_params``,
``fc_weights``, ``layer_affine``). Each graph casts a layer's view once, on
first use, and holds it for its own lifetime, so a graph that has run a pass
also holds a float64 copy of every weight (about 270 MB for VGG-16/CIFAR).
The views are read-only. Weight arrays must not be mutated in place after a
pass, since the views would no longer match them; build a new graph with
``with_weights`` instead, which starts with no views.
"""

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .kernels import BnAffine, ConvParams, conv_output_hw

MATMUL_KINDS = ("conv", "fc")


class GraphError(ValueError):
    """Manifest or weight validation failure; the message names the layer."""


def _fail(layer_id, reason):
    raise GraphError(f"layer '{layer_id}': {reason}")


@dataclass(frozen=True)
class QcfsConfig:
    """Quantized clip-floor activation: L levels, trained threshold theta.

    The half-step shift that makes the expected conversion error vanish is
    fixed and not configurable.
    """

    L: int
    theta: float

    def __post_init__(self):
        if self.L < 1:
            raise GraphError(f"quantization step must be >= 1, got {self.L}")
        if not self.theta > 0:
            raise GraphError(f"activation threshold must be positive, got {self.theta}")


@dataclass(frozen=True)
class LayerSpec:
    id: str
    kind: str
    preds: tuple = ()
    # conv / fc
    out_channels: int = 0
    kernel: tuple = (1, 1)
    stride: tuple = (1, 1)
    padding: tuple = (0, 0)
    has_bias: bool = False
    has_bn: bool = False
    epsilon: float = 1e-5
    # avg_pool
    window: int = 0
    # qcfs_act
    qcfs: QcfsConfig = None
    # input
    shape: tuple = ()
    # filled in by shape inference
    in_shape: tuple = ()
    out_shape: tuple = ()

    @property
    def is_matmul(self):
        return self.kind in MATMUL_KINDS

    @property
    def in_channels(self):
        if self.kind == "conv":
            return self.in_shape[0]
        if self.kind == "fc":
            return int(np.prod(self.in_shape))
        raise GraphError(f"layer '{self.id}' has no input channels")

    def weight_shape(self):
        if self.kind == "conv":
            return (self.out_channels, self.in_channels) + self.kernel
        if self.kind == "fc":
            return (self.out_channels, self.in_channels)
        return None


@dataclass(frozen=True)
class ModelGraph:
    """Ordered layer specs plus (optionally) their weight arrays."""

    name: str
    classes: int
    layers: tuple
    weights: dict = field(default_factory=dict)
    seed: int = None

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {l.id: l for l in self.layers})
        object.__setattr__(self, "_views", {})   # (view kind, layer id) -> view

    def layer(self, layer_id):
        return self._by_id[layer_id]

    def matmul_layers(self):
        return [l for l in self.layers if l.is_matmul]

    def qcfs_layers(self):
        return [l for l in self.layers if l.kind == "qcfs_act"]

    @property
    def input_layer(self):
        return next(l for l in self.layers if l.kind == "input")

    @property
    def output_layer(self):
        return self.layers[-1]

    def with_weights(self, weights):
        return replace(self, weights=weights)


# ---------------------------------------------------------------------------
# parsing


def _as_pair(value, layer_id, name, low):
    pair = (value, value) if isinstance(value, int) else value
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        _fail(layer_id, f"field '{name}' must be an int or a pair")
    pair = (int(pair[0]), int(pair[1]))
    if min(pair) < low:
        _fail(layer_id, f"field '{name}' must be >= {low}, got {value}")
    return pair


def _positive(entry, layer_id, name):
    if name not in entry:
        _fail(layer_id, f"'{entry['kind']}' layer needs '{name}'")
    value = int(entry[name])
    if value < 1:
        _fail(layer_id, f"field '{name}' must be positive, got {value}")
    return value


def _parse_layer(entry):
    if not isinstance(entry, dict) or "id" not in entry or "kind" not in entry:
        raise GraphError("every layer entry needs 'id' and 'kind' fields")
    lid = entry["id"]
    kind = entry["kind"]
    preds = tuple(entry.get("pred", []))
    if kind == "input":
        shape = entry.get("shape")
        if not (isinstance(shape, (list, tuple)) and len(shape) == 3):
            _fail(lid, "input layer needs 'shape': [C, H, W]")
        shape = tuple(int(v) for v in shape)
        if min(shape) < 1:
            _fail(lid, f"input shape must be positive, got {list(shape)}")
        return LayerSpec(lid, kind, preds, shape=shape)
    if kind == "conv":
        return LayerSpec(
            lid, kind, preds,
            out_channels=_positive(entry, lid, "out_channels"),
            kernel=_as_pair(entry.get("kernel", 1), lid, "kernel", 1),
            stride=_as_pair(entry.get("stride", 1), lid, "stride", 1),
            padding=_as_pair(entry.get("padding", 0), lid, "padding", 0),
            has_bias=bool(entry.get("bias", False)),
            has_bn=bool(entry.get("batch_norm", False)),
            epsilon=float(entry.get("epsilon", 1e-5)),
        )
    if kind == "fc":
        return LayerSpec(
            lid, kind, preds,
            out_channels=_positive(entry, lid, "out_features"),
            has_bias=bool(entry.get("bias", False)),
            has_bn=bool(entry.get("batch_norm", False)),
            epsilon=float(entry.get("epsilon", 1e-5)),
        )
    if kind == "avg_pool":
        return LayerSpec(lid, kind, preds, window=_positive(entry, lid, "window"))
    if kind == "max_pool":
        _fail(lid, "unsupported nonlinearity (max_pool): a max does not commute with "
                   "the timestep sum, so it has no exact spiking counterpart")
    if kind == "qcfs_act":
        if "L" not in entry or "theta" not in entry:
            _fail(lid, "activation layer needs 'L' and 'theta'")
        return LayerSpec(lid, kind, preds,
                         qcfs=QcfsConfig(L=int(entry["L"]), theta=float(entry["theta"])))
    if kind == "residual_add":
        return LayerSpec(lid, kind, preds)
    if kind == "bn_affine":
        # placeholder; folded into the predecessor matmul below
        return LayerSpec(lid, kind, preds, epsilon=float(entry.get("epsilon", 1e-5)))
    _fail(lid, f"unknown layer kind '{kind}'")


def _fuse_standalone_bn(layers):
    """Fold 'bn_affine' entries into their predecessor conv/fc."""
    by_id = {l.id: l for l in layers}
    fused = {}
    for layer in layers:
        if layer.kind != "bn_affine":
            continue
        if len(layer.preds) != 1 or by_id.get(layer.preds[0]) is None:
            _fail(layer.id, "bn_affine must have exactly one existing predecessor")
        target = by_id[layer.preds[0]]
        if target.kind not in MATMUL_KINDS:
            _fail(layer.id, "bn_affine predecessor must be a conv or fc layer")
        if target.has_bn:
            _fail(layer.id, f"layer '{target.id}' already carries batch-norm")
        fused[layer.id] = target.id
        by_id[target.id] = replace(target, has_bn=True, epsilon=layer.epsilon)
    if not fused:
        return layers
    out = []
    for layer in layers:
        if layer.kind == "bn_affine":
            continue
        layer = by_id[layer.id]
        preds = tuple(fused.get(p, p) for p in layer.preds)
        out.append(replace(layer, preds=preds))
    return out


def _toposort(layers):
    by_id = {}
    for layer in layers:
        if layer.id in by_id:
            _fail(layer.id, "duplicate layer id")
        by_id[layer.id] = layer
    for layer in layers:
        for p in layer.preds:
            if p not in by_id:
                _fail(layer.id, f"dangling predecessor '{p}'")
    indeg = {l.id: len(l.preds) for l in layers}
    succs = {l.id: [] for l in layers}
    for layer in layers:
        for p in layer.preds:
            succs[p].append(layer.id)
    ready = [l.id for l in layers if indeg[l.id] == 0]
    order = []
    while ready:
        lid = ready.pop(0)
        order.append(by_id[lid])
        for s in succs[lid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(order) != len(layers):
        cyclic = sorted(set(by_id) - {l.id for l in order})
        raise GraphError(f"graph contains a cycle through: {', '.join(cyclic)}")
    return order, succs


def _infer_shapes(layers):
    """Propagate (C, H, W) / (F,) shapes and validate layer geometry."""
    shapes = {}
    out = []
    for layer in layers:
        if layer.kind == "input":
            in_shape = layer.shape
            out_shape = layer.shape
        else:
            pred_shapes = [shapes[p] for p in layer.preds]
            in_shape = pred_shapes[0]
            if layer.kind == "conv":
                if len(in_shape) != 3:
                    _fail(layer.id, "conv requires a spatial (C, H, W) input")
                try:
                    h_o, w_o = conv_output_hw(in_shape[1], in_shape[2], layer.kernel,
                                              layer.stride, layer.padding)
                except ValueError as exc:
                    _fail(layer.id, str(exc))
                out_shape = (layer.out_channels, h_o, w_o)
            elif layer.kind == "fc":
                out_shape = (layer.out_channels,)
            elif layer.kind == "avg_pool":
                if len(in_shape) != 3:
                    _fail(layer.id, "pool requires a spatial (C, H, W) input")
                c, h, w = in_shape
                if h % layer.window or w % layer.window:
                    _fail(layer.id, f"pool window {layer.window} does not divide {h}x{w}")
                out_shape = (c, h // layer.window, w // layer.window)
            elif layer.kind == "residual_add":
                if pred_shapes[0] != pred_shapes[1]:
                    _fail(layer.id, f"residual_add branch shapes differ: "
                                    f"{pred_shapes[0]} vs {pred_shapes[1]}")
                out_shape = in_shape
            else:  # qcfs_act
                out_shape = in_shape
        shapes[layer.id] = out_shape
        out.append(replace(layer, in_shape=in_shape, out_shape=out_shape))
    return out


def _validate_structure(layers, succs):
    inputs = [l for l in layers if l.kind == "input"]
    if len(inputs) != 1:
        raise GraphError(f"graph must have exactly one input layer, found {len(inputs)}")
    if inputs[0].preds:
        _fail(inputs[0].id, "input layer cannot have predecessors")
    sinks = [l for l in layers if not succs[l.id]]
    if len(sinks) != 1:
        raise GraphError("graph must have exactly one output layer, found "
                         + ", ".join(l.id for l in sinks))
    by_id = {l.id: l for l in layers}
    for layer in layers:
        if layer.kind == "residual_add":
            if len(layer.preds) != 2:
                _fail(layer.id, f"residual_add arity: needs exactly 2 predecessors, "
                                f"got {len(layer.preds)}")
        elif layer.kind == "qcfs_act":
            if len(layer.preds) != 1:
                _fail(layer.id, "activation needs exactly one predecessor")
            pred = by_id[layer.preds[0]]
            if pred.kind not in MATMUL_KINDS and pred.kind != "residual_add":
                _fail(layer.id, f"activation must directly follow a matmul or "
                                f"residual_add layer, not '{pred.kind}'")
        elif layer.kind != "input":
            if len(layer.preds) != 1:
                _fail(layer.id, f"'{layer.kind}' needs exactly one predecessor")


def parse_manifest(text):
    """Parse and validate a manifest JSON document into a weightless graph."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"manifest is not valid JSON: {exc}") from exc
    for fld in ("name", "classes", "layers"):
        if fld not in doc:
            raise GraphError(f"manifest is missing required field '{fld}'")
    layers = [_parse_layer(e) for e in doc["layers"]]
    layers = _fuse_standalone_bn(layers)
    layers, succs = _toposort(layers)
    _validate_structure(layers, succs)
    layers = _infer_shapes(layers)
    graph = ModelGraph(name=str(doc["name"]), classes=int(doc["classes"]),
                       layers=tuple(layers), seed=doc.get("seed"))
    out = graph.output_layer.out_shape
    if int(np.prod(out)) != graph.classes:
        _fail(graph.output_layer.id,
              f"output size {int(np.prod(out))} does not match class count {graph.classes}")
    return graph


def serialize_manifest(graph):
    """Inverse of parse_manifest for the structural content."""
    layers = []
    for l in graph.layers:
        entry = {"id": l.id, "kind": l.kind, "pred": list(l.preds)}
        if l.kind == "input":
            entry["shape"] = list(l.shape)
        elif l.kind == "conv":
            entry.update(out_channels=l.out_channels, kernel=list(l.kernel),
                         stride=list(l.stride), padding=list(l.padding),
                         bias=l.has_bias, batch_norm=l.has_bn, epsilon=l.epsilon)
        elif l.kind == "fc":
            entry.update(out_features=l.out_channels, bias=l.has_bias,
                         batch_norm=l.has_bn, epsilon=l.epsilon)
        elif l.kind == "avg_pool":
            entry["window"] = l.window
        elif l.kind == "qcfs_act":
            entry.update(L=l.qcfs.L, theta=l.qcfs.theta)
        layers.append(entry)
    doc = {"name": graph.name, "classes": graph.classes, "layers": layers}
    if graph.seed is not None:
        doc["seed"] = graph.seed
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# weight blobs
#
# One little-endian float32 blob per weighted layer, named <layer_id>.f32.
# Blob layout, in order: the weight tensor (row-major in its declared
# shape), then bias (C_out) if bias is set, then gamma, beta, mean and
# variance (C_out each) if batch_norm is set.


def _weight_fields(layer):
    fields = [("weight", layer.weight_shape())]
    if layer.has_bias:
        fields.append(("bias", (layer.out_channels,)))
    if layer.has_bn:
        fields += [(name, (layer.out_channels,)) for name in
                   ("gamma", "beta", "mu", "sigma_sq")]
    return fields


def load_weights(graph, blob_dir):
    """Load per-layer .f32 blobs, verifying element counts and finiteness."""
    blob_dir = Path(blob_dir)
    weights = {}
    for layer in graph.matmul_layers():
        path = blob_dir / f"{layer.id}.f32"
        if not path.exists():
            _fail(layer.id, f"missing weight blob {path}")
        raw = np.fromfile(path, dtype="<f4")
        fields = _weight_fields(layer)
        expected = sum(int(np.prod(shape)) for _, shape in fields)
        if raw.size != expected:
            _fail(layer.id, f"weight blob has {raw.size} elements, expected {expected}")
        if not np.isfinite(raw).all():
            _fail(layer.id, "weight blob contains non-finite values")
        offset = 0
        arrays = {}
        for name, shape in fields:
            count = int(np.prod(shape))
            arrays[name] = raw[offset:offset + count].reshape(shape).copy()
            offset += count
        weights[layer.id] = arrays
    return graph.with_weights(weights)


def save_weights(graph, blob_dir):
    """Write one .f32 blob per weighted layer (inverse of load_weights)."""
    blob_dir = Path(blob_dir)
    blob_dir.mkdir(parents=True, exist_ok=True)
    for layer in graph.matmul_layers():
        arrays = graph.weights[layer.id]
        parts = [np.asarray(arrays[name], dtype="<f4").ravel()
                 for name, _ in _weight_fields(layer)]
        np.concatenate(parts).tofile(blob_dir / f"{layer.id}.f32")


# Values per uniform draw in init_random: bounds the float64 temporary.
_DRAW_CHUNK = 1 << 20


def init_random(graph, seed):
    """Seeded random weights: uniform [-r, r] with r = sqrt(1/fan_in).

    Uses numpy's PCG64 generator; layers are visited in graph order and
    fields are drawn in blob order, so a given (graph, seed) pair always
    produces bit-identical float32 weights. Batch-norm fields use fixed
    generic ranges: gamma in [0.5, 1.5], beta and mean in [-0.5, 0.5],
    variance in [0.25, 1.0]. A field is drawn in chunks of _DRAW_CHUNK
    values straight into its float32 array; uniform draws consume the
    stream one value at a time, so the chunks give the bytes of one draw.
    """
    rng = np.random.default_rng(np.uint64(seed))
    weights = {}
    for layer in graph.matmul_layers():
        fan_in = layer.in_channels if layer.kind == "fc" else (
            layer.in_channels * layer.kernel[0] * layer.kernel[1])
        r = float(np.sqrt(1.0 / fan_in))
        arrays = {}
        for name, shape in _weight_fields(layer):
            if name == "weight" or name == "bias":
                low, high = -r, r
            elif name == "gamma":
                low, high = 0.5, 1.5
            elif name == "sigma_sq":
                low, high = 0.25, 1.0
            else:  # beta, mu
                low, high = -0.5, 0.5
            arrays[name] = np.empty(shape, dtype=np.float32)
            flat = arrays[name].reshape(-1)
            for lo in range(0, flat.size, _DRAW_CHUNK):
                flat[lo:lo + _DRAW_CHUNK] = rng.uniform(
                    low, high, size=min(_DRAW_CHUNK, flat.size - lo))
        weights[layer.id] = arrays
    return graph.with_weights(weights)


# ---------------------------------------------------------------------------
# typed views used by the execution paths
#
# Each view is built once per graph, on first use, and kept in the graph's
# private cache; every later pass gets the same objects. Their arrays are
# float64 copies of the stored weights with writing disabled, so a view can
# never alias a caller's array. Two threads that miss at the same time both
# build identical views and keep whichever setdefault stored first.


def _view(graph, kind, layer, build):
    key = (kind, layer.id)
    try:
        return graph._views[key]
    except KeyError:
        return graph._views.setdefault(key, build())


def _float64(array):
    out = np.array(array, dtype=np.float64)     # always a copy
    out.flags.writeable = False
    return out


def conv_params(graph, layer):
    return _view(graph, "conv", layer, lambda: ConvParams(
        weights=_float64(graph.weights[layer.id]["weight"]),
        stride=layer.stride, padding=layer.padding))


def fc_weights(graph, layer):
    return _view(graph, "fc", layer, lambda: _float64(graph.weights[layer.id]["weight"]))


def layer_affine(graph, layer):
    """BnAffine for a matmul layer, or None when it has neither bias nor BN."""
    return _view(graph, "affine", layer, lambda: _build_affine(graph, layer))


def _build_affine(graph, layer):
    arrays = graph.weights[layer.id]
    if not layer.has_bias and not layer.has_bn:
        return None
    c = layer.out_channels
    bias = _float64(arrays["bias"]) if layer.has_bias else _float64(np.zeros(c))
    if layer.has_bn:
        return BnAffine(
            gamma=_float64(arrays["gamma"]),
            beta=_float64(arrays["beta"]),
            mu=_float64(arrays["mu"]),
            sigma_sq=_float64(arrays["sigma_sq"]),
            bias=bias,
            epsilon=layer.epsilon,
        )
    affine = BnAffine.bias_only(bias, epsilon=layer.epsilon)
    for array in (affine.gamma, affine.beta, affine.mu, affine.sigma_sq):
        array.flags.writeable = False
    return affine
