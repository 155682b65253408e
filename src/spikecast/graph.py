"""Model graphs: manifest parsing, validation, weight I/O and seeded init.

A model is described by a JSON manifest (see docs/manifest_format.md) plus
one raw float32 blob per weighted layer. The graph is an ordered DAG with a
single input and a single output. Batch-norm is written on the conv/fc it
follows (``batch_norm``, ``epsilon``); a standalone ``bn_affine`` layer is
rejected. Every field is type-checked at parse time, never coerced, and a
malformed one fails with a GraphError that names its layer.

Graph order is the manifest's layer order wherever that order is
topological: each step takes the first listed layer whose predecessors have
all been taken, so a layer moves only as far as its predecessors require.
Graph order fixes the order of init_random's draws, how an ``energy --L``
vector maps onto layers, the order of report rows, and the layer order of a
converted bundle's manifest.json. One walk in graph order (_built) infers
every layer's shapes and its LayerSpec.source.

Graphs are immutable after construction (nothing here mutates a parsed
graph in place); concurrent readers are safe.

A graph stores each weight field once, as a read-only float64 array
(about 270 MB for VGG-16/CIFAR), and both passes read those very arrays.
Blob values are float32, so the widening is exact. Construction keeps an
array that is already read-only float64 and owns its data, and copies
anything else, so a caller's arrays are never frozen or shared. Weights
that miss a field a matmul layer declares raise a GraphError naming both.
"""

import json
import sys
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
    """A layer as declared, plus in_shape, out_shape and source from the shape
    walk. source is the activation whose train the layer's value carries: an
    activation's own id, else its first predecessor's source (None on the
    real-valued branch from the input). serialize_manifest does not write it."""

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
    # filled in by the shape walk
    in_shape: tuple = ()
    out_shape: tuple = ()
    source: str = None

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

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {l.id: l for l in self.layers})
        object.__setattr__(self, "weights", {
            lid: {name: _stored(a) for name, a in arrays.items()}
            for lid, arrays in self.weights.items()})
        for layer in self.matmul_layers() if self.weights else ():
            missing = [f for f in _field_names(layer) if f not in self.weights.get(layer.id, {})]
            if missing:
                _fail(layer.id, f"missing weight field {', '.join(map(repr, missing))}")

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


def _stored(array):
    """array as a read-only float64 array that nothing else can write."""
    if (isinstance(array, np.ndarray) and array.dtype == np.float64
            and not array.flags.writeable and array.flags.owndata):
        return array
    return _frozen(np.array(array, dtype=np.float64))


def _frozen(array):
    array.flags.writeable = False
    return array


# ---------------------------------------------------------------------------
# parsing


def _is_int(value):
    return type(value) is int       # a JSON true parses as a bool, not an int


def _real(value, layer_id, name):
    # the comparisons are exact for ints and false for NaN
    if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
        _fail(layer_id, f"field '{name}' must be a finite positive number, got {json.dumps(value)}")
    return float(value)


def _flag(value, layer_id, name):
    if type(value) is not bool:
        _fail(layer_id, f"field '{name}' must be true or false, got {json.dumps(value)}")
    return value


def _as_pair(value, layer_id, name, low):
    pair = [value, value] if _is_int(value) else value
    if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
        _fail(layer_id, f"field '{name}' must be an int or a pair, got {json.dumps(value)}")
    if min(pair) < low:
        _fail(layer_id, f"field '{name}' must be >= {low}, got {value}")
    return tuple(pair)


def _positive(entry, layer_id, name):
    if name not in entry:
        _fail(layer_id, f"'{entry['kind']}' layer needs '{name}'")
    value = entry[name]
    if not _is_int(value):
        _fail(layer_id, f"field '{name}' must be an integer, got {json.dumps(value)}")
    if value < 1:
        _fail(layer_id, f"field '{name}' must be positive, got {value}")
    return value


def _parse_layer(entry):
    if not isinstance(entry, dict) or "id" not in entry or "kind" not in entry:
        raise GraphError("every layer entry needs 'id' and 'kind' fields")
    lid = entry["id"]
    kind = entry["kind"]
    if not isinstance(lid, str):
        raise GraphError(f"layer id must be a string, got {json.dumps(lid)}")
    preds = entry.get("pred", [])
    if not (isinstance(preds, list) and all(isinstance(p, str) for p in preds)):
        _fail(lid, f"field 'pred' must be a list of layer ids, got {json.dumps(preds)}")
    preds = tuple(preds)
    if kind == "input":
        shape = entry.get("shape")
        if not (isinstance(shape, list) and len(shape) == 3 and all(map(_is_int, shape))):
            _fail(lid, "input layer needs 'shape': [C, H, W]")
        shape = tuple(shape)
        if min(shape) < 1:
            _fail(lid, f"input shape must be positive, got {list(shape)}")
        return LayerSpec(lid, kind, preds, shape=shape)
    if kind in MATMUL_KINDS:
        conv = kind == "conv"
        return LayerSpec(
            lid, kind, preds,
            out_channels=_positive(entry, lid, "out_channels" if conv else "out_features"),
            kernel=_as_pair(entry.get("kernel", 1), lid, "kernel", 1) if conv else (1, 1),
            stride=_as_pair(entry.get("stride", 1), lid, "stride", 1) if conv else (1, 1),
            padding=_as_pair(entry.get("padding", 0), lid, "padding", 0) if conv else (0, 0),
            has_bias=_flag(entry.get("bias", False), lid, "bias"),
            has_bn=_flag(entry.get("batch_norm", False), lid, "batch_norm"),
            epsilon=_real(entry.get("epsilon", 1e-5), lid, "epsilon"),
        )
    if kind == "avg_pool":
        return LayerSpec(lid, kind, preds, window=_positive(entry, lid, "window"))
    if kind == "max_pool":
        _fail(lid, "unsupported nonlinearity (max_pool): a max does not commute with "
                   "the timestep sum, so it has no exact spiking counterpart")
    if kind == "bn_affine":
        _fail(lid, "standalone bn_affine is not supported: set 'batch_norm' (and "
                   "'epsilon') on the conv/fc it follows")
    if kind == "qcfs_act":
        if "L" not in entry or "theta" not in entry:
            _fail(lid, "activation layer needs 'L' and 'theta'")
        L, theta = _positive(entry, lid, "L"), _real(entry["theta"], lid, "theta")
        # the spike value theta / L is a normal float, so distinct spike
        # counts give distinct values, and a 2 x 2 pool's sums of up to
        # four spike values, 4 * theta / L at most, stay finite
        if theta / L < sys.float_info.min:
            _fail(lid, f"theta / L = {theta / L!r} is below the smallest normal float")
        if theta > sys.float_info.max / 4:
            _fail(lid, f"theta = {theta!r} exceeds the largest float / 4")
        return LayerSpec(lid, kind, preds, qcfs=QcfsConfig(L=L, theta=theta))
    if kind == "residual_add":
        return LayerSpec(lid, kind, preds)
    _fail(lid, f"unknown layer kind '{kind}'")


def _ordered(layers):
    """The layers in a topological order that keeps the declared one where it can.

    Each step places the first layer, in declared order, whose predecessors
    are all placed. So a layer moves only as far as its predecessors
    require, and a list that is already topological keeps its order.
    """
    ids = set()
    for layer in layers:
        if layer.id in ids:
            _fail(layer.id, "duplicate layer id")
        ids.add(layer.id)
    for layer in layers:
        for p in layer.preds:
            if p not in ids:
                _fail(layer.id, f"dangling predecessor '{p}'")
    pending, order, placed = list(layers), [], set()
    while pending:
        i = next((i for i, l in enumerate(pending) if placed.issuperset(l.preds)), None)
        if i is None:
            cyclic = sorted(l.id for l in pending)
            raise GraphError(f"graph contains a cycle through: {', '.join(cyclic)}")
        order.append(pending.pop(i))
        placed.add(order[-1].id)
    return order


def _built(order):
    """Check the input and output counts, then walk the ordered layers once:
    apply each kind's predecessor rules, infer (C, H, W) / (F,) shapes and
    follow each layer's source back through its first predecessor."""
    inputs = [l for l in order if l.kind == "input"]
    if len(inputs) != 1:
        raise GraphError(f"graph must have exactly one input layer, found {len(inputs)}")
    if inputs[0].preds:
        _fail(inputs[0].id, "input layer cannot have predecessors")
    used = {p for l in order for p in l.preds}
    sinks = [l.id for l in order if l.id not in used]
    if len(sinks) != 1:
        raise GraphError("graph must have exactly one output layer, found " + ", ".join(sinks))
    built = {}
    for layer in order:
        preds = layer.preds
        if layer.kind == "residual_add":
            if len(preds) != 2:
                _fail(layer.id, f"residual_add arity: needs exactly 2 predecessors, "
                                f"got {len(preds)}")
        elif layer.kind == "qcfs_act":
            if len(preds) != 1:
                _fail(layer.id, "activation needs exactly one predecessor")
            pred_kind = built[preds[0]].kind
            if pred_kind not in MATMUL_KINDS and pred_kind != "residual_add":
                _fail(layer.id, f"activation must directly follow a matmul or "
                                f"residual_add layer, not '{pred_kind}'")
        elif layer.kind != "input" and len(preds) != 1:
            _fail(layer.id, f"'{layer.kind}' needs exactly one predecessor")
        pred_shapes = [built[p].out_shape for p in preds]
        in_shape = pred_shapes[0] if preds else layer.shape
        out_shape = in_shape
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
        elif layer.kind == "residual_add" and pred_shapes[0] != pred_shapes[1]:
            _fail(layer.id, f"residual_add branch shapes differ: "
                            f"{pred_shapes[0]} vs {pred_shapes[1]}")
        source = layer.id if layer.kind == "qcfs_act" else (
            built[preds[0]].source if preds else None)
        built[layer.id] = replace(layer, in_shape=in_shape, out_shape=out_shape, source=source)
    return tuple(built.values())


def parse_manifest(text):
    """Parse and validate a manifest JSON document into a weightless graph
    with at least one conv or fc layer."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"manifest is not valid JSON: {exc}") from exc
    for fld, kind, want in (("name", str, "a string"), ("classes", int, "an integer"),
                            ("layers", list, "a list")):
        if not isinstance(doc, dict) or fld not in doc:
            raise GraphError(f"manifest is missing required field '{fld}'")
        if type(doc[fld]) is not kind:
            raise GraphError(f"manifest field '{fld}' must be {want}, got {json.dumps(doc[fld])}")
    layers = _built(_ordered([_parse_layer(e) for e in doc["layers"]]))
    graph = ModelGraph(doc["name"], doc["classes"], layers)
    if not graph.matmul_layers():
        raise GraphError(f"model '{graph.name}' has no conv or fc layer")
    out = graph.output_layer.out_shape
    if int(np.prod(out)) != graph.classes:
        _fail(graph.output_layer.id,
              f"output size {int(np.prod(out))} does not match class count {graph.classes}")
    return graph


def serialize_manifest(graph):
    """Inverse of parse_manifest for the structural content.

    epsilon is written only on a layer with batch_norm, the one place it is
    read, and the manifest's top-level keys are name, classes and layers.
    """
    layers = []
    for l in graph.layers:
        entry = {"id": l.id, "kind": l.kind, "pred": list(l.preds)}
        if l.kind == "input":
            entry["shape"] = list(l.shape)
        elif l.kind == "conv":
            entry.update(out_channels=l.out_channels, kernel=list(l.kernel),
                         stride=list(l.stride), padding=list(l.padding))
        elif l.kind == "fc":
            entry["out_features"] = l.out_channels
        elif l.kind == "avg_pool":
            entry["window"] = l.window
        elif l.kind == "qcfs_act":
            entry.update(L=l.qcfs.L, theta=l.qcfs.theta)
        if l.is_matmul:
            entry.update(bias=l.has_bias, batch_norm=l.has_bn)
            if l.has_bn:
                entry["epsilon"] = l.epsilon
        layers.append(entry)
    doc = {"name": graph.name, "classes": graph.classes, "layers": layers}
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# weight blobs
#
# One little-endian float32 blob per weighted layer, named <layer_id>.f32.
# Blob layout, in order: the weight tensor (row-major in its declared
# shape), then bias (C_out) if bias is set, then gamma, beta, mean and
# variance (C_out each) if batch_norm is set.


def _field_names(layer):
    """The weight fields a matmul layer declares, in blob order."""
    return (("weight",) + ("bias",) * layer.has_bias
            + ("gamma", "beta", "mu", "sigma_sq") * layer.has_bn)


def _weight_fields(layer):
    return [(name, layer.weight_shape() if name == "weight" else (layer.out_channels,))
            for name in _field_names(layer)]


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
            arrays[name] = _frozen(raw[offset:offset + count].reshape(shape)
                                   .astype(np.float64))
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


# Values per uniform draw in init_random; small enough that a chunk's
# float64 draw and its float32 rounding stay in cache.
_DRAW_CHUNK = 1 << 16


def init_random(graph, seed):
    """Seeded random weights: uniform [-r, r] with r = sqrt(1/fan_in).

    Uses numpy's PCG64 generator; layers are visited in graph order and
    fields are drawn in blob order, so a given (graph, seed) pair always
    produces bit-identical weights: rng.uniform(low, high, size) rounded to
    float32, as a blob holds it, and stored as float64. Batch-norm fields
    use fixed generic ranges: gamma in [0.5, 1.5], beta and mean in
    [-0.5, 0.5], variance in [0.25, 1.0]. A field is drawn in chunks of
    _DRAW_CHUNK values straight into its float64 array with uniform's own
    formula, low + (high - low) * next double, one stream value per draw;
    each chunk is then rounded through a float32 buffer.
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
            field = np.empty(shape)
            flat = field.reshape(-1)
            rounded = np.empty(min(flat.size, _DRAW_CHUNK), dtype=np.float32)
            for lo in range(0, flat.size, _DRAW_CHUNK):
                part, buf = flat[lo:lo + _DRAW_CHUNK], rounded[:flat.size - lo]
                rng.random(out=part)
                part *= high - low
                part += low
                buf[...] = part
                part[...] = buf
            arrays[name] = _frozen(field)
        weights[layer.id] = arrays
    return graph.with_weights(weights)


# ---------------------------------------------------------------------------
# typed records used by the execution paths; they wrap the stored arrays


def conv_params(graph, layer):
    return ConvParams(weights=graph.weights[layer.id]["weight"],
                      stride=layer.stride, padding=layer.padding)


def layer_affine(graph, layer):
    """BnAffine for a matmul layer, or None when it has neither bias nor BN."""
    if not layer.has_bias and not layer.has_bn:
        return None
    arrays = graph.weights[layer.id]
    bias = arrays["bias"] if layer.has_bias else np.zeros(layer.out_channels)
    if layer.has_bn:
        return BnAffine(gamma=arrays["gamma"], beta=arrays["beta"], mu=arrays["mu"],
                        sigma_sq=arrays["sigma_sq"], bias=bias, epsilon=layer.epsilon)
    return BnAffine.bias_only(bias)
