"""Spans around spikecast's public functions, for the traced run.

Each traced function is replaced, for the life of the process, by a wrapper
at every module attribute its callers look it up by (``runtime`` binds
``graph.conv_params`` and ``reference.ann_forward`` under its own names, so
those bindings are wrapped too). A wrapper records a span: name, start,
end, parent, plus counts computed from argument and result shapes. Spans
are kept in memory and only while the tracer is active.
"""

import weakref
from time import perf_counter

import numpy as np

# (module, attribute, span name); the span name is where the function lives
TRACED = [
    ("kernels", "conv2d", "kernels.conv2d"),
    ("kernels", "fully_connected", "kernels.fully_connected"),
    ("kernels", "fused_bn_affine", "kernels.fused_bn_affine"),
    ("kernels", "avg_pool2d", "kernels.avg_pool2d"),
    ("graph", "parse_manifest", "graph.parse_manifest"),
    ("graph", "init_random", "graph.init_random"),
    ("reference", "conv_params", "graph.conv_params"),
    ("reference", "fc_weights", "graph.fc_weights"),
    ("reference", "layer_affine", "graph.layer_affine"),
    ("runtime", "conv_params", "graph.conv_params"),
    ("runtime", "fc_weights", "graph.fc_weights"),
    ("runtime", "layer_affine", "graph.layer_affine"),
    ("reference", "ann_forward", "reference.ann_forward"),
    ("runtime", "ann_forward", "reference.ann_forward"),
    ("reference", "qcfs", "reference.qcfs"),
    ("reference", "level_counts", "reference.level_counts"),
    ("runtime", "convert", "runtime.convert"),
    ("runtime", "snn_forward", "runtime.snn_forward"),
    ("runtime", "unrolled_matmul", "runtime.unrolled_matmul"),
    ("runtime", "unrolled_avg_pool", "runtime.unrolled_avg_pool"),
    ("runtime", "if_generic_layer", "runtime.if_generic_layer"),
    ("runtime", "if_input_layer", "runtime.if_input_layer"),
    ("runtime", "check_equivalence", "runtime.check_equivalence"),
    ("sensitivity", "analyze_trace", "sensitivity.analyze_trace"),
    ("sensitivity", "cluster_1d", "sensitivity.cluster_1d"),
    ("energy", "build_report", "energy.build_report"),
]

WEIGHT_VIEWS = ("graph.conv_params", "graph.fc_weights", "graph.layer_affine")
SELF_MS = [name for name in dict.fromkeys(n for _, _, n in TRACED)
           if name not in WEIGHT_VIEWS] + ["runtime.SpikeTrain.dense"]


def _conv_counts(args, out):
    x, params = args[0], args[1]
    c_in = x.shape[1]
    k_h, k_w = params.weights.shape[2:]
    rows = out.shape[0] * out.shape[2] * out.shape[3]
    return {"rows_in": x.shape[0], "patch_rows": rows,
            "macs": rows * c_in * k_h * k_w * out.shape[1],
            "im2col_bytes": rows * c_in * k_h * k_w * x.itemsize}


def _fc_counts(args, out):
    return {"rows_in": args[0].shape[0], "macs": out.size * args[1].shape[1]}


def _snn_counts(args, out):
    totals = {"neuron_steps": 0, "stage1_spikes": 0, "stage2_excitatory": 0,
              "stage2_inhibitory": 0, "emitted_spikes": 0, "elements": 0}
    for st in out[1].values():
        totals["neuron_steps"] += st.elements * (st.stage_steps[0] + st.stage_steps[1])
        totals["stage1_spikes"] += st.stage1_spikes
        totals["stage2_excitatory"] += st.stage2_excitatory
        totals["stage2_inhibitory"] += st.stage2_inhibitory
        totals["emitted_spikes"] += st.emitted_spikes
        totals["elements"] += st.elements
    return totals


class Tracer:
    """In-memory span recorder; ``install`` wraps the traced functions."""

    def __init__(self):
        self.active = False
        self.spans = []          # [name, start, end, parent index, counts]
        self._stack = []
        self._seen = weakref.WeakValueDictionary()   # weight arrays handed out

    def _cast_counts(self, args, out):
        arrays = [out.weights] if hasattr(out, "weights") else (
            [out] if isinstance(out, np.ndarray) else
            [] if out is None else [out.gamma, out.beta, out.mu, out.sigma_sq, out.bias])
        fresh = 0
        for arr in arrays:
            if self._seen.get(id(arr)) is not arr:
                self._seen[id(arr)] = arr
                fresh += arr.nbytes
        return {"cast_bytes": fresh}

    def wrap(self, name, fn):
        counter = {"kernels.conv2d": _conv_counts, "kernels.fully_connected": _fc_counts,
                   "runtime.snn_forward": _snn_counts}.get(name)
        if name in WEIGHT_VIEWS:
            counter = self._cast_counts

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                span[4] = counter(args, out)
            return out

        return traced

    def install(self, spikecast):
        for module, attr, name in TRACED:
            mod = getattr(spikecast, module)
            fn = getattr(mod, attr, None)
            if fn is not None:
                setattr(mod, attr, self.wrap(name, fn))
        train = spikecast.runtime.SpikeTrain
        train.dense = self.wrap("runtime.SpikeTrain.dense", train.dense)

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def self_times(spans):
    """{span name: summed self time in s}; self = duration - direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    out = {}
    for s, t in zip(spans, own):
        out[s[0]] = out.get(s[0], 0.0) + t
    return out


def counts(spans, name, key):
    return sum(s[4][key] for s in spans if s[0] == name and s[4])


def op_metrics(spans):
    """Per-layer metrics of one op, from its spans."""
    own = self_times(spans)
    m = {f"{name}.self_ms": 1e3 * own.get(name, 0.0) for name in SELF_MS}
    m["graph.weight_views.self_ms"] = 1e3 * sum(own.get(n, 0.0) for n in WEIGHT_VIEWS)
    m["graph.weight_views.cast_mb"] = 1e-6 * sum(counts(spans, n, "cast_bytes")
                                                 for n in WEIGHT_VIEWS)
    conv_s = own.get("kernels.conv2d", 0.0)
    m["kernels.conv2d.calls"] = sum(1 for s in spans if s[0] == "kernels.conv2d")
    m["kernels.conv2d.patch_rows"] = counts(spans, "kernels.conv2d", "patch_rows")
    m["kernels.conv2d.macs"] = counts(spans, "kernels.conv2d", "macs")
    m["kernels.conv2d.mac_per_s"] = m["kernels.conv2d.macs"] / conv_s if conv_s else 0.0
    m["kernels.conv2d.im2col_mb"] = 1e-6 * counts(spans, "kernels.conv2d", "im2col_bytes")
    for key in ("neuron_steps", "stage1_spikes", "stage2_excitatory",
                "stage2_inhibitory", "emitted_spikes"):
        m[f"runtime.{key}"] = counts(spans, "runtime.snn_forward", key)
    elements = counts(spans, "runtime.snn_forward", "elements")
    m["runtime.spike_rate"] = m["runtime.emitted_spikes"] / elements if elements else 0.0
    ann = [s[2] - s[1] for s in spans if s[0] == "reference.ann_forward"]
    snn = [s[2] - s[1] for s in spans if s[0] == "runtime.snn_forward"]
    m["energy.measured_snn_over_ann"] = (
        (sum(snn) / len(snn)) / (sum(ann) / len(ann)) if ann and snn else 0.0)
    return m


# ---------------------------------------------------------------------------
# per-network-layer attribution of one forward pass

_KIND = {
    "graph.conv_params": "mm", "graph.fc_weights": "mm", "graph.layer_affine": "mm",
    "kernels.conv2d": "mm", "kernels.fully_connected": "mm",
    "kernels.fused_bn_affine": "mm", "runtime.unrolled_matmul": "mm",
    "reference.qcfs": "act", "reference.level_counts": "act",
    "runtime.if_input_layer": "act", "runtime.if_generic_layer": "act",
    "kernels.avg_pool2d": "pool", "runtime.unrolled_avg_pool": "pool",
}
_LAYER_KIND = {"conv": "mm", "fc": "mm", "qcfs_act": "act", "avg_pool": "pool"}


def per_network_layer(graph, spans, root):
    """{layer id: (seconds, kernel rows in, kernel seconds)} for one pass.

    The direct children of span ``root`` are walked in order and given to
    network layers in graph order: a child of another layer kind than the
    current layer's opens the next layer of that kind. This holds for nets
    where no two consecutive layers share a kind, as in VGG-16.
    """
    layers = [l for l in graph.layers if l.kind in _LAYER_KIND]
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    out, cur = {}, -1
    for i in children.get(root, []):
        kind = _KIND.get(spans[i][0])
        if kind is not None and (cur < 0 or _LAYER_KIND[layers[cur].kind] != kind):
            cur = next(j for j in range(cur + 1, len(layers))
                       if _LAYER_KIND[layers[j].kind] == kind)
        if cur < 0:
            continue
        secs, rows, ksecs = out.get(layers[cur].id, (0.0, 0, 0.0))
        secs += spans[i][2] - spans[i][1]
        stack = [i]
        while stack:
            j = stack.pop()
            if spans[j][0] in ("kernels.conv2d", "kernels.fully_connected"):
                rows += spans[j][4]["rows_in"]
                ksecs += spans[j][2] - spans[j][1]
            stack.extend(children.get(j, []))
        out[layers[cur].id] = (secs, rows, ksecs)
    return out
