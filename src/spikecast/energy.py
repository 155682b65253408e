"""Analytic operation counts and energy accounting.

Multiply-accumulate (MAC) counts follow the standard formulas

    conv: C_in * C_out * K_h * K_w * H_out * W_out        fc: C_in * C_out

A converted spiking network replaces MACs with accumulates (ACs) gated by
incoming spikes, so AC = MAC * spike_rate, where spike_rate is the total
spikes per neuron summed over all timesteps. The first layer is the
exception: it consumes the real-valued image and still performs MACs.
Threshold scaling adds C_out * H_out * W_out * spike_rate multiplies per
conv (C_out * spike_rate per fc); they are tracked separately and excluded
from the headline energy ratio, whose formula uses only MAC/AC counts.

The staged integrate-and-fire layer performs 5L - 2 per-neuron operations
(3L - 1 threshold/soft-reset steps plus 2L - 1 counter updates) where a
plain one runs L, giving the per-layer overhead ratio

    r_E = (1 + (5L - 2) * r') / (1 + L * r'),   r' = 1 / (C_in*K_h*K_w*rate)

(fc: r' = 1 / (C_in * rate)). The overhead-weighted timestep counts are

    T_norm = mean_l(r_E^l) * T          (uniform quantization step)
    T_eff  = mean_l(r_E^l * T^l)        (layerwise steps, T^l = L^l)

averaged over all matmul layers, with the default rate assumption 0.75
(ASSUMED_SPIKE_RATE).

For the aggregate overhead ratio the integrate-and-fire work is costed as
narrow integer additions (int8 add energy): the membrane and counter
updates are threshold-unit compare/add steps, not wide float
accumulations. Costing them at the full float32 add rate would be an
overestimate (it would put the aggregate overhead near 1.6% for a typical
16-layer conv stack instead of the observed ~0.1%).

Energy-per-operation constants (45nm CMOS):

    fp32: add 0.9 pJ, mul 3.7 pJ, mac 4.6 pJ
    int8: add 0.03 pJ, mul 0.2 pJ, mac 0.23 pJ

Layer geometry comes from a model graph (dims_from_graph), and every named
architecture is a spikecast.zoo manifest: VGG-16 at 32 or 224 pixels, and
ResNet-18/CIFAR and ResNet-34/ImageNet from one ResNet builder. Manifests
require exact conv tiling, so the ResNet builder downsamples with a
window-2 average pool ahead of a stride-1 conv instead of a stride-2 conv.
A conv's count depends only on its C_in, C_out, kernel and output size,
which the two forms share, so every row equals the standard net's. Only the
ResNet-18/CIFAR golden rows are kept as literal data (see
RESNET18_CIFAR_GOLDEN).
"""

from dataclasses import dataclass

import numpy as np

from . import zoo
from .graph import parse_manifest
from .runtime import timestep_map


class EnergyModelError(ValueError):
    pass


@dataclass(frozen=True)
class EnergyCost:
    add: float
    mul: float
    mac: float


ENERGY = {
    "fp32": EnergyCost(add=0.9, mul=3.7, mac=4.6),
    "int8": EnergyCost(add=0.03, mul=0.2, mac=0.23),
}

# Total spikes per neuron assumed where no rate is measured or given.
ASSUMED_SPIKE_RATE = 0.75


@dataclass(frozen=True)
class MatMulDims:
    """Geometry of one matmul layer, enough for op counting."""

    name: str
    kind: str                  # "conv" | "fc"
    c_in: int
    c_out: int
    k_h: int = 1
    k_w: int = 1
    h_out: int = 1
    w_out: int = 1
    paired: bool = True        # feeds an activation layer downstream

    @property
    def macs(self):
        return self.c_in * self.c_out * self.k_h * self.k_w * self.h_out * self.w_out

    @property
    def if_units(self):
        """Per-timestep accumulate count of the downstream IF layer."""
        return self.c_out * self.h_out * self.w_out

    @property
    def fan_ops(self):
        return self.c_in * self.k_h * self.k_w


@dataclass(frozen=True)
class OpCount:
    macs: int = 0
    acs: float = 0.0
    threshold_mults: float = 0.0


def op_counts(dims, mode, spike_rate=None, first_layer=False):
    """Operation counts for one layer in 'ann' or 'snn' mode."""
    if not isinstance(dims, MatMulDims):
        raise EnergyModelError(f"unknown layer kind: {dims!r}")
    if mode == "ann":
        return OpCount(macs=dims.macs)
    if mode == "snn":
        if first_layer:
            return OpCount(macs=dims.macs)
        if spike_rate is None or spike_rate < 0:
            raise EnergyModelError("snn mode needs a non-negative spike rate")
        return OpCount(acs=dims.macs * spike_rate,
                       threshold_mults=dims.if_units * spike_rate)
    raise EnergyModelError(f"unknown mode '{mode}'")


def r_prime(dims, spike_rate):
    """Ratio of per-timestep IF accumulates to total matmul accumulates."""
    if not spike_rate > 0:
        raise EnergyModelError("spike rate must be positive for the op ratio")
    return 1.0 / (dims.fan_ops * spike_rate)


def r_e_layer(L, rp):
    """Per-layer overhead of the staged IF: (1 + (5L-2) r') / (1 + L r')."""
    if L < 1:
        raise EnergyModelError(f"quantization step must be >= 1, got {L}")
    if rp < 0:
        raise EnergyModelError("op ratio must be non-negative")
    return (1.0 + (5 * L - 2) * rp) / (1.0 + L * rp)


def _step_vector(layers, l_steps):
    """l_steps as one step per matmul layer: a uniform int is broadcast, a
    vector must have one entry per layer."""
    if isinstance(l_steps, (int, np.integer)):
        return [int(l_steps)] * len(layers)
    if len(l_steps) != len(layers):
        raise EnergyModelError(
            f"step vector has {len(l_steps)} entries for {len(layers)} matmul layers")
    return list(l_steps)


def t_norm(layers, T, spike_rate=ASSUMED_SPIKE_RATE):
    """Overhead-weighted timestep count at a uniform quantization step.

    Defined as t_eff with the uniform step vector, so the two collapse to
    the same value exactly.
    """
    if not layers:
        raise EnergyModelError("no matmul layers to average over")
    return t_eff(layers, [T] * len(layers), spike_rate)


def t_eff(layers, l_vector, spike_rate=ASSUMED_SPIKE_RATE):
    """Overhead-weighted timestep count with layerwise steps T^l = L^l."""
    terms = [r_e_layer(L, r_prime(d, spike_rate)) * L
             for d, L in zip(layers, _step_vector(layers, l_vector))]
    return float(np.mean(terms))


def ann_snn_energy_ratio(a, b, c, precision="fp32"):
    """Energy_ANN / Energy_SNN from normalized op counts.

    a: normalized ANN ops (1.0), b: normalized SNN ops (the mean spike
    rate), c: fraction of total ops performed by the MAC-bound first
    layer.
    """
    if a <= 0 or b <= 0:
        raise EnergyModelError("op counts must be positive")
    if not 0.0 <= c <= 1.0:
        raise EnergyModelError("first-layer fraction must lie in [0, 1]")
    e = ENERGY[precision]
    denom = c * e.mac + (1.0 - c) * b * e.add
    if denom == 0:
        raise EnergyModelError("zero denominator in energy ratio")
    return a * e.mac / denom


def overall_r_e(layers, l_steps, spike_rate=ASSUMED_SPIKE_RATE):
    """Aggregate staged-vs-plain spiking energy ratio.

    Sums per-layer accumulate energy plus (5L-2) (staged) or L (plain)
    per-timestep IF unit energies. l_steps is a uniform int or a per-matmul
    vector. The first layer is costed as fp32 MACs, the other matmul
    accumulates as fp32 adds and IF updates as int8 adds (see module
    docstring).
    """
    if not layers:
        raise EnergyModelError("empty model")
    num = den = 0.0
    for i, (d, L) in enumerate(zip(layers, _step_vector(layers, l_steps))):
        if i == 0:
            e_ac = d.macs * ENERGY["fp32"].mac
        else:
            e_ac = d.macs * spike_rate * ENERGY["fp32"].add
        e_if = d.if_units * ENERGY["int8"].add
        num += e_ac + (5 * L - 2) * e_if
        den += e_ac + L * e_if
    return num / den


# ---------------------------------------------------------------------------
# geometry from graphs


def dims_from_graph(graph, act_steps=None):
    """Per-matmul geometry, step and source activation, in graph order.

    Returns three aligned lists: MatMulDims, steps and source ids. A matmul
    is paired with the activation it feeds, directly or through residual
    adds of which it is the first predecessor, so a block's second conv is
    paired and its projection shortcut is not. Its source is LayerSpec.source,
    the activation whose train it consumes, followed back through pools and
    residual adds by their first predecessor, or None where it consumes the
    image. Its step is the L of the activation it feeds, or else of its
    source (1 on the image). act_steps, {activation id: L}, overrides the manifest's L.
    Needs no weights; raises ConversionError where runtime.timestep_map does.
    """
    timestep_map(graph)     # rejects residual merges of unequal timestep counts
    steps_of = {l.id: l.qcfs.L for l in graph.qcfs_layers()}
    steps_of.update(act_steps or {})
    fed = {}
    for act in graph.qcfs_layers():
        feeder = graph.layer(act.preds[0])
        while feeder.kind == "residual_add":
            feeder = graph.layer(feeder.preds[0])
        fed.setdefault(feeder.id, act.id)
    matmuls = graph.matmul_layers()
    dims, steps = [], []
    for layer in matmuls:
        act = fed.get(layer.id, layer.source)
        # an fc layer has kernel (1, 1) and no spatial output dims
        dims.append(MatMulDims(layer.id, layer.kind, layer.in_channels, layer.out_channels,
                               *layer.kernel, *layer.out_shape[1:], paired=layer.id in fed))
        steps.append(1 if act is None else steps_of[act])
    return dims, steps, [l.source for l in matmuls]


# Golden reference table for the CIFAR ResNet-18 operation counts. Several
# transition-block rows do not follow the standard dims formula for the
# shapes shown (they track a double-stride cascade), so this table is kept
# as literal reference data rather than derived; with one of the two head
# rows it sums exactly to the reference totals (217,584,640 / 217,630,720).
RESNET18_CIFAR_GOLDEN = [
    ("Initial Conv", "3x32x32", "64x32x32", 1769472),
    ("Residual Block 1.1 Conv1", "64x32x32", "64x32x32", 37748736),
    ("Residual Block 1.1 Conv2", "64x32x32", "64x32x32", 37748736),
    ("Residual Block 1.2 Conv1", "64x32x32", "64x32x32", 37748736),
    ("Residual Block 1.2 Conv2", "64x32x32", "64x32x32", 37748736),
    ("Residual Block 2.1 Conv1", "64x32x32", "128x16x16", 18874368),
    ("Residual Block 2.1 Conv2", "128x16x16", "128x16x16", 9437184),
    ("Residual Block 2.1 Shortcut", "64x32x32", "128x16x16", 2097152),
    ("Residual Block 2.2 Conv1", "128x16x16", "128x16x16", 9437184),
    ("Residual Block 2.2 Conv2", "128x16x16", "128x16x16", 9437184),
    ("Residual Block 3.1 Conv1", "128x16x16", "256x8x8", 4718592),
    ("Residual Block 3.1 Conv2", "256x8x8", "256x8x8", 2359296),
    ("Residual Block 3.1 Shortcut", "128x16x16", "256x8x8", 524288),
    ("Residual Block 3.2 Conv1", "256x8x8", "256x8x8", 2359296),
    ("Residual Block 3.2 Conv2", "256x8x8", "256x8x8", 2359296),
    ("Residual Block 4.1 Conv1", "256x8x8", "512x4x4", 1179648),
    ("Residual Block 4.1 Conv2", "512x4x4", "512x4x4", 589824),
    ("Residual Block 4.1 Shortcut", "256x8x8", "512x4x4", 262144),
    ("Residual Block 4.2 Conv1", "512x4x4", "512x4x4", 589824),
    ("Residual Block 4.2 Conv2", "512x4x4", "512x4x4", 589824),
]
RESNET18_CIFAR_HEADS = [
    ("Final FC Layer (CIFAR-10)", "512", "10", 5120),
    ("Final FC Layer (CIFAR-100)", "512", "100", 51200),
]


GOLDEN_NAMES = ("vgg16-cifar", "vgg16-imagenet", "resnet18-cifar")


def golden_graph(name, classes=10):
    """The zoo graph behind a golden target, without weights.

    classes picks the head of a CIFAR target.
    """
    if name == "vgg16-cifar":
        return parse_manifest(zoo.vgg16_manifest(classes))
    if name == "vgg16-imagenet":
        return parse_manifest(zoo.vgg16_manifest(1000, input_size=224))
    if name == "resnet18-cifar":
        return parse_manifest(zoo.resnet_manifest(classes=classes))
    raise EnergyModelError(f"unknown golden target '{name}' (choose from {', '.join(GOLDEN_NAMES)})")


def _hwc(shape):
    c, h, w = shape
    return f"{h}x{w}x{c}"


def _vgg16_rows(graph):
    """Convs with their output shape, pools with both shapes, fcs bare."""
    macs = {d.name: d.macs for d in dims_from_graph(graph)[0]}
    rows = []
    for layer in graph.layers:
        if layer.kind == "conv":
            rows.append((layer.id.capitalize(), "", _hwc(layer.out_shape), macs[layer.id]))
        elif layer.kind == "avg_pool":
            rows.append((layer.id.capitalize(), _hwc(layer.in_shape),
                         _hwc(layer.out_shape), None))
        elif layer.kind == "fc":
            rows.append((layer.id.upper(), "", "", macs[layer.id]))
    return rows


def golden_table(name):
    """Rows (layer, input, output, macs) plus totals for a golden target.

    Pool rows carry macs=None. CIFAR targets end in one head row per
    class count (10 and 100) and return totals keyed by head. VGG-16 rows
    are derived from the zoo graphs; the ResNet-18 rows are literal
    (RESNET18_CIFAR_GOLDEN and RESNET18_CIFAR_HEADS). The CLI prints a
    target's T_norm over its zoo graph, which for ResNet-18 gives the very
    figure of these rows even where their MACs differ: T_norm reads only
    the matmul count and each matmul's fan-in C_in * K_h * K_w, and both
    nets have 21 matmuls with the same fan-ins.
    """
    if name == "resnet18-cifar":
        body, heads = list(RESNET18_CIFAR_GOLDEN), RESNET18_CIFAR_HEADS
    elif name == "vgg16-cifar":
        body = _vgg16_rows(golden_graph(name))[:-1]
        heads = []
        for classes in (10, 100):
            head = dims_from_graph(golden_graph(name, classes))[0][-1]
            heads.append((f"FC3 (CIFAR-{classes})", str(head.c_in), str(head.c_out),
                          head.macs))
    else:   # vgg16-imagenet, or golden_graph raises for an unknown name
        rows = _vgg16_rows(golden_graph(name))
        return rows, {"ImageNet": sum(macs for *_, macs in rows if macs is not None)}
    body_macs = sum(macs for *_, macs in body if macs is not None)
    totals = {f"CIFAR-{classes}": body_macs + head[-1]
              for classes, head in zip((10, 100), heads)}
    return body + heads, totals


# ---------------------------------------------------------------------------
# report assembly


def build_report(layers, l_steps, spike_rate=ASSUMED_SPIKE_RATE, rate_label=None):
    """Per-layer op counts and ratios plus the aggregate figures.

    l_steps is a uniform int or a vector aligned with the matmul layers.
    spike_rate is a scalar assumption or a per-matmul vector of measured
    rates; rate_label records which mode produced the numbers. Raises
    EnergyModelError for an empty layer list.
    """
    if not layers:
        raise EnergyModelError("no matmul layers to report")
    steps = _step_vector(layers, l_steps)
    rates = ([float(spike_rate)] * len(layers) if np.isscalar(spike_rate)
             else [float(v) for v in spike_rate])
    if len(rates) != len(layers):
        raise EnergyModelError(
            f"rate vector has {len(rates)} entries for {len(layers)} matmul layers")

    rows = []
    for i, (d, L, rate) in enumerate(zip(layers, steps, rates)):
        ann = op_counts(d, "ann")
        snn = op_counts(d, "snn", spike_rate=rate, first_layer=(i == 0))
        rp = r_prime(d, rate)
        rows.append({
            "layer": d.name,
            "kind": d.kind,
            "L": L,
            "spike_rate": rate,
            "ann_macs": ann.macs,
            "snn_macs": snn.macs,
            "snn_acs": snn.acs,
            "threshold_mults": snn.threshold_mults,
            "r_prime": rp,
            "r_e": r_e_layer(L, rp),
        })

    total_macs = sum(r["ann_macs"] for r in rows)
    mean_rate = float(np.mean(rates))
    first_fraction = rows[0]["ann_macs"] / total_macs
    aggregates = {
        "total_ann_macs": total_macs,
        "mean_spike_rate": mean_rate,
        "first_layer_fraction": first_fraction,
        "overall_r_e": overall_r_e(layers, steps, spike_rate=mean_rate),
        "energy_ratio_fp32": ann_snn_energy_ratio(1.0, mean_rate, first_fraction, "fp32"),
        "energy_ratio_int8": ann_snn_energy_ratio(1.0, mean_rate, first_fraction, "int8"),
        "rate_mode": rate_label or ("assumed" if np.isscalar(spike_rate) else "measured"),
    }
    if isinstance(l_steps, (int, np.integer)):
        aggregates["t_norm"] = t_norm(layers, int(l_steps), mean_rate)
    else:
        aggregates["t_eff"] = t_eff(layers, steps, mean_rate)
    return {"per_layer": rows, "aggregates": aggregates}
