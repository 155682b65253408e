"""Conversion engine and spiking simulator.

A trained quantized-activation network is converted by replacing every
activation with a staged integrate-and-fire layer and unrolling every
matmul layer over the timesteps of its incoming spike train. The additive
constants of an unrolled matmul (bias, batch mean, batch shift) are divided
by the number of incoming timesteps so that the per-timestep outputs sum to
the single-shot output; the multiplicative batch-norm factors are left
alone.

A generic integrate-and-fire layer runs three stages per neuron, with the
threshold theta_star = theta / L_out and the membrane starting at
theta_star / 2:

  stage 1  integrate the L_in input slices; an excitatory spike fires when
           the membrane reaches the threshold (inclusive), soft-resets it
           by theta_star, and increments the spike counter.
  stage 2  max(L_in, L_out) - 1 input-free settling steps; excitatory
           spikes as above, and when the membrane is negative an
           inhibitory spike increments the membrane by theta_star and
           decrements the counter. Without inhibitory spikes a negative
           accumulated input could leave the counter one level too high.
  stage 3  re-emit: the final counter value s maps to
           clamp(s, 0, L_out) output spikes, placed in the first
           timesteps of the emitted train.

Stage 3 is implemented directly through that counter mapping (the
threshold cascade started at s * theta_star provably emits exactly
clamp(s, 0, L_out) spikes, and the integer form keeps the spike count
exact instead of re-deriving it from rounded float subtractions).

The first activation after the real-valued input needs no settling: the
preceding matmul runs once at full precision, the staircase activation is
applied, and the resulting level index directly becomes the spike count.

Spike trains are stored as a bit tensor plus the shared theta_star scalar,
so the "every element is 0 or theta_star" guarantee is structural. Every
consumer but a fully connected layer reads those bits or their counts, and
builds no float64 copy of a whole train:

  conv          kernels.conv2d scales the bits into its patch buffer one
                block at a time.
  average pool  a 2 x 2 window's float sum depends only on its spike
                count, so kernels.avg_pool2d looks each window up by count.
  residual add  two trains sum to 0, theta_a, theta_b or theta_a + theta_b,
                looked up by a + 2 b.
  trace sums    a neuron with c spikes sums to theta_star added c times,
                looked up in a cumulative table by its count.

Each lookup table holds the very float sums the dense path adds, so the
results are byte for byte those of the dense train. Stage 2 of the
integrate-and-fire layer runs on the neurons whose membrane can still move
(below 0 or at threshold and above), gathered once.
The forward pass drops each layer's value as soon as its last consumer has
run, so only a few layers' values are alive at once.

Converted models are immutable; the forward pass keeps all mutable neuron
state local to the call, so batches and models can be run concurrently.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .graph import conv_params, fc_weights, layer_affine
from .reference import _matmul, ann_forward, input_batch, qcfs_levels


class ConversionError(ValueError):
    """Raised when a graph cannot be converted into a spiking model."""


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


@dataclass(frozen=True)
class IfLayer:
    """Plan for one integrate-and-fire layer of the converted model."""

    layer_id: str
    theta_star: float
    l_in: int
    l_out: int
    input_mode: bool = False   # first activation on a real-valued branch


@dataclass
class IfStats:
    """Step and spike counters for one integrate-and-fire execution."""

    layer_id: str
    stage_steps: tuple         # (stage 1, stage 2, stage 3) step counts
    stage1_spikes: int
    stage2_excitatory: int
    stage2_inhibitory: int
    emitted_spikes: int
    elements: int              # neurons times batch
    timesteps: int             # emitted train length
    counter: np.ndarray = None # per-neuron net spike count after stage 2

    @property
    def spike_rate(self):
        return self.emitted_spikes / self.elements


@dataclass(frozen=True)
class SpikingModel:
    """A converted model: source graph plus per-layer unrolling plan."""

    graph: object
    t_map: dict                # layer id -> timestep count (None = single-shot)
    if_plans: dict             # activation layer id -> IfLayer
    scaled_affines: dict       # matmul layer id -> BnAffine or None

    @property
    def final_timesteps(self):
        t = self.t_map[self.graph.output_layer.id]
        return 1 if t is None else t


def timestep_map(graph):
    """Timestep count of every layer's output (None = single-shot real values).

    Reads only the graph's structure, so it needs no weights. Raises
    ConversionError for max-pool layers (the max over unrolled timesteps
    does not commute with their sum, so there is no exact spiking
    counterpart) and for residual merges whose branches arrive with
    different timestep counts.
    """
    t_map = {}
    for layer in graph.layers:
        if layer.kind == "input":
            t_map[layer.id] = None
        elif layer.kind == "max_pool":
            raise ConversionError(
                f"layer '{layer.id}': unsupported nonlinearity in certified path (max_pool)")
        elif layer.kind == "qcfs_act":
            t_map[layer.id] = layer.qcfs.L
        elif layer.kind == "residual_add":
            t_a, t_b = (t_map[p] for p in layer.preds)
            if t_a != t_b:
                raise ConversionError(
                    f"layer '{layer.id}': residual branches carry unequal timestep "
                    f"counts ({t_a} vs {t_b}); branches must merge at equal "
                    f"quantization steps")
            t_map[layer.id] = t_a
        else:
            t_map[layer.id] = t_map[layer.preds[0]]
    return t_map


def convert(graph):
    """Build the spiking execution plan for a quantized-activation graph.

    Raises ConversionError for a graph without weights and wherever
    timestep_map does.
    """
    if not graph.weights:
        raise ConversionError("graph has no weights loaded")
    t_map = timestep_map(graph)
    if_plans, scaled_affines = {}, {}
    for layer in graph.layers:
        if layer.kind == "qcfs_act":
            t_in = t_map[layer.preds[0]]
            cfg = layer.qcfs
            theta_star = cfg.theta / cfg.L
            if t_in is None:
                plan = IfLayer(layer.id, theta_star, l_in=cfg.L, l_out=cfg.L, input_mode=True)
            else:
                plan = IfLayer(layer.id, theta_star, l_in=t_in, l_out=cfg.L)
            if_plans[layer.id] = plan
        elif layer.is_matmul:
            affine = layer_affine(graph, layer)
            t_in = t_map[layer.preds[0]]
            if affine is not None and t_in is not None:
                affine = affine.scaled(1.0 / t_in)
            scaled_affines[layer.id] = affine
    return SpikingModel(graph=graph, t_map=t_map, if_plans=if_plans,
                        scaled_affines=scaled_affines)


# ---------------------------------------------------------------------------
# layer executions


def if_input_layer(x, cfg):
    """Spike train for the first activation of a real-valued branch.

    The staircase activation of the (single-shot) matmul output yields an
    integer level c per neuron; the emitted train carries c spikes in its
    first c timesteps, which makes the train sum reproduce the activation
    exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    levels = qcfs_levels(x, cfg)
    ticks = np.arange(1, cfg.L + 1).reshape((cfg.L,) + (1,) * x.ndim)
    bits = ticks <= levels[None, ...]
    return SpikeTrain(bits=bits, theta_star=cfg.theta / cfg.L)


def _settle(mem, count, th, steps):
    """Stage 2 on 1-D membranes and counters, in place; returns the
    (excitatory, inhibitory) spike totals."""
    fire = np.empty(mem.shape, dtype=bool)
    inhib = np.empty(mem.shape, dtype=bool)
    excitatory = inhibitory = 0
    for _ in range(steps):
        # th > 0, so a firing membrane is never negative: fire and inhib are
        # disjoint. The masked add leaves a -0.0 membrane -0.0, where adding
        # th * 0.0 would give +0.0; no comparison can see the sign of a zero.
        np.greater_equal(mem, th, out=fire)
        np.less(mem, 0.0, out=inhib)
        count += fire
        count -= inhib
        np.add(mem, th, out=mem, where=inhib)
        np.subtract(mem, th, out=mem, where=fire)
        excitatory += int(np.count_nonzero(fire))
        inhibitory += int(np.count_nonzero(inhib))
    return excitatory, inhibitory


def if_generic_layer(stack, plan, keep_counter=False):
    """Run the three-stage integrate-and-fire layer on an unrolled stack.

    stack has shape (L_in, N, ...) and holds the unrolled matmul outputs
    (arbitrary reals). Returns the emitted SpikeTrain of length L_out plus
    the stage statistics.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.shape[0] != plan.l_in:
        raise ConversionError(
            f"layer '{plan.layer_id}': expected {plan.l_in} input timesteps, "
            f"got {stack.shape[0]}")
    th = plan.theta_star
    shape = stack.shape[1:]
    mem = np.full(shape, th / 2.0)
    count = np.zeros(shape, dtype=np.int64)

    # mem and count are updated in place. Stage 1 subtracts th * fire from
    # every membrane, which is exact where nothing fires (x - 0.0 is x, a
    # -0.0 included) and runs much faster than a subtract masked by fire.
    fire = np.empty(shape, dtype=bool)
    drop = np.empty(shape)
    stage1_spikes = 0
    for t in range(plan.l_in):
        mem += stack[t]
        np.greater_equal(mem, th, out=fire)
        count += fire
        np.multiply(fire, th, out=drop)
        mem -= drop
        stage1_spikes += int(np.count_nonzero(fire))

    stage2_steps = max(plan.l_in, plan.l_out) - 1
    excitatory = inhibitory = 0
    if stage2_steps:
        # a membrane in [0, th) neither fires nor inhibits, so it never moves:
        # stage 2 runs on the other neurons only, gathered once
        moving = np.flatnonzero((mem < 0.0) | (mem >= th))
        moved = count.ravel()[moving]
        excitatory, inhibitory = _settle(mem.ravel()[moving], moved, th, stage2_steps)
        count.ravel()[moving] = moved

    emit = np.clip(count, 0, plan.l_out)
    ticks = np.arange(1, plan.l_out + 1).reshape((plan.l_out,) + (1,) * count.ndim)
    bits = ticks <= emit[None, ...]
    stats = IfStats(
        layer_id=plan.layer_id,
        stage_steps=(plan.l_in, stage2_steps, plan.l_out),
        stage1_spikes=stage1_spikes,
        stage2_excitatory=excitatory,
        stage2_inhibitory=inhibitory,
        emitted_spikes=int(emit.sum()),
        elements=int(np.prod(shape)),
        timesteps=plan.l_out,
        counter=count if keep_counter else None,
    )
    return SpikeTrain(bits=bits, theta_star=th), stats


def _dense(value):
    return value.dense() if isinstance(value, SpikeTrain) else np.asarray(value, dtype=np.float64)


def unrolled_matmul(stack, params, affine=None, l_scale=None):
    """Per-timestep matmul over an unrolled stack or spike train.

    params is either ConvParams or a 2-D fully-connected weight matrix.
    The additive affine constants are scaled by l_scale (default 1/T), so
    the timestep outputs sum to the single-shot matmul of the summed stack.
    A spike train feeds conv as bits and theta_star, never as a dense copy.
    """
    conv = isinstance(params, kernels.ConvParams)
    if conv and isinstance(stack, SpikeTrain):
        stack, scale = stack.bits, stack.theta_star
    else:
        stack, scale = _dense(stack), None
    t = stack.shape[0]
    if l_scale is None:
        l_scale = 1.0 / t
    folded = stack.reshape((t * stack.shape[1],) + stack.shape[2:])
    if conv:
        out = kernels.conv2d(folded, params, scale=scale, affine=affine, l_scale=l_scale)
    else:
        if folded.ndim > 2:
            folded = folded.reshape(folded.shape[0], -1)
        out = kernels.fully_connected(folded, params)
        if affine is not None:
            out = kernels.fused_bn_affine(out, affine, l_scale, out=out)
    return out.reshape((t, stack.shape[1]) + out.shape[1:])


def unrolled_residual_add(a, b):
    """Elementwise per-timestep sum of two unrolled stacks.

    Two spike trains are added from their bits: each sum is one of
    0, theta_a, theta_b and theta_a + theta_b, looked up by a + 2 b.
    """
    t_a, t_b = (v.timesteps if isinstance(v, SpikeTrain) else len(v) for v in (a, b))
    if t_a != t_b:
        raise ConversionError(
            f"residual branches carry unequal timestep counts ({t_a} vs {t_b})")
    if isinstance(a, SpikeTrain) and isinstance(b, SpikeTrain):
        table = np.array([0.0, a.theta_star, b.theta_star, a.theta_star + b.theta_star])
        index = np.multiply(b.bits, 2, dtype=np.uint8)
        np.add(index, a.bits, out=index)
        return table[index]
    return _dense(a) + _dense(b)


def unrolled_avg_pool(stack, window):
    """Per-timestep average pooling; the result is a plain unrolled stack.

    Pooling a spike train yields fractional values, so the output is typed
    as a float stack rather than a SpikeTrain; that is fine because only
    matmul layers consume it and they just need the timestep sum preserved.
    A spike train is pooled from its bits, never through a dense copy.
    """
    if isinstance(stack, SpikeTrain):
        data, scale = stack.bits, stack.theta_star
    else:
        data, scale = _dense(stack), None
    t, n = data.shape[0], data.shape[1]
    out = kernels.avg_pool2d(data.reshape((t * n,) + data.shape[2:]), window, scale=scale)
    return out.reshape((t, n) + out.shape[1:])


# ---------------------------------------------------------------------------
# whole-model execution


@dataclass
class SnnTrace:
    """Optional capture of the spiking pass: per-layer timestep sums
    (the quantity the layer invariant constrains) and the emitted trains."""

    sums: dict = field(default_factory=dict)
    trains: dict = field(default_factory=dict)


def _train_sum(train):
    """The train's timestep sum as numpy's axis-0 sum of the dense train
    gives it, read from spike counts: adding a zero step is exact, so a
    neuron with c spikes sums to theta_star added c times in sequence."""
    t = train.timesteps
    table = np.zeros(t + 1)
    np.cumsum(np.full(t, train.theta_star), out=table[1:])
    return table[train.bits.sum(axis=0, dtype=np.min_scalar_type(t))]


def snn_forward(model, x, trace=None, keep_counters=False):
    """Run the converted model. Returns (logits, stats).

    logits is the mean over the final stack's timesteps, shape
    (N, classes). stats maps each integrate-and-fire layer id to its
    IfStats. Pass an SnnTrace to capture per-layer sums and spike trains.
    """
    graph = model.graph
    x = input_batch(graph, x)
    last_use = {p: i for i, layer in enumerate(graph.layers) for p in layer.preds}
    values, stats = {}, {}
    for i, layer in enumerate(graph.layers):
        srcs = [values[p] for p in layer.preds]
        for p in layer.preds:
            if last_use[p] == i:      # free each value once its last consumer runs
                del values[p]
        if layer.kind == "input":
            out = x
        elif layer.is_matmul:
            if model.t_map[layer.id] is None:
                out = _matmul(graph, layer, srcs[0])
            else:
                params = (conv_params(graph, layer) if layer.kind == "conv"
                          else fc_weights(graph, layer))
                out = unrolled_matmul(srcs[0], params, model.scaled_affines[layer.id],
                                      l_scale=1.0)
        elif layer.kind == "avg_pool":
            if model.t_map[layer.id] is None:
                out = kernels.avg_pool2d(srcs[0], layer.window)
            else:
                out = unrolled_avg_pool(srcs[0], layer.window)
        elif layer.kind == "residual_add":
            if model.t_map[layer.id] is None:
                out = srcs[0] + srcs[1]
            else:
                out = unrolled_residual_add(*srcs)
        elif layer.kind == "qcfs_act":
            plan = model.if_plans[layer.id]
            if plan.input_mode:
                out = if_input_layer(srcs[0], layer.qcfs)
            else:
                out, st = if_generic_layer(_dense(srcs[0]), plan, keep_counter=keep_counters)
                stats[layer.id] = st
        else:
            raise ConversionError(f"layer '{layer.id}': kind '{layer.kind}' not executable")
        del srcs
        values[layer.id] = out
        if trace is not None:
            if isinstance(out, SpikeTrain):
                trace.sums[layer.id] = _train_sum(out)
                trace.trains[layer.id] = out
            elif model.t_map[layer.id] is not None:
                trace.sums[layer.id] = out.sum(axis=0)
            else:
                trace.sums[layer.id] = out
        del out

    final = values[graph.output_layer.id]
    if model.t_map[graph.output_layer.id] is None:
        logits = _dense(final)
    else:
        logits = _dense(final).mean(axis=0)
    logits = logits.reshape(x.shape[0], -1)
    return logits, stats


# ---------------------------------------------------------------------------
# equivalence checking


@dataclass
class LayerDeviation:
    layer_id: str
    max_abs_dev: float
    rel_dev: float


@dataclass
class EquivalenceReport:
    """Side-by-side comparison of the reference and spiking passes."""

    per_layer: list
    argmax_agreement: float
    max_logit_dev: float
    inhibitory_spikes: int
    instances: int

    @property
    def max_rel_dev(self):
        return max((d.rel_dev for d in self.per_layer), default=0.0)

    def to_dict(self):
        return {
            "per_layer": [
                {"id": d.layer_id, "max_abs_dev": d.max_abs_dev, "rel_dev": d.rel_dev}
                for d in self.per_layer
            ],
            "argmax_agreement": self.argmax_agreement,
            "max_logit_dev": self.max_logit_dev,
            "inhibitory_spikes": self.inhibitory_spikes,
        }


def check_equivalence(graph, inputs, model=None):
    """Run both passes on a batch and report per-layer deviations.

    At every layer boundary the spiking path's timestep sum is compared
    against the reference tensor; the logits are compared on the summed
    scale (the spiking mean times its timestep count). Argmax agreement is
    the fraction of batch rows whose predicted class matches.
    """
    if model is None:
        model = convert(graph)
    trace = ann_forward(graph, inputs)
    snn_trace = SnnTrace()
    logits_snn, stats = snn_forward(model, inputs, trace=snn_trace)

    per_layer = []
    for layer in graph.layers:
        ann_out = np.asarray(trace.outputs[layer.id], dtype=np.float64)
        snn_sum = np.asarray(snn_trace.sums[layer.id], dtype=np.float64)
        ann_out = ann_out.reshape(snn_sum.shape)
        dev = scale = 0.0
        if ann_out.size:
            diff = np.subtract(snn_sum, ann_out)
            dev = float(np.abs(diff, out=diff).max())
            scale = max(float(ann_out.max()), -float(ann_out.min()))
        rel = dev / scale if scale > 0 else dev
        per_layer.append(LayerDeviation(layer.id, dev, rel))

    snn_total = logits_snn * model.final_timesteps
    logit_dev = float(np.max(np.abs(snn_total - trace.logits)))
    logit_scale = float(np.max(np.abs(trace.logits)))
    max_logit_dev = logit_dev / logit_scale if logit_scale > 0 else logit_dev
    agreement = float(np.mean(trace.logits.argmax(axis=1) == logits_snn.argmax(axis=1)))
    inhibitory = sum(st.stage2_inhibitory for st in stats.values())
    return EquivalenceReport(
        per_layer=per_layer,
        argmax_agreement=agreement,
        max_logit_dev=max_logit_dev,
        inhibitory_spikes=inhibitory,
        instances=int(trace.logits.shape[0]),
    )
