"""Conversion engine and spiking simulator.

A trained quantized-activation network is converted by replacing every
activation with a staged integrate-and-fire layer and unrolling every
matmul layer over the timesteps of its incoming spike train. The additive
constants of an unrolled matmul (bias, batch mean, batch shift) are divided
by the number of incoming timesteps so that the per-timestep outputs sum to
the single-shot output; the multiplicative batch-norm factors are left
alone. convert does that split once per layer (BnAffine.scaled), and it
happens nowhere else.

snn_forward runs the graph walk of the reference pass (reference.forward):
every layer but an activation runs reference.run_layer, on values whose T
timesteps are folded into the batch axis as T*N rows, and only the
activations differ. They become the integrate-and-fire layers below.

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

A spike train (reference.SpikeTrain, also exported here) is a bit tensor
plus the shared theta_star; see the reference module for how each layer
reads one. SnnTrace.sums is a reference.TraceValues map: a layer whose
value is a spike train keeps only the train, and reading its sum builds
the sum from the train's counts on each read, so every such read
allocates a new float64 array. A neuron with c spikes sums to theta_star
added c times, looked up in a cumulative table by its count. That table
holds the very float sums the dense path adds, so the sums are byte for
byte those of the dense train. Conv, pool, fc and single-shot entries are
stored arrays, returned as they are.

The integrate-and-fire layer runs stages 1 and 2 over chunks of 32K
neurons, so its membranes and masks are chunk-sized, and stage 2 runs only
on a chunk's neurons whose membrane can still move (below 0 or at
threshold and above). Its counter is int16 whenever L_in plus the stage-2
steps fits that dtype and int64 otherwise; IfStats.counter is int64 either
way. The walk drops each layer's value as soon as its last consumer has
run, so only a few layers' values are alive at once.

Converted models are immutable; the forward pass keeps all mutable neuron
state local to the call, so batches and models can be run concurrently.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .graph import layer_affine
from .reference import SpikeTrain, TraceValues, ann_forward, forward, qcfs_levels


class ConversionError(ValueError):
    """Raised when a graph cannot be converted into a spiking model."""


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
    ConversionError for residual merges whose branches arrive with
    different timestep counts.
    """
    t_map = {}
    for layer in graph.layers:
        if layer.kind == "input":
            t_map[layer.id] = None
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


# Neurons per chunk of the integrate-and-fire layer: its membranes and masks
# stay in cache over all steps, and no float temporary spans the layer.
_IF_CHUNK = 1 << 15


def _counter_dtype(l_in, stage2_steps):
    """int16 when every counter fits it, else int64: a counter moves by at
    most one per step, so it stays within +-(l_in + stage2_steps)."""
    return np.int16 if l_in + stage2_steps <= np.iinfo(np.int16).max else np.int64


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
    flat = stack.reshape(plan.l_in, -1)
    size = flat.shape[1]
    stage2_steps = max(plan.l_in, plan.l_out) - 1
    count = np.zeros(size, dtype=_counter_dtype(plan.l_in, stage2_steps))

    # Stages 1 and 2 run chunk by chunk; a neuron's steps are the same IEEE
    # operations in the same order as on the whole layer. Stage 1 subtracts
    # th * fire from every membrane, which is exact where nothing fires
    # (x - 0.0 is x, a -0.0 included) and runs much faster than a subtract
    # masked by fire.
    width = min(size, _IF_CHUNK)
    mem_buf, fire_buf, drop_buf = np.empty(width), np.empty(width, dtype=bool), np.empty(width)
    stage1_spikes = excitatory = inhibitory = 0
    for lo in range(0, size, _IF_CHUNK):
        hi = min(lo + _IF_CHUNK, size)
        mem, fire, drop = mem_buf[:hi - lo], fire_buf[:hi - lo], drop_buf[:hi - lo]
        part = count[lo:hi]
        mem.fill(th / 2.0)
        for t in range(plan.l_in):
            mem += flat[t, lo:hi]
            np.greater_equal(mem, th, out=fire)
            part += fire
            np.multiply(fire, th, out=drop)
            mem -= drop
        stage1_spikes += int(part.sum())
        if stage2_steps:
            # a membrane in [0, th) neither fires nor inhibits, so it never
            # moves: stage 2 runs on the chunk's other neurons only
            moving = np.flatnonzero((mem < 0.0) | (mem >= th))
            moved = part[moving]
            e, i = _settle(mem[moving], moved, th, stage2_steps)
            part[moving] = moved
            excitatory += e
            inhibitory += i

    counter = count.astype(np.int64).reshape(shape) if keep_counter else None
    emit = np.clip(count, 0, plan.l_out, out=count)
    ticks = np.arange(1, plan.l_out + 1, dtype=emit.dtype)[:, None]
    bits = (ticks <= emit).reshape((plan.l_out,) + shape)
    stats = IfStats(
        layer_id=plan.layer_id,
        stage_steps=(plan.l_in, stage2_steps, plan.l_out),
        stage1_spikes=stage1_spikes,
        stage2_excitatory=excitatory,
        stage2_inhibitory=inhibitory,
        emitted_spikes=int(emit.sum()),
        elements=size,
        timesteps=plan.l_out,
        counter=counter,
    )
    return SpikeTrain(bits=bits, theta_star=th), stats


# ---------------------------------------------------------------------------
# whole-model execution


@dataclass
class SnnTrace:
    """Optional capture of the spiking pass: per-layer timestep sums
    (the quantity the layer invariant constrains) and the emitted trains.
    A train's sum is built from the train on each read of sums."""

    sums: Mapping = field(default_factory=TraceValues)
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

    logits is the mean over the final value's timesteps, shape
    (N, classes). stats maps each generic integrate-and-fire layer id to
    its IfStats. Pass an SnnTrace to capture per-layer sums and spike trains.
    """
    stats = {}

    def integrate_and_fire(layer, value, n):
        plan = model.if_plans[layer.id]
        if plan.input_mode:
            return if_input_layer(value, layer.qcfs)
        stack = value.reshape((-1, n) + value.shape[1:])
        train, stats[layer.id] = if_generic_layer(stack, plan, keep_counter=keep_counters)
        return train

    record = None
    if trace is not None:
        def record(layer, value, n):
            if isinstance(value, SpikeTrain):
                trace.sums._put(layer.id, partial(_train_sum, value))
                trace.trains[layer.id] = value
            elif len(value) == n:
                trace.sums._put(layer.id, value)
            else:
                trace.sums._put(layer.id, value.reshape((-1, n) + value.shape[1:]).sum(axis=0))

    logits = forward(model.graph, x, integrate_and_fire, model.scaled_affines, record)
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
