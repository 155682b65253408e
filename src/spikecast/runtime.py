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
           timesteps of the emitted train. The threshold cascade started
           at s * theta_star provably emits exactly that many, and the
           integer form keeps the count exact.

The first activation after the real-valued input needs no settling: its
input is the preceding matmul's single-shot output at full precision, the
staircase's levels (reference._levels, the reference pass's own) are taken,
and each level directly becomes the spike count. Every layer in front of it
reads real values, so it is the very float computation of the reference
pass. A matmul that feeds only this activation is deferred to it, like one
that feeds a generic layer: given an SnnTrace whose reference is that
pass's trace, the activation reads the reference's pre-activation and the
matmul never runs; otherwise it runs the matmul, which gives the same bytes.

One driver runs stages 1 to 3 of every generic layer (_IfDriver): a
consumer fed the layer's L_in*N input rows, timestep-major, in blocks of
any size in row order, which it reads without writing. A conv or fc layer
that feeds only a generic layer is deferred to it, and each block of rows
the matmul finishes goes straight into stage 1, so the layer's
(L_in*N, ...) output is never built. A generic layer after a residual
add, or after a matmul with more than one consumer, gets its input as one
stored value, which the driver takes as a single block; if_generic_layer
does the same with a (L_in, N, ...) stack.

The counter is int16 whenever L_in plus the stage-2 steps fits that dtype
and int64 otherwise. IfStats keeps it, when asked, in that dtype as
IfStats.counts, unclipped; IfStats.counter widens it to int64 on each read.

SnnTrace.sums is a reference.TraceValues map. A train's entry, and a pool
of a train's, keeps only the train and rebuilds its timestep sum on each
read, byte for byte the axis-0 sum of the dense train; a streamed matmul's
entry is the running sum its driver kept; a matmul deferred to an
input-mode activation has the pre-activation that layer read, a view of
the reference's when it was borrowed; other entries are stored read-only
arrays. docs/numerics.md gives the memory bounds and byte rules
behind the driver, the traces and check_equivalence.

Converted models are immutable; the forward pass keeps all mutable neuron
state local to the call, so batches and models can be run concurrently.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .graph import layer_affine
from .reference import (LayerTrace, SpikeTrain, TraceValues, _fold, _levels, _pooled,
                        _timestep_sum, ann_forward, forward, input_batch)


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
    counts: np.ndarray = None  # per-neuron net spike count after stage 2, in
                               # the layer's counter dtype (int16 or int64)

    @property
    def spike_rate(self):
        return self.emitted_spikes / self.elements

    @property
    def counter(self):
        """counts widened to int64, built as a new array on each read; None
        unless the counters were kept."""
        return None if self.counts is None else self.counts.astype(np.int64)


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
    """Timestep count of every layer's output, the L of its LayerSpec.source
    (None = single-shot real values).

    Reads only the graph's structure, so it needs no weights. Raises
    ConversionError for residual merges whose branches arrive with
    different timestep counts, which the reference pass can still run.
    """
    t_map = {l.id: None if l.source is None else graph.layer(l.source).qcfs.L
             for l in graph.layers}
    for layer in graph.layers:
        if layer.kind == "residual_add":
            t_a, t_b = (t_map[p] for p in layer.preds)
            if t_a != t_b:
                raise ConversionError(
                    f"layer '{layer.id}': residual branches carry unequal timestep "
                    f"counts ({t_a} vs {t_b}); branches must merge at equal "
                    f"quantization steps")
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
    return SpikeTrain.thermometer(_levels(x, cfg), cfg.L, cfg.theta / cfg.L)


# Neurons per span of the integrate-and-fire driver and of _deviation: their
# masks and scratch stay in cache, and no float temporary spans the layer.
_IF_CHUNK = 1 << 15


def _counter_dtype(l_in, stage2_steps):
    """int16 when every counter fits it, else int64: a counter moves by at
    most one per step, so it stays within +-(l_in + stage2_steps)."""
    return np.int16 if l_in + stage2_steps <= np.iinfo(np.int16).max else np.int64


def _stage2_steps(plan):
    return max(plan.l_in, plan.l_out) - 1


def _integrate(mem, count, x, th, fire, drop):
    """One stage-1 timestep on a span of neurons, in place.

    x enters the membranes mem; a membrane at th or above fires, adds one
    to its count and soft-resets by th. fire and drop are scratch of mem's
    length. Subtracting th * fire from every membrane is exact where
    nothing fires (x - 0.0 is x, a -0.0 included).
    """
    mem += x
    np.greater_equal(mem, th, out=fire)
    count += fire
    np.multiply(fire, th, out=drop)
    mem -= drop


def _settle(mem, count, th, steps):
    """Stage 2 on a span of membranes and counters, in place; returns the
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
    (arbitrary reals); it is read, never written. Returns the emitted
    SpikeTrain of length L_out plus the stage statistics.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim < 2:
        raise ConversionError(f"layer '{plan.layer_id}': expected an (L_in, N, ...) stack, "
                              f"got shape {stack.shape}")
    if stack.shape[0] != plan.l_in:
        raise ConversionError(
            f"layer '{plan.layer_id}': expected {plan.l_in} input timesteps, "
            f"got {stack.shape[0]}")
    layer_in = _IfDriver(plan, stack.shape[1:])
    layer_in(0, _fold(stack))
    return layer_in.finish(keep_counter)


class _IfDriver:
    """A generic integrate-and-fire layer fed its L_in*N input rows block by
    block: the consumer that run_layer hands a deferred matmul's finished
    row blocks to, and the one that takes a stored value or stack as a
    single block.

    Row r is image r % N of timestep r // N, and blocks arrive in row
    order, so every neuron gets its timesteps in order through the one
    stage-1 step, _integrate. It holds one membrane and one counter per
    neuron of a timestep and, with keep_sum, the running timestep sum:
    zeros, then each slice added in turn, which is numpy's axis-0 sum of
    the C-contiguous stack (a stack of -0.0 sums to +0.0). It never writes
    a block. shape is one timestep's (N, ...) rows. finish runs stages 2
    and 3.

    The state is allocated when the first block arrives, after a deferred
    matmul has freed its product (docs/numerics.md, "Driver state at the
    first block").
    """

    def __init__(self, plan, shape, keep_sum=False):
        self.plan, self.shape, self.keep_sum = plan, shape, keep_sum
        self.n, self.per = shape[0], math.prod(shape[1:])
        self.count = None

    def _start(self):
        plan, size = self.plan, self.n * self.per
        self.mem = np.full(size, plan.theta_star / 2.0)
        self.count = np.zeros(size, dtype=_counter_dtype(plan.l_in, _stage2_steps(plan)))
        self.fire = np.empty(min(size, _IF_CHUNK), dtype=bool)
        self.drop = np.empty(len(self.fire))
        self.sum = np.zeros(size) if self.keep_sum else None

    def __call__(self, lo, block):
        if self.count is None:
            self._start()
        n, th, per = self.n, self.plan.theta_star, self.per
        flat = block.reshape(-1)
        r, end = lo, lo + len(block)
        while r < end:              # one span per timestep the block holds
            i = r % n
            rows = min(n - i, end - r)
            src = flat[(r - lo) * per:(r - lo + rows) * per]
            for a in range(0, len(src), _IF_CHUNK):
                x = src[a:a + _IF_CHUNK]
                span = slice(i * per + a, i * per + a + len(x))
                if self.sum is not None:
                    self.sum[span] += x
                _integrate(self.mem[span], self.count[span], x, th, self.fire[:len(x)],
                           self.drop[:len(x)])
            r += rows

    def finish(self, keep_counter):
        """Stages 2 and 3 once every row has arrived: the emitted train and
        the layer's IfStats, which keeps the counters themselves when asked."""
        plan, count = self.plan, self.count
        steps = _stage2_steps(plan)
        spikes = [int(count.sum()), 0, 0]
        for lo in range(0, count.size, _IF_CHUNK):
            e, i = _settle(self.mem[lo:lo + _IF_CHUNK], count[lo:lo + _IF_CHUNK],
                           plan.theta_star, steps)
            spikes[1] += e
            spikes[2] += i
        self.mem = None         # emission needs only the counters
        count = count.reshape(self.shape)
        train = SpikeTrain.thermometer(count, plan.l_out, plan.theta_star)
        stats = IfStats(
            layer_id=plan.layer_id,
            stage_steps=(plan.l_in, steps, plan.l_out),
            stage1_spikes=spikes[0],
            stage2_excitatory=spikes[1],
            stage2_inhibitory=spikes[2],
            emitted_spikes=int(train.counts.sum()),
            elements=count.size,
            timesteps=plan.l_out,
            counts=count if keep_counter else None,
        )
        return train, stats


# ---------------------------------------------------------------------------
# whole-model execution


@dataclass
class SnnTrace:
    """Optional capture of the spiking pass: per-layer timestep sums
    (the quantity the layer invariant constrains) and the emitted trains.
    The sum of a train, or of a pool of a train, is built from the train
    on each read of sums.

    reference, when set, is the ann_forward trace of the model's own graph
    on the very array the spiking pass reads (the input_batch of its x; a
    C-contiguous float64 batch is its own). Each input-mode activation
    then reads reference.pre_activations instead of running the matmul
    deferred to it, and that matmul's sums entry views the reference's
    array. snn_forward raises ValueError, before it runs any layer, when
    the reference's input entry is not that array. That the reference ran
    the same graph is the caller's to keep: check_equivalence sets it only
    when model.graph is graph.
    """

    sums: Mapping = field(default_factory=TraceValues)
    trains: dict = field(default_factory=dict)
    reference: LayerTrace = None


def _same_array(a, b):
    """Whether a and b view the same bytes with the same dtype and layout."""
    return ((a.__array_interface__["data"][0], a.dtype, a.shape, a.strides)
            == (b.__array_interface__["data"][0], b.dtype, b.shape, b.strides))


def _train_sum(train):
    """The train's timestep sum as numpy's axis-0 sum of the dense train
    gives it, read from spike counts: adding a zero step is exact, so a
    neuron with c spikes sums to theta_star added c times in sequence."""
    t = train.timesteps
    table = np.zeros(t + 1)
    np.cumsum(np.full(t, train.theta_star), out=table[1:])
    return table[train.counts]


def snn_forward(model, x, trace=None, keep_counters=False):
    """Run the converted model. Returns (logits, stats).

    logits is the mean over the final value's timesteps, shape
    (N, classes). stats maps each generic integrate-and-fire layer id to
    its IfStats. Pass an SnnTrace to capture per-layer sums and spike trains,
    and to borrow pre-activations from its reference.
    """
    stats = {}
    reference = None if trace is None else trace.reference

    def integrate_and_fire(layer, value, n):
        plan = model.if_plans[layer.id]
        if plan.input_mode:
            if isinstance(value, partial):      # the deferred matmul
                value = value() if reference is None else reference.pre_activations[layer.id]
                if trace is not None:
                    trace.sums._put(layer.preds[0], value)
            return if_input_layer(value, layer.qcfs)
        deferred = isinstance(value, partial)
        layer_in = _IfDriver(plan, (n,) + layer.in_shape, keep_sum=deferred and trace is not None)
        if deferred:
            value(consumer=layer_in)
            if trace is not None:
                trace.sums._put(layer.preds[0], layer_in.sum.reshape(layer_in.shape))
        else:
            layer_in(0, value)
        train, stats[layer.id] = layer_in.finish(keep_counters)
        return train

    record = None
    if trace is not None:
        def record(layer, value, n):
            if layer.kind == "input" and reference is not None:
                given = reference.outputs.get(layer.id)
                if given is None or not _same_array(given, value):
                    raise ValueError(f"input layer '{layer.id}': the trace's reference was "
                                     f"made from another input batch")
            if isinstance(value, SpikeTrain):
                trace.sums._put(layer.id, partial(_train_sum, value))
                trace.trains[layer.id] = value
            elif layer.kind == "avg_pool" and layer.preds[0] in trace.trains:
                trace.sums._put(layer.id, partial(_pooled, layer, trace.trains[layer.preds[0]], n))
            else:
                trace.sums._put(layer.id, _timestep_sum(value, n))

    logits = forward(model.graph, x, integrate_and_fire, model.scaled_affines, record,
                     streamed=model.if_plans)
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


def _deviation(layer_id, ann_out, snn_sum):
    """The LayerDeviation of a spiking timestep sum from the reference
    output: max |snn_sum - ann_out|, absolute and over max |ann_out| (the
    absolute figure where that is 0). A NaN anywhere propagates.

    The difference is taken chunk by chunk in one reused buffer; max is
    exact in any order, so the result is the whole-layer one.
    """
    snn_sum = np.asarray(snn_sum, dtype=np.float64).reshape(-1)
    ann_out = np.asarray(ann_out, dtype=np.float64).reshape(snn_sum.shape)
    dev = scale = 0.0
    if ann_out.size:
        diff = np.empty(min(ann_out.size, _IF_CHUNK))
        for lo in range(0, ann_out.size, _IF_CHUNK):
            part = diff[:ann_out.size - lo]
            np.subtract(snn_sum[lo:lo + _IF_CHUNK], ann_out[lo:lo + _IF_CHUNK], out=part)
            dev = np.maximum(dev, np.abs(part, out=part).max())     # NaN propagates
        dev = float(dev)
        scale = max(float(ann_out.max()), -float(ann_out.min()))
    return LayerDeviation(layer_id, dev, dev / scale if scale > 0 else dev)


def check_equivalence(graph, inputs, model=None):
    """Run both passes on a batch and report per-layer deviations.

    At every layer boundary the spiking path's timestep sum is compared
    against the reference tensor; the logits are compared on the summed
    scale (the spiking mean times its timestep count). Argmax agreement is
    the fraction of batch rows whose predicted class matches.

    Both passes read one input_batch array. When model was converted from
    graph itself, the spiking pass borrows the reference's pre-activation
    at every input-mode activation (SnnTrace.reference) instead of running
    the same real-valued matmul again.
    """
    if model is None:
        model = convert(graph)
    x = input_batch(graph, inputs)
    trace = ann_forward(graph, x)
    snn_trace = SnnTrace(reference=trace if model.graph is graph else None)
    logits_snn, stats = snn_forward(model, x, trace=snn_trace)

    # each layer's arrays are read, compared and dropped inside _deviation,
    # so no two layers' arrays are alive at once
    per_layer = [_deviation(layer.id, trace.outputs[layer.id], snn_trace.sums[layer.id])
                 for layer in graph.layers]

    max_logit_dev = _deviation("logits", trace.logits, logits_snn * model.final_timesteps).rel_dev
    agreement = float(np.mean(trace.logits.argmax(axis=1) == logits_snn.argmax(axis=1)))
    inhibitory = sum(st.stage2_inhibitory for st in stats.values())
    return EquivalenceReport(
        per_layer=per_layer,
        argmax_agreement=agreement,
        max_logit_dev=max_logit_dev,
        inhibitory_spikes=inhibitory,
    )
