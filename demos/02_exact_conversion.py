#!/usr/bin/env python3
"""Converting a quantized-activation network into an equivalent spiking one.

The converted model replaces each activation with a staged
integrate-and-fire layer and unrolls each matmul over its incoming spike
train, with additive constants divided by the timestep count. The running
invariant is that the timestep sum of every spiking layer equals the
corresponding reference tensor; consequently the class prediction is the
same for every input, not just on average.
"""

import numpy as np

from spikecast.graph import init_random, parse_manifest
from spikecast.reference import ann_forward
from spikecast.runtime import SnnTrace, convert, snn_forward
from spikecast.zoo import toy_manifest

graph = init_random(parse_manifest(toy_manifest()), seed=42)
model = convert(graph)

print("unrolling plan:")
for lid, t in model.t_map.items():
    plan = model.if_plans.get(lid)
    if plan is not None:
        mode = "input IF" if plan.input_mode else "generic IF"
        print(f"  {lid:6} {mode:10} theta*={plan.theta_star:<6} "
              f"L_in={plan.l_in} L_out={plan.l_out}")
    else:
        print(f"  {lid:6} timesteps={1 if t is None else t}")

rng = np.random.default_rng(7)
x = rng.uniform(0, 1, size=(8, 2, 8, 8))

ref = ann_forward(graph, x)
trace = SnnTrace()
logits, stats = snn_forward(model, x, trace=trace)

print("\nper-layer invariant |sum_t spiking - reference| (max over batch):")
for layer in graph.layers:
    dev = np.max(np.abs(trace.sums[layer.id].reshape(ref.outputs[layer.id].shape)
                        - ref.outputs[layer.id]))
    print(f"  {layer.id:6} {dev:.3e}")

summed = logits * model.final_timesteps
print(f"\nmax logit deviation: {np.max(np.abs(summed - ref.logits)):.3e}")
ref_classes = ref.logits.argmax(axis=1)
snn_classes = logits.argmax(axis=1)
agree = np.mean(ref_classes == snn_classes)
print(f"argmax agreement: {agree * 100:.1f}%  "
      f"(classes {ref_classes.tolist()} vs {snn_classes.tolist()})")

print("\nspiking statistics:")
for lid, st in stats.items():
    print(f"  {lid}: rate {st.spike_rate:.3f} spikes/neuron over "
          f"{st.timesteps} timesteps, {st.stage2_inhibitory} inhibitory")

train = trace.trains["act2"]
neuron = np.unravel_index(np.argmax(train.spike_counts()), train.bits.shape[1:])
print(f"\nbusiest neuron of act2 {tuple(int(v) for v in neuron)} emits "
      f"{train.dense()[(slice(None),) + neuron]} (theta* = {train.theta_star})")
