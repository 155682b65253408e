#!/usr/bin/env python3
"""Analytic op counts, overhead-weighted timesteps and energy ratios.

A spiking network replaces multiply-accumulates with spike-gated
accumulates; the staged integrate-and-fire layer pays 5L - 2 per-neuron
bookkeeping operations where a plain one pays L. This script walks the
reference architectures, built from spikecast.zoo manifests, through the
accounting: exact MAC tables, per-layer overhead ratios, the T_norm / T_eff
figures, the aggregate staged-vs-plain energy ratio, and the ANN-vs-SNN
ratio under fp32 and int8 per-op energies.
"""

from spikecast.energy import (ann_snn_energy_ratio, dims_from_graph,
                              golden_table, overall_r_e, r_e_layer, r_prime,
                              t_eff, t_norm)
from spikecast.graph import parse_manifest
from spikecast.zoo import resnet_manifest, vgg16_manifest


def dims(manifest):
    """Matmul geometry of a zoo manifest, in graph order."""
    return dims_from_graph(parse_manifest(manifest))[0]


vgg16_cifar = dims(vgg16_manifest(10))
vgg16_imagenet = dims(vgg16_manifest(1000, input_size=224))
resnet18_cifar = dims(resnet_manifest())
resnet34_imagenet = dims(resnet_manifest((3, 4, 6, 3), input_size=224, classes=1000,
                                         imagenet_stem=True))

print("=== exact operation counts ===")
for name in ("vgg16-cifar", "vgg16-imagenet", "resnet18-cifar"):
    _, totals = golden_table(name)
    printed = ", ".join(f"{head}: {total:,}" for head, total in totals.items())
    print(f"  {name:16} {printed}")

print("\n=== per-layer overhead of the staged IF (rate 0.75) ===")
for d in vgg16_cifar[:2]:
    rp = r_prime(d, 0.75)
    print(f"  {d.name}: r' = {rp:.5f}, r_E(L=4) = {r_e_layer(4, rp):.4f}")
print("  (wide layers amortize the IF work; the first conv is the worst case)")

print("\n=== overhead-weighted timesteps ===")
print(f"  vgg16/32px,  uniform L=4 : T_norm = {t_norm(vgg16_cifar, 4):.3f}")
print(f"  vgg16/224px, uniform L=16: T_norm = {t_norm(vgg16_imagenet, 16):.3f}")
print(f"  resnet34,    uniform L=8 : T_norm = {t_norm(resnet34_imagenet, 8):.3f}")

steps = [4, 4, 4, 1, 4, 4, 4, 1, 4, 1, 1, 1, 1, 1, 1, 1, 4]
layers = [d for d in resnet18_cifar if d.paired]
print(f"  resnet18, layerwise {steps}:")
print(f"      T_eff = {t_eff(layers, steps):.3f} "
      f"(vs {t_norm(layers, 8):.3f} at uniform L=8)")

print("\n=== aggregate staged/plain spiking energy ===")
ratio = overall_r_e(vgg16_cifar, 4, spike_rate=0.75)
print(f"  vgg16/32px, L=4, rate 0.75: {ratio:.6f} "
      f"(~{(ratio - 1) * 100:.2f}% extra for exactness)")

print("\n=== ANN vs SNN energy (a = normalized MACs, b = mean spike rate,")
print("    c = first-layer share of ops) ===")
for b, c in [(0.66, 0.005), (0.75, 0.005)]:
    fp32 = ann_snn_energy_ratio(1.0, b, c, "fp32")
    int8 = ann_snn_energy_ratio(1.0, b, c, "int8")
    print(f"  b={b}, c={c}: {fp32:.2f}x cheaper at fp32, {int8:.2f}x at int8")
