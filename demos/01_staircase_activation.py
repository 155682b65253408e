#!/usr/bin/env python3
"""The quantized clip-floor staircase that replaces ReLU.

act(z) = theta * clip(floor(z * L / theta + 1/2) / L, 0, 1)

Outputs sit exactly on the L+1 levels {0, 1, ..., L} * theta / L, the level
edges are inclusive (z = (k - 1/2) * theta / L already reaches level k), and
applying the staircase twice changes nothing. The level index doubles as the
spike count the converted network emits for that neuron, which is why the
whole conversion can be exact.
"""

import numpy as np

from spikecast.graph import QcfsConfig
from spikecast.reference import qcfs, qcfs_levels

cfg = QcfsConfig(L=4, theta=0.25)
print(f"staircase with L={cfg.L}, theta={cfg.theta}\n")

print(f"{'z':>8} {'level':>6} {'act(z)':>8}")
for z in [-0.10, 0.00, 0.03, 0.10, 0.16, 0.22, 0.30, 0.50]:
    arr = np.array([z])
    print(f"{z:8.2f} {qcfs_levels(arr, cfg)[0]:6d} {qcfs(arr, cfg)[0]:8.4f}")

print("\nlevel edges are inclusive: z = (k - 1/2) * theta / L maps to level k")
edges = (np.arange(1, cfg.L + 1) - 0.5) * cfg.theta / cfg.L
print("  edges ", np.round(edges, 5), "->", qcfs_levels(edges, cfg))

rng = np.random.default_rng(0)
z = rng.normal(0.1, 0.15, size=20000)
out = qcfs(z, cfg)
assert np.array_equal(qcfs(out, cfg), out), "staircase must be idempotent"
counts = np.bincount(qcfs_levels(z, cfg), minlength=cfg.L + 1)
print("\nlevel histogram of 20000 normal samples:")
width = counts.max()
for k, count in enumerate(counts):
    bar = "#" * int(round(40 * count / width))
    print(f"  level {k} ({k * cfg.theta / cfg.L:.4f}): {count:6d} {bar}")
