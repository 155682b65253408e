"""spikecast: exact conversion of quantized-activation networks to spiking form.

The package splits into:

  kernels      dense NCHW inference primitives
  graph        manifests, weight blobs, seeded initialization
  reference    quantized-activation forward pass and the graph walk both
               passes share
  runtime      conversion engine and staged integrate-and-fire simulator
  sensitivity  per-layer level statistics, clustering, step assignment
  energy       op counts, overhead-weighted timesteps, energy ratios
  cli          command-line front end
"""

from .graph import (GraphError, ModelGraph, QcfsConfig, init_random,
                    load_weights, parse_manifest, save_weights,
                    serialize_manifest)
from .kernels import (BnAffine, ConvParams, KernelError, avg_pool2d, conv2d,
                      fully_connected, fused_bn_affine)
from .reference import LayerTrace, ann_forward, qcfs
from .runtime import (ConversionError, EquivalenceReport, IfLayer, IfStats,
                      SnnTrace, SpikeTrain, SpikingModel, check_equivalence,
                      convert, if_generic_layer, if_input_layer, snn_forward)
from .sensitivity import (LevelHistogram, MetricError, cluster_1d, default_alpha,
                          kurtosis, skewness, van_der_eijk_a)
from .energy import (ENERGY, EnergyModelError, MatMulDims, ann_snn_energy_ratio,
                     dims_from_graph, golden_table, op_counts, overall_r_e,
                     r_e_layer, r_prime, t_eff, t_norm)

__version__ = "0.1.0"
