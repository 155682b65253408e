"""Print the count and SHA-256 of spikecast's bitwise digest set.

A change meant to keep every output bitwise equal runs this on its own tree
and on the parent's, and compares the summary lines:

    python3 tools/digest.py                      # the tree holding this file
    python3 tools/digest.py --repo ../parent     # another checkout
    python3 tools/digest.py --list               # one line per digest
    python3 tools/digest.py --peaks              # also each VGG pass's peak and held bytes

The set holds one SHA-256 per array or record: the logits; every
LayerTrace output, pre-activation and histogram; every SnnTrace sum and
spike train; every IfStats count and counter; and every
check_equivalence report. The runs are VGG-16/CIFAR-10 at L=4 with batch
1, the layerwise mixed steps at batch 8, ann_forward at L=4 with batch 32,
the acceptance gate's 200 models (seed 20240813, from
tests/conftest.random_graph) and the 8 level-edge probes
(tests/conftest.probe_graph on tests/conftest.level_grid). Every pass runs
twice, so warm caches are covered as well as cold ones. A checkout given by
--repo must have these three builders in its tests/conftest.py.

The second summary line, "integer digests", covers the integer tier: every
histogram, spike train, IfStats record and counter (the same lines as in
the full set) plus each pass's logits.argmax(axis=1), which is in this tier
only, so the first line is unchanged. A float digest may move with the BLAS
kernel that runs; an integer digest moves only when some neuron's level or
spike count, or some predicted class, does. --list prints the tier's lines
after the full set, each prefixed "integer".

With --peaks, every VGG pass also prints the tracemalloc peak it reached
above the bytes held when it started, and the bytes its result still
holds once the pass is over, so held and transient memory can be told
apart: the LayerTrace, the SnnTrace plus the IfStats with their kept
counters, or the report for ``report``. The ``report`` pass is one
check_equivalence on warm caches. The cyclic garbage collector is off while
a pass is measured, and a "warning:" line follows any pass that left
objects only that collector frees: a trace in a reference cycle frees
nothing on del and reads held 0.00 MB. Tracing changes no digest.
"""

import argparse
import gc
import hashlib
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np

MIXED_STEPS = [8, 4, 2, 1, 2, 4, 8, 4, 1, 2, 8, 2, 4, 1, 4]
GATE_SEED, GATE_MODELS, GATE_BATCH = 20240813, 200, 5
PROBES = range(8)


def _line(name, value):
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(json.dumps(value, sort_keys=True).encode())
    return f"{name} {h.hexdigest()}"


def _summary(lines, what):
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return f"{len(lines)} {what}, sha256 {total}"


class Digests:
    """The digest lines of the full set and of its integer tier."""

    def __init__(self):
        self.lines, self.integer_lines = [], []

    def add(self, name, value, integer=False):
        """Digest value in the full set and, if integer, in the integer tier too."""
        self.lines.append(_line(name, value))
        if integer:
            self.integer_lines.append(self.lines[-1])

    def add_integer(self, name, value):
        """Digest value in the integer tier only, so the full set is unchanged."""
        self.integer_lines.append(_line(name, value))

    def summary(self):
        return _summary(self.lines, "digests")

    def integer_summary(self):
        return _summary(self.integer_lines, "integer digests")


def ann_pass(sc, d, name, graph, x):
    ref = sc.reference.ann_forward(graph, x)
    d.add(f"{name}/ann/logits", ref.logits)
    d.add_integer(f"{name}/ann/argmax", ref.logits.argmax(axis=1))
    for lid, out in ref.outputs.items():
        d.add(f"{name}/ann/out/{lid}", out)
    for lid in ref.pre_activations:
        d.add(f"{name}/ann/pre/{lid}", ref.pre_activations[lid])
        d.add(f"{name}/ann/hist/{lid}", ref.histograms[lid], integer=True)
    return ref


def snn_pass(sc, d, name, model, x):
    trace = sc.runtime.SnnTrace()
    logits, stats = sc.runtime.snn_forward(model, x, trace=trace, keep_counters=True)
    d.add(f"{name}/snn/logits", logits)
    d.add_integer(f"{name}/snn/argmax", logits.argmax(axis=1))
    for lid, total in trace.sums.items():
        d.add(f"{name}/snn/sum/{lid}", total)
    for lid, train in trace.trains.items():
        d.add(f"{name}/snn/train/{lid}", train.bits, integer=True)
        d.add(f"{name}/snn/theta/{lid}", float(train.theta_star).hex())
    for lid, st in stats.items():
        d.add(f"{name}/snn/stats/{lid}",
              [list(st.stage_steps), st.stage1_spikes, st.stage2_excitatory,
               st.stage2_inhibitory, st.emitted_spikes, st.elements, st.timesteps],
              integer=True)
        d.add(f"{name}/snn/counter/{lid}", st.counter, integer=True)
    return trace, stats


def report(sc, d, name, graph, x, model):
    rep = sc.runtime.check_equivalence(graph, x, model).to_dict()
    # floats as hex, so the digest sees every bit
    rep["per_layer"] = [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()}
                        for row in rep["per_layer"]]
    d.add(f"{name}/report", {k: v.hex() if isinstance(v, float) else v for k, v in rep.items()})
    return rep


def peak_of(show, label, fn, *args):
    """fn(*args); with show set, print the tracemalloc peak fn reached above
    the bytes held when it started, and the bytes its result holds: what is
    freed when the result is dropped. The cyclic garbage collector is off
    meanwhile, so a result that holds itself through a cycle frees nothing
    on del; a warning names the pass and the objects the collector finds."""
    if not show:
        fn(*args)
        return
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        del result
        held -= tracemalloc.get_traced_memory()[0]
        print(f"peak {label} {(peak - base) / 1e6:.2f} MB held {held / 1e6:.2f} MB")
        cyclic = gc.collect()
        if cyclic:
            print(f"warning: {label} left {cyclic} objects to the cyclic garbage collector")
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()


def both_passes(sc, d, name, graph, x, peaks=False):
    model = sc.runtime.convert(graph)
    for rep in range(2):
        peak_of(peaks, f"{name}/{rep}/ann", ann_pass, sc, d, f"{name}/{rep}", graph, x)
        peak_of(peaks, f"{name}/{rep}/snn", snn_pass, sc, d, f"{name}/{rep}", model, x)
    peak_of(peaks, f"{name}/report", report, sc, d, name, graph, x, model)


def collect(sc, fixtures, peaks=False):
    d = Digests()
    rng = np.random.default_rng(3)
    for name, steps, batch in (("vgg16-b1", 4, 1), ("vgg16-mixed-b8", MIXED_STEPS, 8)):
        text = sc.zoo.vgg16_manifest(classes=10, steps=steps)
        graph = sc.graph.init_random(sc.graph.parse_manifest(text), 3)
        both_passes(sc, d, name, graph, rng.uniform(0.0, 1.0, size=(batch, 3, 32, 32)), peaks)
    graph = sc.graph.init_random(sc.graph.parse_manifest(sc.zoo.vgg16_manifest(10, 4)), 5)
    x = rng.uniform(0.0, 1.0, size=(32, 3, 32, 32))
    for rep in range(2):
        peak_of(peaks, f"calibrate-b32/{rep}/ann", ann_pass, sc, d, f"calibrate-b32/{rep}",
                graph, x)
    del graph, x

    gate = np.random.default_rng(GATE_SEED)
    for i in range(GATE_MODELS):
        graph = fixtures.random_graph(gate)
        x = gate.uniform(0.0, 1.0, size=(GATE_BATCH,) + graph.input_layer.shape)
        both_passes(sc, d, f"gate{i}", graph, x)
    grid = fixtures.level_grid()
    for seed in PROBES:
        both_passes(sc, d, f"probe{seed}", fixtures.probe_graph(seed), grid)
    return d


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to digest (default: the one holding this tool)")
    parser.add_argument("--list", action="store_true", help="print every digest")
    parser.add_argument("--peaks", action="store_true",
                        help="print the tracemalloc peak of each VGG pass and the "
                             "bytes its trace holds after it")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    if not (repo / "src" / "spikecast").is_dir():
        parser.error(f"{repo} holds no src/spikecast")
    sys.path[:0] = [str(repo / "src"), str(repo / "tests")]
    import conftest
    import spikecast as sc
    import spikecast.zoo  # noqa: F401  (not exported by the package)

    d = collect(sc, conftest, args.peaks)
    if args.list:
        print("\n".join(d.lines))
        print("\n".join(f"integer {line}" for line in d.integer_lines))
    print(d.summary())
    print(d.integer_summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
