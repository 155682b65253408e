"""spikecast benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload vgg16-b1 --seed 1 --seconds 15 --trace 0

Run from the repository root; spikecast is imported from ./src. One process,
one caller, closed loop: each op starts when the previous one has been
checked. BLAS threads are capped at min(2, nproc) through the process
environment before numpy loads. With --trace 0 the last line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run, and the lines before it hold the per-network-layer table.
See bench/README.md for the workloads and metrics.
"""

import argparse
import os
import sys

BLAS_THREADS = str(max(1, min(2, os.cpu_count() or 1)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import ctypes      # noqa: E402
import glob        # noqa: E402
import importlib   # noqa: E402
import json        # noqa: E402
import platform    # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 5
PEAK_OPS = 32         # ops whose tracemalloc peak is averaged into peak_mb


def import_spikecast():
    """A fresh import of spikecast from ./src: (package, seconds).

    Exits with status 1 when ./src holds no spikecast, or when the import
    resolves to another copy.
    """
    if not (SRC / "spikecast" / "__init__.py").is_file():
        sys.exit(f"bench: no spikecast sources under {SRC}; run from the repository root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "spikecast" or m.startswith("spikecast.")]:
        del sys.modules[name]
    start = perf_counter()
    sc = importlib.import_module("spikecast")
    for name in ("kernels", "graph", "reference", "runtime", "sensitivity", "energy", "zoo"):
        importlib.import_module(f"spikecast.{name}")
    elapsed = perf_counter() - start
    if Path(sc.__file__).resolve().parent != (SRC / "spikecast").resolve():
        sys.exit(f"bench: spikecast was imported from {sc.__file__}, not from {SRC}")
    return sc, elapsed


def environment():
    blas = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    threads, core = None, None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        cfg = getattr(lib, "scipy_openblas_get_config64_", None)
        if cfg is not None:
            cfg.restype = ctypes.c_char_p
            core = cfg().decode()
    rev, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_config": core or blas.get("openblas configuration"),
            "blas_threads_set": int(BLAS_THREADS), "blas_threads_in_effect": threads,
            "git_rev": rev, "git_dirty": dirty}


def median(values):
    return statistics.median(values) if values else 0.0


def peak_mb(call):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    # set-up, repeated: a fresh import, then the workload's own set-up on
    # the same seed; the last repeat's package and state are the ones used
    setups = []
    for _ in range(SETUP_REPEATS):
        sc, import_s = import_spikecast()
        wl = workloads.WORKLOADS[args.workload](sc, workloads.Capture(sc))
        rng = np.random.default_rng(args.seed)
        start = perf_counter()
        pending = wl.setup(rng)
        setups.append(import_s + perf_counter() - start)
    setup_s = median(setups)
    print("env " + json.dumps(environment(), sort_keys=True))

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(sc)

    problems, attempted, failed = [], 0, 0
    ann_s, op_s, items = [], [], 0
    traced_op_s, untraced_op_s, op_records, first_round = [], [], [], None
    layer_rows, table_report = [], None
    timed, rounds = 0.0, 0
    # whole rounds until the timed ops add up to --seconds; a traced run
    # alternates untraced and traced rounds and needs one of each
    while rounds < (2 if tracer else 1) or timed < args.seconds:
        batch = pending if pending is not None else wl.round(rng)
        pending = None
        traced = tracer is not None and rounds % 2 == 1
        records = []
        for item in batch:
            if tracer:
                tracer.active = traced
            out = wl.op(item)
            if tracer:
                tracer.active = False
            attempted += 1
            timed += out["op_s"]
            if tracer is None:
                ann_s += out["ann_s"]
                op_s.append(out["op_s"])
                items += wl.items(item)
            else:
                (traced_op_s if traced else untraced_op_s).append(out["op_s"])
            is_failed, found = wl.check(item, out)
            failed += is_failed
            problems += found
            if traced:
                spans = tracer.take()
                tracer.active = True
                report = wl.energy(item, out)
                tracer.active = False
                spans += tracer.take()
                records.append(dict(tracing.op_metrics(spans), **energy_metrics(report)))
                if isinstance(wl, workloads.Vgg):
                    layer_rows.append(network_layer_rows(wl.graph, spans))
                    table_report = table_report or report
            del out
        if traced:
            op_records += records
            first_round = first_round or records
        rounds += 1

    # untimed: peak memory, op-count oracle, mutation self-check; the peak
    # is taken on a fixed sample so that it repeats exactly
    peak_rng = np.random.default_rng(0)
    peaks, peak_items = [], []
    while len(peak_items) < (PEAK_OPS if isinstance(wl, workloads.CertifyRandom) else 1):
        peak_items += wl.round(peak_rng)
    for item in peak_items[:PEAK_OPS]:
        peaks.append(peak_mb(lambda: wl.call(item)))
    problems += mac_problems(sc)
    missed = mutation_check(sc)
    problems += [f"mutation not rejected: {m}" for m in missed]

    if isinstance(wl, workloads.CertifyRandom):
        print(f"level-edge units where the passes split: {wl.edge_units}; the exact-arithmetic "
              f"level was picked by ann_forward in {wl.ann_exact}, by snn_forward in {wl.snn_exact}")
    for p in dict.fromkeys(problems):
        print("PROBLEM", p)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ann_ms_p50": (1e3 * median(ann_s), "ms"),
            "op_ms_p50": (1e3 * median(op_s), "ms"),
            "items_per_s": (items / sum(op_s), "1/s"),
            "peak_mb": (float(np.mean(peaks)), "MB"),
        }
        if len(op_s) >= 200:
            print(f"op_ms_p95 {1e3 * np.percentile(op_s, 95):.4f} ms over {len(op_s)} ops")
    else:
        metrics = per_layer_metrics(op_records, first_round, traced_op_s, untraced_op_s)
        if layer_rows:
            print_layer_table(wl.graph, layer_rows, table_report)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {attempted} failed {failed} ops in {rounds} rounds, {timed:.2f} s timed")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


def energy_metrics(report):
    agg = report["aggregates"]
    return {"energy.ann_macs": agg["total_ann_macs"],
            "energy.snn_acs": sum(r["snn_acs"] for r in report["per_layer"]),
            "energy.t_weighted": agg.get("t_norm", agg.get("t_eff"))}


COUNT_METRICS = ("kernels.conv2d.calls", "kernels.conv2d.patch_rows", "kernels.conv2d.macs",
                 "kernels.conv2d.im2col_mb", "runtime.neuron_steps", "runtime.stage1_spikes",
                 "runtime.stage2_excitatory", "runtime.stage2_inhibitory",
                 "runtime.emitted_spikes", "runtime.spike_rate", "energy.ann_macs",
                 "energy.snn_acs", "energy.t_weighted")


def per_layer_metrics(records, first_round, traced_s, untraced_s):
    """Counts: per-op mean over the first traced round (exact for a seed).
    Times: per-op median over every traced op."""
    units = {"calls": "count", "patch_rows": "count", "macs": "MAC", "mac_per_s": "MAC/s",
             "im2col_mb": "MB", "cast_mb": "MB", "spike_rate": "spikes/neuron",
             "ann_macs": "MAC", "snn_acs": "AC", "t_weighted": "steps",
             "measured_snn_over_ann": "ratio"}
    out = {}
    for name in records[0]:
        if name in COUNT_METRICS:
            value = sum(r.get(name, 0.0) for r in first_round) / len(first_round)
        else:
            value = median([r.get(name, 0.0) for r in records])
        unit = "ms" if name.endswith("self_ms") else units.get(name.rsplit(".", 1)[-1], "count")
        out[name] = (value, unit)
    for name in COUNT_METRICS:
        out.setdefault(name, (0.0, units.get(name.rsplit(".", 1)[-1], "count")))
    out["trace.overhead_pct"] = (100.0 * (median(traced_s) / median(untraced_s) - 1.0), "%")
    return dict(sorted(out.items()))


def network_layer_rows(graph, spans):
    """{"ann"|"snn": per_network_layer(...)} for the op's two passes."""
    rows = {}
    for name, key in (("reference.ann_forward", "ann"), ("runtime.snn_forward", "snn")):
        root = next((i for i, s in enumerate(spans) if s[0] == name), None)
        if root is None:
            continue
        try:
            rows[key] = tracing.per_network_layer(graph, spans, root)
        except StopIteration:
            return {}
    return rows


def print_layer_table(graph, layer_rows, report):
    by_layer = {r["layer"]: r for r in report["per_layer"]}
    agg = report["aggregates"]
    t_name = "t_norm" if "t_norm" in agg else "t_eff"
    print(f"per-network-layer table ({len(layer_rows)} traced ops, medians); "
          f"{t_name} {agg[t_name]:.4f}, overall r_E {agg['overall_r_e']:.6f}")
    print(f"{'layer':10} {'ann_ms':>8} {'snn_ms':>8} {'snn/ann':>7} {'rows':>9} "
          f"{'MACs/img':>11} {'ACs/img':>13} {'rate':>6} {'r_E':>7} "
          f"{'ann GMAC/s':>10} {'snn GMAC/s':>10}")
    tot_ann = tot_snn = 0.0
    layers = [l for l in graph.layers if l.kind in ("conv", "fc", "qcfs_act", "avg_pool")]
    macs = {row[0]: row[-1] for row in oracles.layer_macs(graph)}
    for layer in layers:
        def med(key, idx):
            vals = [r[key][layer.id][idx] for r in layer_rows if layer.id in r.get(key, {})]
            return median(vals)
        ann_t, snn_t = med("ann", 0), med("snn", 0)
        tot_ann += ann_t
        tot_snn += snn_t
        line = f"{layer.id:10} {1e3 * ann_t:8.2f} {1e3 * snn_t:8.2f} " \
               f"{(snn_t / ann_t if ann_t else 0):7.2f}"
        if layer.id in macs:
            r = by_layer[layer.id]
            rows_ann, rows_snn = med("ann", 1), med("snn", 1)
            k_ann, k_snn = med("ann", 2), med("snn", 2)
            rate_ann = macs[layer.id] * rows_ann / k_ann / 1e9 if k_ann else 0
            rate_snn = macs[layer.id] * rows_snn / k_snn / 1e9 if k_snn else 0
            line += (f" {int(rows_ann)}/{int(rows_snn):<5} {macs[layer.id]:11d} "
                     f"{r['snn_acs'] if r['snn_macs'] == 0 else r['snn_macs']:13.0f} "
                     f"{r['spike_rate']:6.3f} {r['r_e']:7.4f} {rate_ann:10.2f} {rate_snn:10.2f}")
        print(line)
    print(f"{'total':10} {1e3 * tot_ann:8.2f} {1e3 * tot_snn:8.2f} "
          f"{(tot_snn / tot_ann if tot_ann else 0):7.2f}")


def mac_problems(sc):
    """The benchmark's MAC formula against energy.op_counts per VGG-16 layer,
    and its total against the published VGG-16/CIFAR-10 figure."""
    graph = sc.graph.parse_manifest(sc.zoo.vgg16_manifest(classes=10, steps=4))
    problems = []
    total = 0
    for lid, kind, c_in, c_out, k_h, k_w, h_o, w_o, macs in oracles.layer_macs(graph):
        dims = sc.energy.MatMulDims(lid, kind, c_in, c_out, k_h, k_w, h_o, w_o)
        if sc.energy.op_counts(dims, "ann").macs != macs:
            problems.append(f"{lid}: energy.op_counts MACs differ from c_in*c_out*k*k*h*w")
        total += macs
    if total != oracles.VGG16_CIFAR10_MACS:
        problems.append(f"VGG-16/CIFAR-10 MAC total {total} != {oracles.VGG16_CIFAR10_MACS}")
    return problems


def mutation_check(sc):
    """Corrupted results on one clean toy op must each be rejected."""
    graph = sc.graph.init_random(sc.graph.parse_manifest(sc.zoo.toy_manifest()), 42)
    model = sc.runtime.convert(graph)
    x = np.random.default_rng(0).uniform(0.0, 1.0, size=(8, 2, 8, 8))
    ref = sc.reference.ann_forward(graph, x)
    trace = sc.runtime.SnnTrace()
    logits, stats = sc.runtime.snn_forward(model, x, trace=trace, keep_counters=True)
    return checks.mutation_self_check(graph, model, x, ref, logits, trace, stats)


if __name__ == "__main__":
    sys.exit(main())
