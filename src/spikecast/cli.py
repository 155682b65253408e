"""Command-line interface.

Subcommands
  convert      write the spiking bundle: the manifest and its weight blobs
  check-equiv  certify reference/spiking agreement on seeded random inputs
  al-metric    per-layer sensitivity statistics, clustering and step hints
  energy       op counts, overhead-weighted timesteps and energy ratios

Exit codes are stable: 0 success, 1 check failed, 2 invalid input or model,
or a file that cannot be read or written.
Reports are written as canonical JSON (sorted keys, floats at 6 significant
digits) plus a CSV sibling where a flat table makes sense, so identical
configurations produce byte-identical files.
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import energy as energy_model
from . import runtime, sensitivity
from .graph import init_random, load_weights, parse_manifest, save_weights, serialize_manifest
from .reference import ann_forward
from .runtime import convert, snn_forward

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2


class CliError(ValueError):
    pass


def _fmt(x):
    """6 significant digits for floats, exact rendering for integers."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.6g}"


def _round6(obj):
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return None
        return float(f"{v:.6g}")
    return obj


def write_json(path, obj):
    text = json.dumps(_round6(obj), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else _fmt(v) if isinstance(v, float) else v
                         for v in row])
    Path(path).write_text(buf.getvalue())


def _load_graph(args):
    if not args.manifest:
        raise CliError(f"{args.command} needs --manifest")
    return parse_manifest(Path(args.manifest).read_text())


def _add_weights(args, graph):
    if bool(args.weights) == (args.seed is not None):
        raise CliError("provide exactly one of --weights or --seed")
    if args.weights:
        return load_weights(graph, args.weights)
    return init_random(graph, args.seed)


def _load_inputs(args, graph):
    """One (N, C, H, W) batch: a raw f32 blob or a seeded uniform batch."""
    shape = graph.input_layer.shape
    if args.inputs:
        raw = np.fromfile(args.inputs, dtype="<f4").astype(np.float64)
        per = int(np.prod(shape))
        if raw.size == 0 or raw.size % per:
            raise CliError(f"input blob holds {raw.size} floats, not a multiple of {per}")
        return raw.reshape((-1,) + shape)
    if args.n < 1:
        raise CliError(f"--n must be at least 1, got {args.n}")
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(np.uint64(seed) + 0x5EED)
    return rng.uniform(0.0, 1.0, size=(args.n,) + shape)


def _config_echo(args, extra=None):
    echo = {
        "manifest": getattr(args, "manifest", None),
        "weights": getattr(args, "weights", None),
        "seed": getattr(args, "seed", None),
        "inputs": getattr(args, "inputs", None),
    }
    if extra:
        echo.update(extra)
    return {k: v for k, v in echo.items() if v is not None}


# ---------------------------------------------------------------------------
# convert


def cmd_convert(args):
    if not args.out:
        raise CliError("convert needs --out")
    graph = _add_weights(args, _load_graph(args))
    model = convert(graph)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(serialize_manifest(graph) + "\n")
    save_weights(graph, out)
    print(f"wrote spiking bundle to {out} "
          f"({len(model.if_plans)} integrate-and-fire layers)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-equiv


def cmd_check_equiv(args):
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise CliError(f"--tol must be a finite number >= 0, got {args.tol}")
    graph = _add_weights(args, _load_graph(args))
    inputs = _load_inputs(args, graph)
    report = runtime.check_equivalence(graph, inputs)
    doc = report.to_dict()
    doc["config"] = _config_echo(args, {"n": inputs.shape[0], "tol": args.tol})
    if args.out:
        write_json(args.out, doc)
    ok = report.argmax_agreement == 1.0 and report.max_rel_dev <= args.tol
    print(f"argmax agreement {report.argmax_agreement * 100:.6g}% over "
          f"{inputs.shape[0]} inputs; max relative layer deviation "
          f"{_fmt(report.max_rel_dev)} (tolerance {_fmt(args.tol)}); "
          f"max logit deviation {_fmt(report.max_logit_dev)}; "
          f"{report.inhibitory_spikes} inhibitory spikes")
    if not ok:
        worst = max(report.per_layer, key=lambda d: d.rel_dev)
        print(f"check FAILED: worst layer '{worst.layer_id}' deviates "
              f"{_fmt(worst.rel_dev)} relative", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print("check passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# al-metric


def cmd_al_metric(args):
    graph = _load_graph(args)
    alpha = args.alpha
    if alpha is None:
        alpha = sensitivity.default_alpha(len(graph.matmul_layers()))
    # check the settings before drawing weights and running the batch
    sensitivity._check_alpha(alpha)
    sensitivity._check_chi(args.chi)
    graph = _add_weights(args, graph)
    inputs = _load_inputs(args, graph)
    trace = ann_forward(graph, inputs)
    rows = sensitivity.analyze_trace(trace, graph, alpha=alpha, chi=args.chi)
    table = sensitivity.report_rows(rows)
    doc = {
        "layers": table,
        "config": _config_echo(args, {"alpha": alpha, "chi": args.chi,
                                      "images": inputs.shape[0]}),
    }
    if args.out:
        out = Path(args.out)
        write_json(out, doc)
        write_csv(out.with_suffix(".csv"),
                  ["layer", "A", "g", "kurtosis", "M", "cluster", "assigned_L"],
                  [[r["layer"], r["agreement"], r["skewness"], r["kurtosis"],
                    r["metric"], r["cluster"], r["assigned_L"]] for r in table])
    for r in table:
        if r["flag"]:
            print(f"{r['layer']}: flagged ({r['flag']})")
        else:
            print(f"{r['layer']}: A={_fmt(r['agreement'])} g={_fmt(r['skewness'])} "
                  f"K={_fmt(r['kurtosis'])} M={_fmt(r['metric'])} "
                  f"cluster={r['cluster']} L={r['assigned_L']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# energy


def _parse_steps(text):
    if text is None:
        return 4
    parts = text.split(",")
    if not all(p.strip().isdecimal() and int(p) >= 1 for p in parts):
        raise CliError(f"--L takes integers >= 1, one or comma-separated, got {text!r}")
    values = [int(p) for p in parts]
    return values[0] if len(values) == 1 else values


def _layerwise_steps(steps, dims, graph):
    """A --L vector as one step per matmul layer.

    A vector with one entry per activation layer, in graph order, sets the
    activations' steps, and each matmul takes its step as
    energy.dims_from_graph assigns it.
    """
    if len(steps) == len(dims):
        return steps
    acts = [l.id for l in graph.qcfs_layers()]
    if len(steps) != len(acts):
        raise CliError(f"--L has {len(steps)} entries; give one per matmul layer "
                       f"({len(dims)}) or one per activation layer ({len(acts)})")
    return energy_model.dims_from_graph(graph, dict(zip(acts, steps)))[1]


def _measured_rates(model, sources, inputs):
    """Per-matmul spike rate of the train each matmul consumes, as emitted
    spikes per neuron (IfStats.spike_rate for a generic layer).

    Prefix layers see the real-valued image; they are MAC-counted anyway
    and get the mean rate of all trains so the ratio columns stay defined.
    """
    trace = runtime.SnnTrace()
    snn_forward(model, inputs, trace=trace)
    counts = {lid: train.spike_counts() for lid, train in trace.trains.items()}
    rates = {lid: int(c.sum()) / c.size for lid, c in counts.items()}
    mean_rate = float(np.mean(list(rates.values()))) if rates else energy_model.ASSUMED_SPIKE_RATE
    return [max(rates.get(src, mean_rate), 1e-12) for src in sources]


def _check_rate(args):
    """--rate as "measured" (with --manifest only) or a finite positive float,
    energy.ASSUMED_SPIKE_RATE when it is not given."""
    if args.rate == "measured" and args.golden:
        raise CliError("--rate measured needs --manifest: a golden target has no "
                       "weights to measure")
    if args.rate is None:
        return energy_model.ASSUMED_SPIKE_RATE
    if args.rate == "measured":
        return args.rate
    try:
        rate = float(args.rate)
    except ValueError:
        rate = math.nan
    if not (math.isfinite(rate) and rate > 0):
        raise CliError(f"--rate must be 'measured' or a finite positive number, "
                       f"got {args.rate!r}")
    return rate


def cmd_energy(args):
    rate = _check_rate(args)
    steps = _parse_steps(args.L)
    if args.golden:
        rows, totals = energy_model.golden_table(args.golden)
        timesteps = None
        if args.L is not None:
            graph = energy_model.golden_graph(args.golden)
            dims = energy_model.dims_from_graph(graph)[0]
            if isinstance(steps, int):
                tn = energy_model.t_norm(dims, steps, rate)
                timesteps = f"T_norm (L={steps}, rate={_fmt(rate)}): {_fmt(tn)}"
            else:
                te = energy_model.t_eff(dims, _layerwise_steps(steps, dims, graph), rate)
                label = ",".join(map(str, steps))
                timesteps = f"T_eff (L={label}, rate={_fmt(rate)}): {_fmt(te)}"
        print(f"{'Layer':34} {'Input':>14} {'Output':>14} {'#MACs':>16}")
        for name, in_d, out_d, macs in rows:
            printed = "-" if macs is None else f"{macs:,}"
            print(f"{name:34} {in_d:>14} {out_d:>14} {printed:>16}")
        for head, total in totals.items():
            print(f"Total Operations ({head}): {total:,}")
        if args.out:
            write_csv(args.out, ["layer", "input", "output", "macs"], rows)
        if timesteps:
            print(timesteps)
        return EXIT_OK

    if not args.manifest:
        raise CliError("energy needs --golden or --manifest")
    measured = rate == "measured"
    graph = _load_graph(args)
    dims, graph_steps, sources = energy_model.dims_from_graph(graph)
    if measured:
        graph = _add_weights(args, graph)
        rates = _measured_rates(convert(graph), sources, _load_inputs(args, graph))
        rate_label = "measured"
    else:
        rates = rate
        rate_label = "assumed"
    if args.L is None:
        steps = graph_steps
    elif not isinstance(steps, int):
        steps = _layerwise_steps(steps, dims, graph)
    report = energy_model.build_report(dims, steps, spike_rate=rates, rate_label=rate_label)
    report["config"] = _config_echo(args, {"L": steps, "rate": rate_label})
    agg = report["aggregates"]
    for key in ("t_norm", "t_eff"):
        if key in agg:
            print(f"{key}: {_fmt(agg[key])}")
    print(f"total matmul ops: {agg['total_ann_macs']:,}")
    print(f"overall staged/plain energy ratio: {_fmt(agg['overall_r_e'])}")
    print(f"ANN/SNN energy ratio: {_fmt(agg['energy_ratio_fp32'])} (fp32), "
          f"{_fmt(agg['energy_ratio_int8'])} (int8)")
    if args.out:
        out = Path(args.out)
        write_json(out, report)
        write_csv(out.with_suffix(".csv"),
                  ["layer", "kind", "L", "spike_rate", "ann_macs", "snn_acs",
                   "threshold_mults", "r_prime", "r_e"],
                  [[r["layer"], r["kind"], r["L"], r["spike_rate"], r["ann_macs"],
                    r["snn_acs"], r["threshold_mults"], r["r_prime"], r["r_e"]]
                   for r in report["per_layer"]])
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spikecast",
        description="Convert quantized-activation networks to spiking networks, "
                    "certify the conversion, and analyze sensitivity and energy.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weights=True, inputs=True):
        p.add_argument("--manifest", help="model manifest JSON")
        if weights:
            p.add_argument("--weights", help="directory of per-layer .f32 blobs")
            p.add_argument("--seed", type=int, help="seeded random weights/inputs")
        if inputs:
            p.add_argument("--inputs", help="raw float32 input blob")
            p.add_argument("--n", type=int, default=16,
                           help="random input count when no blob is given")
        p.add_argument("--out", help="output path")

    p = sub.add_parser("convert", help="write the converted spiking bundle")
    common(p, inputs=False)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("check-equiv", help="certify reference/spiking agreement")
    common(p)
    p.add_argument("--tol", type=float, default=1e-4,
                   help="max relative per-layer deviation")
    p.set_defaults(func=cmd_check_equiv)

    p = sub.add_parser("al-metric", help="layer sensitivity metrics and clustering")
    common(p)
    p.add_argument("--alpha", type=float, help="agreement occupancy threshold")
    p.add_argument("--chi", type=int, default=1, help="cluster count")
    p.set_defaults(func=cmd_al_metric)

    p = sub.add_parser("energy", help="op counts, timesteps, energy ratios")
    common(p)
    p.add_argument("--golden", choices=energy_model.GOLDEN_NAMES,
                   help="print a built-in reference op-count table")
    p.add_argument("--L", help="uniform step or comma-separated layerwise vector")
    p.add_argument("--rate", default=None,
                   help="'measured' or a spike-rate value "
                        f"(default {energy_model.ASSUMED_SPIKE_RATE})")
    p.set_defaults(func=cmd_energy)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:     # every spikecast error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
