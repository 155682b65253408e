"""Per-op correctness checks, and the self-check that each one can fail.

``pair_problems`` checks one reference/spiking pair against the method's
properties; ``oracle_problems`` checks the reference pass against the
independent float64 oracle. Each returns a list of problem strings; an empty
list means the op passed.
"""

import numpy as np

from oracles import staircase_forward

REL_TOL = 1e-4       # certification tolerance of the method
ORACLE_TOL = 1e-9    # float64 oracle vs reference: summation order only


def rel_dev(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if want.size == 0:
        return 0.0
    scale = float(np.max(np.abs(want)))
    dev = float(np.max(np.abs(got.reshape(want.shape) - want)))
    return dev / scale if scale > 0 else dev


def deviating_rows(got, want, tol=REL_TOL):
    """Batch rows of ``got`` that differ from ``want`` beyond tol (relative)."""
    want = np.asarray(want, dtype=np.float64)
    got = np.asarray(got, dtype=np.float64).reshape(want.shape)
    scale = max(float(np.max(np.abs(want))), 1e-300) if want.size else 1.0
    return np.abs(got - want).reshape(len(want), -1).max(axis=1) > tol * scale


def pair_problems(graph, model, ref, logits, snn_trace, stats):
    """Argmax, logit and per-layer timestep-sum agreement; spike values in
    {0, theta*}; stage lengths (L_in, max(L_in, L_out)-1, L_out); emitted
    spikes = clamp(counter, 0, L_out), placed in the first timesteps."""
    problems = []
    if not np.array_equal(ref.logits.argmax(axis=1), logits.argmax(axis=1)):
        problems.append("argmax disagreement")
    dev = rel_dev(logits * model.final_timesteps, ref.logits)
    if dev > REL_TOL:
        problems.append(f"logit deviation {dev:.3e}")
    for layer in graph.layers:
        dev = rel_dev(snn_trace.sums[layer.id], ref.outputs[layer.id])
        if dev > REL_TOL:
            problems.append(f"{layer.id}: timestep-sum deviation {dev:.3e}")
    for lid, train in snn_trace.trains.items():
        cfg = graph.layer(lid).qcfs
        theta_star = cfg.theta / cfg.L
        vals = train.dense()
        if train.theta_star != theta_star or not np.all((vals == 0.0) | (vals == theta_star)):
            problems.append(f"{lid}: spike value outside {{0, theta*}}")
        if train.timesteps != cfg.L:
            problems.append(f"{lid}: emitted train has {train.timesteps} steps, not {cfg.L}")
    for lid, st in stats.items():
        plan = model.if_plans[lid]
        l_in = model.t_map[graph.layer(lid).preds[0]]
        l_out = graph.layer(lid).qcfs.L
        want = (l_in, max(l_in, l_out) - 1, l_out)
        if (plan.l_in, plan.l_out) != (l_in, l_out) or tuple(st.stage_steps) != want:
            problems.append(f"{lid}: stage lengths {st.stage_steps}, want {want}")
        train = snn_trace.trains[lid]
        emit = np.clip(st.counter, 0, l_out)
        ticks = np.arange(1, l_out + 1).reshape((l_out,) + (1,) * emit.ndim)
        if not np.array_equal(train.bits, ticks <= emit[None]) or st.emitted_spikes != int(emit.sum()):
            problems.append(f"{lid}: emitted spikes differ from clamp(counter, 0, L_out)")
    return problems


def report_problems(report, graph):
    """check_equivalence's certificate must pass and cover every layer."""
    problems = []
    if report.argmax_agreement != 1.0:
        problems.append(f"certificate argmax agreement {report.argmax_agreement}")
    if report.max_rel_dev > REL_TOL or report.max_logit_dev > REL_TOL:
        problems.append(f"certificate deviation {report.max_rel_dev:.3e} / "
                        f"{report.max_logit_dev:.3e}")
    if [d.layer_id for d in report.per_layer] != [l.id for l in graph.layers]:
        problems.append("certificate does not cover every layer")
    return problems


def oracle_problems(graph, x, ref):
    """The reference pass against the float64 staircase oracle."""
    logits, hists = staircase_forward(graph, x)
    problems = []
    if not np.array_equal(logits.argmax(axis=1), ref.logits.argmax(axis=1)):
        problems.append("oracle argmax differs from ann_forward")
    dev = rel_dev(ref.logits, logits)
    if dev > ORACLE_TOL:
        problems.append(f"oracle logit deviation {dev:.3e}")
    for lid, counts in hists.items():
        if not np.array_equal(np.asarray(ref.histograms[lid]), counts):
            problems.append(f"{lid}: level histogram differs from the oracle")
    return problems


def mutation_self_check(graph, model, x, ref, logits, snn_trace, stats):
    """Corrupt one clean op three ways; each corruption must be rejected.

    Returns the cases that slipped through (empty on success).
    """
    missed = []
    if pair_problems(graph, model, ref, logits, snn_trace, stats) or oracle_problems(graph, x, ref):
        return ["the clean op itself does not pass"]

    lid, train = next((k, t) for k, t in snn_trace.trains.items() if k in stats)
    flipped = train.bits.copy()
    flipped.reshape(-1)[0] ^= True
    trains = dict(snn_trace.trains, **{lid: type(train)(bits=flipped, theta_star=train.theta_star)})
    bad_trace = type(snn_trace)(sums=snn_trace.sums, trains=trains)
    if not pair_problems(graph, model, ref, logits, bad_trace, stats):
        missed.append("one emitted spike flipped")

    moved = logits.copy()
    moved[0, 0] += 2 * REL_TOL * float(np.max(np.abs(ref.logits))) / model.final_timesteps
    if not pair_problems(graph, model, ref, moved, snn_trace, stats):
        missed.append("one logit moved beyond 1e-4 relative")

    hid, counts = next(iter(ref.histograms.items()))
    counts = np.asarray(counts).copy()
    k = int(np.argmax(counts))
    counts[k] -= 1
    counts[(k + 1) % len(counts)] += 1
    bad_ref = type(ref)(outputs=ref.outputs, pre_activations=ref.pre_activations,
                        histograms=dict(ref.histograms, **{hid: counts}), logits=ref.logits)
    if not oracle_problems(graph, x, bad_ref):
        missed.append("one histogram bin moved")
    return missed
