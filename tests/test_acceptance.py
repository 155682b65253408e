"""Acceptance gate.

Each test covers one exit criterion at its pinned tolerance and prints a
pass/fail line; run with `pytest tests/test_acceptance.py -v -s` to see
them. The randomized certification (criteria 1-3) draws 1000 model/input
pairs once in a module fixture and the criteria assert against its record.
"""

import time

import numpy as np
import pytest

from spikecast.energy import (MatMulDims, RESNET18_CIFAR_GOLDEN,
                              ann_snn_energy_ratio, overall_r_e, r_e_layer,
                              t_eff, t_norm)
from spikecast.graph import QcfsConfig
from spikecast.kernels import ConvParams, avg_pool2d, conv2d, fully_connected
from spikecast.reference import ann_forward, qcfs
from spikecast.runtime import SnnTrace, convert, snn_forward
from spikecast.sensitivity import (LevelHistogram, cluster_1d, kurtosis, skewness,
                                   van_der_eijk_a)

from conftest import (clustering_sse, negative_weight_graph, random_graph,
                      resnet34_imagenet, vgg16_cifar, vgg16_imagenet)
from test_sensitivity import brute_force_sse

N_MODELS = 200
BATCH = 5        # 200 models x 5 inputs = 1000 randomized pairs
REL_TOL = 1e-4


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def certification():
    """Run the randomized suite once and record everything the gate needs."""
    rng = np.random.default_rng(20240813)
    rec = {
        "pairs": 0, "agree": 0, "max_logit_dev": 0.0, "max_layer_dev": 0.0,
        "inhibitory": 0, "mixed_step_layers": 0, "membership_ok": True,
        "stage_ok": True, "mapping_ok": True, "neg_counter_seen": False,
    }
    start = time.perf_counter()
    for _ in range(N_MODELS):
        graph = random_graph(rng)
        x = rng.uniform(0.0, 1.0, size=(BATCH,) + graph.input_layer.shape)
        model = convert(graph)
        ref = ann_forward(graph, x)
        trace = SnnTrace()
        logits, stats = snn_forward(model, x, trace=trace, keep_counters=True)

        rec["pairs"] += BATCH
        rec["agree"] += int(np.sum(ref.logits.argmax(axis=1) == logits.argmax(axis=1)))
        summed = logits * model.final_timesteps
        scale = max(float(np.max(np.abs(ref.logits))), 1e-30)
        rec["max_logit_dev"] = max(rec["max_logit_dev"],
                                   float(np.max(np.abs(summed - ref.logits))) / scale)
        for layer in graph.layers:
            ann_out = np.asarray(ref.outputs[layer.id])
            snn_sum = np.asarray(trace.sums[layer.id]).reshape(ann_out.shape)
            lscale = max(float(np.max(np.abs(ann_out))), 1e-30)
            rec["max_layer_dev"] = max(rec["max_layer_dev"],
                                       float(np.max(np.abs(snn_sum - ann_out))) / lscale)
        for lid, train in trace.trains.items():
            vals = train.dense()
            if not np.all((vals == 0.0) | (vals == train.theta_star)):
                rec["membership_ok"] = False
        for lid, st in stats.items():
            plan = model.if_plans[lid]
            if plan.l_in != plan.l_out:
                rec["mixed_step_layers"] += 1
            want = (plan.l_in, max(plan.l_in, plan.l_out) - 1, plan.l_out)
            if st.stage_steps != want:
                rec["stage_ok"] = False
            emitted = trace.trains[lid].spike_counts()
            if not np.array_equal(emitted, np.clip(st.counter, 0, plan.l_out)):
                rec["mapping_ok"] = False
            if np.any(st.counter < 0):
                rec["neg_counter_seen"] = True
            rec["inhibitory"] += st.stage2_inhibitory
    rec["elapsed"] = time.perf_counter() - start
    return rec


def test_criterion_1_equivalence_certificate(certification):
    c = certification
    ok = (c["pairs"] >= 1000 and c["agree"] == c["pairs"]
          and c["max_logit_dev"] <= REL_TOL and c["mixed_step_layers"] > 0
          and c["elapsed"] <= 120.0)
    _report(1, ok,
            f"{c['agree']}/{c['pairs']} argmax agreement, max relative logit "
            f"deviation {c['max_logit_dev']:.3e} (tol {REL_TOL}), "
            f"{c['mixed_step_layers']} mixed-step activations, "
            f"{c['elapsed']:.1f}s elapsed")


def test_criterion_2_layer_invariant(certification):
    c = certification
    ok = (c["max_layer_dev"] <= REL_TOL and c["membership_ok"]
          and c["stage_ok"] and c["mapping_ok"])
    _report(2, ok,
            f"max relative layer deviation {c['max_layer_dev']:.3e} (tol {REL_TOL}); "
            f"spike values bitwise in {{0, theta*}}: {c['membership_ok']}; "
            f"stage lengths exact: {c['stage_ok']}; "
            f"counter-to-spike mapping exact: {c['mapping_ok']}")


def test_criterion_3_inhibitory_coverage(certification):
    graph = negative_weight_graph()
    x = np.full((4, 1, 2, 2), 0.9)
    model = convert(graph)
    trace = SnnTrace()
    logits, stats = snn_forward(model, x, trace=trace, keep_counters=True)
    ref = ann_forward(graph, x)
    fixture_inhibitory = sum(st.stage2_inhibitory for st in stats.values())
    fixture_neg_counter = any(np.any(st.counter < 0) for st in stats.values())
    summed = logits * model.final_timesteps
    dev = float(np.max(np.abs(summed - ref.logits))) / max(
        float(np.max(np.abs(ref.logits))), 1e-30)
    agree = bool(np.all(ref.logits.argmax(axis=1) == logits.argmax(axis=1)))
    ok = (certification["inhibitory"] > 0 and fixture_inhibitory > 0
          and fixture_neg_counter and agree and dev <= REL_TOL)
    _report(3, ok,
            f"suite inhibitory spikes {certification['inhibitory']}; fixture "
            f"inhibitory {fixture_inhibitory} with negative counters "
            f"{fixture_neg_counter}, agreement {agree}, deviation {dev:.3e}")


def test_criterion_4_op_count_tables():
    start = time.perf_counter()
    vgg10 = vgg16_cifar(10)
    vgg100 = vgg16_cifar(100)
    vggim = vgg16_imagenet()
    rows_ok = (
        [d.macs for d in vgg10] == [
            1769472, 37748736, 18874368, 37748736, 18874368, 37748736, 37748736,
            18874368, 37748736, 37748736, 9437184, 9437184, 9437184,
            2097152, 16777216, 40960]
        and [d.macs for d in vgg100][-1] == 409600
        and [d.macs for d in vggim] == [
            86704128, 1849688064, 924844032, 1849688064, 924844032, 1849688064,
            1849688064, 924844032, 1849688064, 1849688064, 462422016, 462422016,
            462422016, 102760448, 16777216, 4096000]
        and [m for *_, m in RESNET18_CIFAR_GOLDEN] == [
            1769472, 37748736, 37748736, 37748736, 37748736, 18874368, 9437184,
            2097152, 9437184, 9437184, 4718592, 2359296, 524288, 2359296,
            2359296, 1179648, 589824, 262144, 589824, 589824]
    )
    totals_ok = (
        sum(d.macs for d in vgg10) == 332111872
        and sum(d.macs for d in vgg100) == 332480512
        and sum(d.macs for d in vggim) == 15470264320
        and sum(m for *_, m in RESNET18_CIFAR_GOLDEN) + 5120 == 217584640
        and sum(m for *_, m in RESNET18_CIFAR_GOLDEN) + 51200 == 217630720
    )
    elapsed = time.perf_counter() - start
    _report(4, rows_ok and totals_ok and elapsed < 1.0,
            f"every row and total exact (332,111,872 / 332,480,512 / "
            f"15,470,264,320 / 217,584,640 / 217,630,720) in {elapsed:.3f}s")


def test_criterion_5_overhead_weighted_timesteps():
    got_vgg = t_norm(vgg16_cifar(10), 4, 0.75)
    got_im = t_norm(vgg16_imagenet(), 16, 0.75)
    got_rn = t_norm(resnet34_imagenet(), 8, 0.75)
    ok = (abs(got_vgg - 4.21) <= 0.1 and abs(got_im - 18.37) <= 0.4
          and abs(got_rn - 8.17) <= 0.4)
    _report(5, ok,
            f"T_norm: vgg16/32px L=4 -> {got_vgg:.3f} (4.21 +/- 0.1), "
            f"vgg16/224px L=16 -> {got_im:.3f} (18.37 +/- 0.4), "
            f"resnet34 L=8 -> {got_rn:.3f} (8.17 +/- 0.4)")


def test_criterion_6_energy_ratio_rows():
    table = [
        (1.0, 0.66, 0.005, 7.49, 11.03),
        (1.0, 0.62, 0.005, 7.96, 11.70),
        (1.0, 0.73, 0.006, 6.76, 9.94),
        (1.0, 0.86, 0.008, 5.72, 8.38),
        (1.0, 0.91, 0.008, 5.42, 7.95),
    ]
    results = []
    ok = True
    for a, b, c, want32, want8 in table:
        got32 = ann_snn_energy_ratio(a, b, c, "fp32")
        got8 = ann_snn_energy_ratio(a, b, c, "int8")
        ok = ok and abs(got32 - want32) <= 0.01 and abs(got8 - want8) <= 0.01
        results.append(f"({b},{c}): {got32:.2f}/{got8:.2f}")
    _report(6, ok, "all five rows within +/-0.01: " + ", ".join(results))


def test_criterion_7_overall_overhead_bound():
    value = overall_r_e(vgg16_cifar(10), 4, spike_rate=0.75)
    ok = 1.000 <= value <= 1.01
    _report(7, ok, f"aggregate staged/plain energy ratio {value:.6f} in [1.000, 1.01]")


def test_criterion_8_sensitivity_fixtures():
    a = van_der_eijk_a(LevelHistogram(np.array([10, 0, 5, 0, 0]), 4, 1.0), 0.1)
    bern = LevelHistogram(np.array([3, 1]), 1, 1.0)     # samples {0, 0, 0, 1}
    g = skewness(bern)
    k = kurtosis(bern)
    m = a * (g * g + 1.0) * k
    fixtures_ok = (a == 0.75 and abs(g - 0.75) < 1e-12
                   and abs(k - 17.5) < 1e-10 and abs(m - 20.5078125) < 1e-9)

    rng = np.random.default_rng(99)
    cluster_ok = True
    for n in range(2, 13):
        for chi in range(1, n + 1):
            for _ in range(2):
                values = rng.uniform(0, 10, size=n)
                got = clustering_sse(values, cluster_1d(values, chi))
                want = brute_force_sse(values, chi)
                cluster_ok = cluster_ok and abs(got - want) <= 1e-9
    _report(8, fixtures_ok and cluster_ok,
            f"A={a}, g={g}, K={k}, M={m}; clustering matches exhaustive "
            f"search for all sizes <= 12")


def test_criterion_9_property_suite():
    rng = np.random.default_rng(7)
    failures = []

    for _ in range(200):   # staircase idempotence and monotonicity
        cfg = QcfsConfig(L=int(rng.choice([1, 2, 4, 8])),
                         theta=float(rng.uniform(0.2, 2.0)))
        z = np.sort(rng.uniform(-1.5, 2.5, size=32))
        once = qcfs(z, cfg)
        if not np.array_equal(qcfs(once, cfg), once):
            failures.append("idempotence")
        if np.any(np.diff(once) < 0):
            failures.append("monotonicity")

    p = ConvParams(weights=rng.uniform(-1, 1, size=(2, 2, 3, 3)), padding=(1, 1))
    w = rng.uniform(-1, 1, size=(3, 8))
    for _ in range(200):   # kernel linearity
        a, b = rng.uniform(-2, 2, size=2)
        x4 = rng.uniform(-1, 1, size=(1, 2, 4, 4))
        y4 = rng.uniform(-1, 1, size=(1, 2, 4, 4))
        if not np.allclose(conv2d(a * x4 + b * y4, p),
                           a * conv2d(x4, p) + b * conv2d(y4, p), atol=1e-5):
            failures.append("conv linearity")
        x2 = rng.uniform(-1, 1, size=(1, 8))
        y2 = rng.uniform(-1, 1, size=(1, 8))
        if not np.allclose(fully_connected(a * x2 + b * y2, w),
                           a * fully_connected(x2, w) + b * fully_connected(y2, w),
                           atol=1e-5):
            failures.append("fc linearity")

    for _ in range(200):   # pooling distributes over sums
        parts = rng.uniform(-1, 1, size=(3, 1, 2, 4, 4))
        if not np.allclose(avg_pool2d(parts.sum(axis=0), 2),
                           sum(avg_pool2d(q, 2) for q in parts), atol=1e-5):
            failures.append("pool distributivity")

    for _ in range(200):   # moment scale invariance
        counts = rng.integers(0, 30, size=int(rng.integers(2, 9)))
        if counts.sum() < 5 or np.count_nonzero(counts) < 2:
            counts = np.array([4, 3, 2])
        h1 = LevelHistogram(counts, len(counts) - 1, 1.0)
        h2 = LevelHistogram(counts, len(counts) - 1, float(rng.uniform(0.1, 9.0)))
        if abs(skewness(h1) - skewness(h2)) > 1e-6 * max(abs(skewness(h1)), 1):
            failures.append("skewness scale invariance")
        if abs(kurtosis(h1) - kurtosis(h2)) > 1e-6 * abs(kurtosis(h1)):
            failures.append("kurtosis scale invariance")

    for _ in range(200):   # staged overhead never drops below plain cost
        if r_e_layer(int(rng.integers(1, 64)), float(rng.uniform(0, 5))) < 1.0:
            failures.append("r_e lower bound")

    for _ in range(200):   # uniform layerwise steps collapse exactly
        n = int(rng.integers(1, 20))
        layers = [MatMulDims(f"m{i}", "fc", int(rng.integers(2, 4096)),
                             int(rng.integers(2, 512))) for i in range(n)]
        T = int(rng.choice([1, 2, 4, 8, 16]))
        if t_eff(layers, [T] * n) != t_norm(layers, T):
            failures.append("t_eff/t_norm collapse")

    _report(9, not failures,
            "1200 randomized property cases, zero failures" if not failures
            else f"failing properties: {sorted(set(failures))}")
