"""The four workloads: inputs made from the seed, the timed op, the checks.

Every workload runs whole rounds of ops. ``round(rng)`` makes one round's
inputs (untimed); ``op(item)`` is the timed call and returns its timings;
``check(item, out)`` runs the untimed property checks and oracles and
returns (failed, problems), where ``problems`` lists anything that is not
the known level-edge fault.

Functions are looked up on the spikecast modules at call time, so the
traced run's wrappers see every call.
"""

import itertools
import json
from time import perf_counter

import numpy as np

import checks
import oracles

MIXED_STEPS = [8, 4, 2, 1, 2, 4, 8, 4, 1, 2, 8, 2, 4, 1, 4]
PROBE_SEEDS = tuple(range(8))         # fixed: the probes do not depend on --seed
RANDOM_PER_ROUND = 24                 # certify-random round: 24 random + 8 probes


class Capture:
    """Keeps the passes an op runs, so the checks see the very outputs it
    produced and no pass is run twice.

    Wraps ``runtime.ann_forward`` and ``runtime.snn_forward``, the names
    check_equivalence calls, and ``reference.ann_forward``. While ``on``, it
    times ann_forward and asks snn_forward to keep its per-neuron counters,
    which costs no compute.
    """

    def __init__(self, sc):
        self.on = False
        self.clear()
        ann, snn = sc.reference.ann_forward, sc.runtime.snn_forward

        def ann_forward(graph, x):
            if not self.on:
                return ann(graph, x)
            start = perf_counter()
            self.ref = ann(graph, x)
            self.ann_s.append(perf_counter() - start)
            return self.ref

        def snn_forward(model, x, trace=None, keep_counters=False):
            if not self.on:
                return snn(model, x, trace=trace, keep_counters=keep_counters)
            logits, stats = snn(model, x, trace=trace, keep_counters=True)
            self.snn = (logits, trace, stats)
            return logits, stats

        sc.reference.ann_forward = sc.runtime.ann_forward = ann_forward
        sc.runtime.snn_forward = snn_forward

    def clear(self):
        self.ref, self.snn, self.ann_s = None, None, []

    def run(self, call, item):
        """An op's record: its seconds, its ann_forward seconds, the passes."""
        self.clear()
        self.on = True
        start = perf_counter()
        try:
            result = call(item)
        finally:
            elapsed = perf_counter() - start
            self.on = False
        out = {"result": result, "op_s": elapsed, "ann_s": self.ann_s, "ref": self.ref}
        if self.snn is not None:
            out["logits"], out["trace"], out["stats"] = self.snn
        return out


class Workload:
    """``call(item)`` is the plain op; ``op(item)`` is the same call, timed
    and captured."""

    def __init__(self, sc, capture):
        self.sc, self.capture = sc, capture

    def op(self, item):
        return self.capture.run(self.call, item)

    def items(self, item):
        return len(item)

    def energy(self, item, out):
        rates = {lid: train.bits.sum() / train.bits[0].size
                 for lid, train in out["trace"].trains.items()}
        return self.energy_report(out["graph"], out["model"], rates)

    def energy_report(self, graph, model, rates_by_act):
        """energy.build_report at the measured rate of each matmul's input."""
        sc = self.sc
        acts_after, source = {}, {}
        for layer in graph.layers:
            for p in layer.preds:
                if layer.kind == "qcfs_act":
                    acts_after[p] = layer
            source[layer.id] = (layer.id if layer.kind == "qcfs_act" else
                                None if layer.kind == "input" else source[layer.preds[0]])
        mean_rate = float(np.mean(list(rates_by_act.values())))
        dims, steps, rates = [], [], []
        for lid, kind, c_in, c_out, k_h, k_w, h_o, w_o, _ in oracles.layer_macs(graph):
            act = acts_after.get(lid)
            dims.append(sc.energy.MatMulDims(lid, kind, c_in, c_out, k_h, k_w, h_o, w_o,
                                             paired=act is not None))
            t = model.t_map[lid] if model is not None else None
            steps.append(act.qcfs.L if act is not None else (t or 1))
            src = source[graph.layer(lid).preds[0]]
            rates.append(max(rates_by_act.get(src, mean_rate), 1e-12))
        if len(set(steps)) == 1:
            steps = steps[0]
        return sc.energy.build_report(dims, steps, spike_rate=rates, rate_label="measured")


def pair_problems(out):
    graph, model, ref = out["graph"], out["model"], out["ref"]
    return (checks.pair_problems(graph, model, ref, out["logits"], out["trace"], out["stats"])
            + checks.report_problems(out["result"], graph))


def random_image(rng, n):
    return rng.uniform(0.0, 1.0, size=(n, 3, 32, 32))


# ---------------------------------------------------------------------------


class Vgg(Workload):
    """VGG-16/CIFAR-10: one op is one check_equivalence on a fresh seeded
    batch; ann_ms is its inner ann_forward."""

    def __init__(self, sc, capture, steps, batch):
        super().__init__(sc, capture)
        self.steps, self.batch = steps, batch

    def setup(self, rng):
        sc = self.sc
        text = sc.zoo.vgg16_manifest(classes=10, steps=self.steps)
        self.graph = sc.graph.init_random(sc.graph.parse_manifest(text), int(rng.integers(2 ** 31)))
        self.model = sc.runtime.convert(self.graph)
        return self.round(rng)

    def round(self, rng):
        return [random_image(rng, self.batch)]

    def call(self, x):
        return self.sc.runtime.check_equivalence(self.graph, x, self.model)

    def op(self, x):
        return dict(super().op(x), graph=self.graph, model=self.model)

    def check(self, x, out):
        problems = pair_problems(out) + checks.oracle_problems(self.graph, x, out["ref"])
        return bool(problems), problems


class Calibrate(Workload):
    """VGG-16/CIFAR-10 at L=4: ann_forward on a 32-image calibration batch,
    then analyze_trace with chi=3."""

    batch, chi = 32, 3

    def setup(self, rng):
        sc = self.sc
        text = sc.zoo.vgg16_manifest(classes=10, steps=4)
        self.graph = sc.graph.init_random(sc.graph.parse_manifest(text), int(rng.integers(2 ** 31)))
        return self.round(rng)

    def round(self, rng):
        return [random_image(rng, self.batch)]

    def call(self, x):
        ref = self.sc.reference.ann_forward(self.graph, x)
        return self.sc.sensitivity.analyze_trace(ref, self.graph, chi=self.chi)

    def check(self, x, out):
        problems = checks.oracle_problems(self.graph, x, out["ref"])
        alpha = 0.5 / len(self.graph.matmul_layers())
        want = oracles.sensitivity_rows(out["ref"].histograms, alpha)
        usable = []
        for row in out["result"]:
            exp = want[row.layer_id]
            if exp is None or row.flag:
                if (exp is None) != bool(row.flag):
                    problems.append(f"{row.layer_id}: degenerate flag differs from the oracle")
                continue
            got = (row.agreement, row.skew, row.kurt, row.metric)
            if any(abs(g - e) > 1e-9 * max(abs(e), 1.0) for g, e in zip(got, exp)):
                problems.append(f"{row.layer_id}: A, g, K, M {got} differ from {exp}")
            usable.append(row)
        values = [r.metric for r in usable]
        ids = [r.cluster for r in usable]
        best = oracles.best_split_sse(values, self.chi)
        if oracles.assignment_sse(values, ids) > best * (1 + 1e-9) + 1e-12:
            problems.append("chi=3 clustering is not optimal")
        means = [np.mean([v for v, c in zip(values, ids) if c == k]) for k in range(self.chi)]
        if sorted(set(ids)) != list(range(self.chi)) or means != sorted(means):
            problems.append("cluster ids are not ordered by cluster value")
        return bool(problems), problems

    def energy(self, x, out):
        rates = {}
        for lid, counts in out["ref"].histograms.items():
            counts = np.asarray(counts)
            rates[lid] = float(np.dot(np.arange(len(counts)), counts) / counts.sum())
        return self.energy_report(self.graph, None, rates)


class CertifyRandom(Workload):
    """The acceptance gate's model population plus fixed level-edge probes.

    One op is one model: parse, init, convert, check_equivalence.
    """

    def setup(self, rng):
        self.grid = np.array(list(itertools.product(range(11), repeat=3)),
                             dtype=np.float64).reshape(-1, 3, 1, 1) / 10.0
        self.probe_text = probe_manifest()
        self.exact = {}
        self.edge_units = self.ann_exact = self.snn_exact = 0
        return self.round(rng)

    def round(self, rng):
        items = []
        for _ in range(RANDOM_PER_ROUND):
            text = random_manifest(self.sc, rng)
            shape = json.loads(text)["layers"][0]["shape"]
            items.append(("random", text, int(rng.integers(0, 2 ** 63)),
                          rng.uniform(0.0, 1.0, size=(5, *shape))))
        for i, seed in enumerate(PROBE_SEEDS):
            items.insert(4 * i + 3, ("probe", self.probe_text, seed, self.grid))
        return items

    def items(self, item):
        return 1

    def call(self, item):
        kind, text, seed, x = item
        graph = self.sc.graph.init_random(self.sc.graph.parse_manifest(text), seed)
        if kind == "probe":
            graph = probe_weights(graph)
        model = self.sc.runtime.convert(graph)
        return self.sc.runtime.check_equivalence(graph, x, model), model

    def op(self, item):
        out = super().op(item)
        out["result"], model = out["result"]
        return dict(out, model=model, graph=model.graph)

    def check(self, item, out):
        problems = pair_problems(out)
        if item[0] == "random":
            problems += checks.oracle_problems(out["graph"], item[3], out["ref"])
            return bool(problems), problems
        unexplained = self.edge_problems(out["graph"], out["ref"], out["trace"], item[3])
        return bool(problems), unexplained

    def edge_problems(self, graph, ref, trace, x):
        """A probe may fail only on level edges: every unit where the two
        passes disagree must sit on an exact edge, and every deviating row
        must hold such a unit."""
        key = graph.weights["fc2"]["weight"].tobytes()
        if key not in self.exact:        # same probe, same grid: same exact levels
            self.exact[key] = oracles.exact_edge_levels(graph, x)
        exact, edge = self.exact[key]
        cfg = graph.layer("act2").qcfs
        ann_lv = np.rint(ref.outputs["act2"] / (cfg.theta / cfg.L)).reshape(exact.shape)
        snn_lv = trace.trains["act2"].spike_counts().reshape(exact.shape)
        split = ann_lv != snn_lv
        self.edge_units += int(split.sum())
        self.ann_exact += int((split & (ann_lv == exact)).sum())
        self.snn_exact += int((split & (snn_lv == exact)).sum())
        problems = []
        if np.any(split & ~edge) or np.any(~split & (ann_lv != exact)):
            problems.append("probe: passes disagree off a level edge")
        split_rows = split.any(axis=1)
        for layer in graph.layers:
            rows = checks.deviating_rows(trace.sums[layer.id], ref.outputs[layer.id])
            if np.any(rows & ~split_rows):
                problems.append(f"probe: {layer.id} deviates on a row with no edge unit")
        return problems


# ---------------------------------------------------------------------------
# model builders


def random_manifest(sc, rng):
    """The acceptance gate's population: 2-5 matmuls, <= 16 channels,
    <= 16 px, L in {1, 2, 4, 8}, a 25% share of residual nets."""
    if rng.random() < 0.25:
        return sc.zoo.residual_block_manifest(classes=int(rng.integers(2, 6)),
                                              l_main=int(rng.choice([1, 2, 4, 8])),
                                              theta=float(rng.uniform(0.3, 1.5)))
    n_matmul = int(rng.integers(2, 6))
    c_in = int(rng.integers(1, 4))
    hw = int(rng.choice([4, 6, 8, 12, 16]))
    classes = int(rng.integers(2, 6))
    layers = [{"id": "in", "kind": "input", "pred": [], "shape": [c_in, hw, hw]}]
    prev, cur_hw, spatial = "in", hw, True
    for idx in range(1, n_matmul):
        if spatial and rng.random() < 0.75:
            layers.append({"id": f"conv{idx}", "kind": "conv", "pred": [prev],
                           "out_channels": int(rng.integers(2, 17)), "kernel": 3,
                           "stride": 1, "padding": 1, "bias": bool(rng.random() < 0.7),
                           "batch_norm": bool(rng.random() < 0.5)})
            prev = f"conv{idx}"
        else:
            spatial = False
            layers.append({"id": f"fc{idx}", "kind": "fc", "pred": [prev],
                           "out_features": int(rng.integers(2, 17)),
                           "bias": bool(rng.random() < 0.7),
                           "batch_norm": bool(rng.random() < 0.3)})
            prev = f"fc{idx}"
        layers.append({"id": f"act{idx}", "kind": "qcfs_act", "pred": [prev],
                       "L": int(rng.choice([1, 2, 4, 8])), "theta": float(rng.uniform(0.3, 1.5))})
        prev = f"act{idx}"
        if spatial and cur_hw % 2 == 0 and rng.random() < 0.4:
            layers.append({"id": f"pool{idx}", "kind": "avg_pool", "pred": [prev], "window": 2})
            prev, cur_hw = f"pool{idx}", cur_hw // 2
    layers.append({"id": "head", "kind": "fc", "pred": [prev], "out_features": classes,
                   "bias": True})
    return json.dumps({"name": "rand", "classes": classes, "layers": layers})


def probe_manifest():
    """in(3x1x1) -> identity fc -> act(L=10) -> fc -> act(L=2) -> 2-class head."""
    return json.dumps({"name": "level-edge", "classes": 2, "layers": [
        {"id": "in", "kind": "input", "pred": [], "shape": [3, 1, 1]},
        {"id": "fc1", "kind": "fc", "pred": ["in"], "out_features": 3},
        {"id": "act1", "kind": "qcfs_act", "pred": ["fc1"], "L": 10, "theta": 1.0},
        {"id": "fc2", "kind": "fc", "pred": ["act1"], "out_features": 3},
        {"id": "act2", "kind": "qcfs_act", "pred": ["fc2"], "L": 2, "theta": 1.0},
        {"id": "head", "kind": "fc", "pred": ["act2"], "out_features": 2, "bias": True},
    ]})


def probe_weights(graph):
    """fc1 := identity; fc2's seeded weights rounded to multiples of 0.1."""
    w = dict(graph.weights)
    w["fc1"] = {"weight": np.eye(3, dtype=np.float32)}
    fc2 = np.asarray(w["fc2"]["weight"], dtype=np.float64)
    w["fc2"] = {"weight": (np.round(fc2 * 10.0) / 10.0).astype(np.float32)}
    return graph.with_weights(w)


WORKLOADS = {
    "vgg16-b1": lambda sc, capture: Vgg(sc, capture, steps=4, batch=1),
    "vgg16-mixed-b8": lambda sc, capture: Vgg(sc, capture, steps=MIXED_STEPS, batch=8),
    "certify-random": CertifyRandom,
    "calibrate-b32": Calibrate,
}
