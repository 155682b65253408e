import gc
import json
import tracemalloc
import warnings
import weakref
from collections import Counter
from collections.abc import Mapping
from dataclasses import fields

import numpy as np
import pytest

from spikecast import kernels, reference, runtime
from spikecast.graph import (LayerSpec, ModelGraph, QcfsConfig, init_random,
                             parse_manifest)
from spikecast.kernels import BnAffine, ConvParams, KernelError, conv2d, fully_connected
from spikecast.reference import (LayerTrace, _fold, ann_forward, forward, qcfs, qcfs_levels,
                                 run_layer)
from spikecast.runtime import (ConversionError, IfLayer, IfStats, SnnTrace, SpikeTrain,
                               _train_sum, check_equivalence, convert,
                               if_generic_layer, if_input_layer, snn_forward)
from spikecast.zoo import (residual_block_manifest, resnet_manifest, toy_manifest,
                           vgg16_manifest)

from conftest import (affine_expression, full_array_if, level_grid, mean_avg_pool2d,
                      negative_weight_graph, pooled_input_manifest, probe_graph, random_graph,
                      step_train_sum, traced_held_bytes, traced_peak_bytes, vgg_edge_graph)

CHUNK = runtime._IF_CHUNK


def lone_layer(kind, weight=None, **spec):
    """A graph of one layer, for run_layer, and that layer."""
    layer = LayerSpec("l", kind, **spec)
    return ModelGraph("lone", 1, (layer,), {"l": {"weight": weight}}), layer


def chain_manifest(l_first, l_second):
    doc = {
        "name": "chain", "classes": 3,
        "layers": [
            {"id": "in", "kind": "input", "pred": [], "shape": [2, 4, 4]},
            {"id": "c1", "kind": "conv", "pred": ["in"], "out_channels": 3,
             "kernel": 3, "padding": 1, "bias": True, "batch_norm": True},
            {"id": "a1", "kind": "qcfs_act", "pred": ["c1"], "L": l_first, "theta": 1.0},
            {"id": "c2", "kind": "conv", "pred": ["a1"], "out_channels": 3,
             "kernel": 3, "padding": 1, "bias": True, "batch_norm": True},
            {"id": "a2", "kind": "qcfs_act", "pred": ["c2"], "L": l_second, "theta": 1.0},
            {"id": "f", "kind": "fc", "pred": ["a2"], "out_features": 3},
        ],
    }
    return json.dumps(doc)


def conv_stack_manifest(depth, steps, pool_after=None):
    """depth 3x3 convs of 16 channels on 16x16 inputs, each followed by an
    activation with L = steps, then a 10-class head. With pool_after = i,
    a 2x2 average pool follows activation i."""
    layers = [{"id": "in", "kind": "input", "pred": [], "shape": [3, 16, 16]}]
    prev = "in"
    for i in range(depth):
        layers += [{"id": f"c{i}", "kind": "conv", "pred": [prev], "out_channels": 16,
                    "kernel": 3, "padding": 1, "bias": True, "batch_norm": True},
                   {"id": f"a{i}", "kind": "qcfs_act", "pred": [f"c{i}"], "L": steps,
                    "theta": 1.0}]
        prev = f"a{i}"
        if i == pool_after:
            layers.append({"id": f"p{i}", "kind": "avg_pool", "pred": [prev], "window": 2})
            prev = f"p{i}"
    layers.append({"id": "f", "kind": "fc", "pred": [prev], "out_features": 10})
    return json.dumps({"name": "conv-stack", "classes": 10, "layers": layers})


def streamed_manifest(l_in, l_last):
    """in -> conv -> act (L = l_in) -> conv -> act (L = l_in) -> fc -> act
    (L = l_last) -> head. The second conv and the fc each feed a generic
    integrate-and-fire layer with l_in input timesteps."""
    doc = {
        "name": "streamed", "classes": 3,
        "layers": [
            {"id": "in", "kind": "input", "pred": [], "shape": [2, 6, 6]},
            {"id": "c1", "kind": "conv", "pred": ["in"], "out_channels": 4,
             "kernel": 3, "padding": 1, "bias": True, "batch_norm": True},
            {"id": "a1", "kind": "qcfs_act", "pred": ["c1"], "L": l_in, "theta": 1.0},
            {"id": "c2", "kind": "conv", "pred": ["a1"], "out_channels": 5,
             "kernel": 3, "padding": 1, "bias": True, "batch_norm": True},
            {"id": "a2", "kind": "qcfs_act", "pred": ["c2"], "L": l_in, "theta": 0.8},
            {"id": "f3", "kind": "fc", "pred": ["a2"], "out_features": 7, "bias": True},
            {"id": "a3", "kind": "qcfs_act", "pred": ["f3"], "L": l_last, "theta": 0.6},
            {"id": "head", "kind": "fc", "pred": ["a3"], "out_features": 3, "bias": True},
        ],
    }
    return json.dumps(doc)


def array_path(model, x):
    """snn_forward as it runs without streaming, on independent oracles:
    every generic layer gets its materialized (T, N, ...) stack, its
    counters and spike totals come from conftest.full_array_if and its
    train from SpikeTrain.thermometer, and a T*N-row value's trace sum is
    numpy's axis-0 sum of that stack. Returns the logits, trains, IfStats
    (counters kept) and sums."""
    trains, stats, sums = {}, {}, {}

    def act(layer, value, n):
        plan = model.if_plans[layer.id]
        if plan.input_mode:
            return if_input_layer(value, layer.qcfs)
        stack = value.reshape((-1, n) + value.shape[1:])
        count, spikes = full_array_if(stack, plan)
        steps = max(plan.l_in, plan.l_out) - 1
        train = SpikeTrain.thermometer(count, plan.l_out, plan.theta_star)
        stats[layer.id] = IfStats(
            layer.id, (plan.l_in, steps, plan.l_out), *spikes,
            emitted_spikes=int(np.clip(count, 0, plan.l_out).sum()), elements=count.size,
            timesteps=plan.l_out, counts=count.astype(runtime._counter_dtype(plan.l_in, steps)))
        return train

    def record(layer, value, n):
        if isinstance(value, SpikeTrain):
            trains[layer.id] = value
            sums[layer.id] = value.dense().sum(axis=0)
        else:
            sums[layer.id] = (value if len(value) == n else
                              value.reshape((-1, n) + value.shape[1:]).sum(axis=0))

    logits = forward(model.graph, x, act, model.scaled_affines, record)
    return logits, trains, stats, sums


def assert_same_bytes(got, want, what):
    assert isinstance(got, np.ndarray) and isinstance(want, np.ndarray), what
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert got.tobytes() == want.tobytes(), what


def assert_same_stats(got, want):
    """Every IfStats field, and the widened counter, equal to the bit."""
    for f in fields(IfStats):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert_same_bytes(a, b, f"{want.layer_id}.{f.name}")
        else:
            assert a == b, f"{want.layer_id}.{f.name}"
    assert_same_bytes(got.counter, want.counter, f"{want.layer_id}.counter")


def assert_equal_to_array_path(model, x):
    """snn_forward's logits, trains, IfStats and trace sums, byte for byte
    against array_path's."""
    trace = SnnTrace()
    logits, stats = snn_forward(model, x, trace=trace, keep_counters=True)
    want_logits, trains, want_stats, sums = array_path(model, x)
    assert_same_bytes(logits, want_logits, "logits")
    assert set(trace.trains) == set(trains) and set(stats) == set(want_stats)
    for lid, train in trains.items():
        assert_same_bytes(trace.trains[lid].bits, train.bits, lid)
        assert trace.trains[lid].theta_star == train.theta_star
    for lid, st in want_stats.items():
        assert_same_stats(stats[lid], st)
    assert list(trace.sums) == list(sums)
    for lid, total in trace.sums.items():
        assert_same_bytes(total, sums[lid], lid)


@pytest.fixture
def fed(monkeypatch):
    """Ids of the matmuls that hand their row blocks to a consumer, in call order."""
    ids = []

    def spy(*args, consumer=None):
        if consumer is not None:
            ids.append(args[1].id)
        return run_layer(*args, consumer=consumer)

    monkeypatch.setattr(reference, "run_layer", spy)
    return ids


class TestStreamedIfLayer:
    """A conv or fc layer whose only consumer is a generic integrate-and-fire
    layer hands it its row blocks; the (T*N, ...) output is never built."""

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("l_in", [1, 2, 4, 8])
    def test_bitwise_equal_to_array_path(self, l_in, n, fed, monkeypatch):
        # blocks of at most two images: with n = 3 some blocks hold the last
        # image of one timestep and the first of the next
        monkeypatch.setattr(kernels, "_block_count", lambda rows, *_: -(-rows // 2))
        rng = np.random.default_rng(10 * l_in + n)
        for _ in range(3):
            text = streamed_manifest(l_in, int(rng.choice([1, 2, 4, 8])))
            graph = init_random(parse_manifest(text), int(rng.integers(2 ** 31)))
            model = convert(graph)
            x = rng.uniform(0, 1, size=(n,) + graph.input_layer.shape)
            fed.clear()
            assert_equal_to_array_path(model, x)
            assert fed == ["c2", "f3"]              # both layers ran streamed

    @pytest.mark.parametrize("l_in", [2, 4])
    def test_vgg_scale_conv_streams_by_image(self, l_in, fed):
        # VGG-16's conv1_2 geometry: c2 lowers image by image (it gathers no
        # patches by index) and feeds its T*N one-image blocks to a2
        layers = [{"id": "in", "kind": "input", "pred": [], "shape": [3, 32, 32]},
                  {"id": "c1", "kind": "conv", "pred": ["in"], "out_channels": 64,
                   "kernel": 3, "padding": 1, "bias": True, "batch_norm": True},
                  {"id": "a1", "kind": "qcfs_act", "pred": ["c1"], "L": l_in, "theta": 1.0},
                  {"id": "c2", "kind": "conv", "pred": ["a1"], "out_channels": 64,
                   "kernel": 3, "padding": 1, "bias": True, "batch_norm": True},
                  {"id": "a2", "kind": "qcfs_act", "pred": ["c2"], "L": 2, "theta": 0.8},
                  {"id": "pool", "kind": "avg_pool", "pred": ["a2"], "window": 2},
                  {"id": "head", "kind": "fc", "pred": ["pool"], "out_features": 10}]
        graph = init_random(parse_manifest(json.dumps(
            {"name": "vgg-head", "classes": 10, "layers": layers})), 29 + l_in)
        x = np.random.default_rng(29).uniform(0, 1, size=(3, 3, 32, 32))
        kernels._patch_index.cache_clear()
        assert_equal_to_array_path(convert(graph), x)
        assert fed == ["c2"]
        assert kernels._patch_index.cache_info().currsize == 1     # c1's geometry only

    @staticmethod
    def edge_cases():
        """100 (stack, plan, row cuts): a third of the inputs sit on exact
        level edges, and one neuron sees -0.0 at every step."""
        rng = np.random.default_rng(47)
        for _ in range(100):
            l_in, n = int(rng.choice([2, 3, 4, 8])), int(rng.integers(1, 6))
            l_out = int(rng.choice([1, 2, 4, 8]))
            th = float(rng.choice([0.25, 0.5, rng.uniform(0.1, 0.9)]))
            stack = rng.uniform(-1, 1, size=(l_in, n, 3, 4))
            stack[..., 0, :] = rng.integers(-4, 5, size=(l_in, n, 4)) * (th / 2)
            stack[:, :, 1, 0] = -0.0
            plan = IfLayer("t", theta_star=th, l_in=l_in, l_out=l_out)
            cuts = rng.integers(0, min(4, l_in * n))
            edges = np.sort(rng.choice(np.arange(1, l_in * n), size=cuts, replace=False)).tolist()
            yield stack, plan, list(zip([0] + edges, edges + [l_in * n]))

    def test_block_edges_and_signed_zeros(self):
        # one stack fed in random row blocks against if_generic_layer and
        # numpy's axis-0 sum, which sums a neuron's -0.0 steps to +0.0
        for stack, plan, blocks in self.edge_cases():
            n = stack.shape[1]
            train, st = if_generic_layer(stack, plan, keep_counter=True)
            layer_in = runtime._IfDriver(plan, (n, 3, 4), keep_sum=True)
            rows = stack.reshape(-1, 3, 4)
            for lo, hi in blocks:
                layer_in(lo, rows[lo:hi])
            got_train, got = layer_in.finish(keep_counter=True)
            assert_same_bytes(got_train.bits, train.bits, "bits")
            assert_same_stats(got, st)
            assert_same_bytes(layer_in.sum.reshape(layer_in.shape), stack.sum(axis=0), "sum")
            assert not np.signbit(layer_in.sum.reshape(layer_in.shape)[:, 1, 0]).any()

    def test_blocks_are_never_written(self):
        # a deferred matmul's row blocks, and a stored value or stack given
        # as one block, are byte for byte the same after the driver reads them
        for stack, plan, blocks in self.edge_cases():
            n = stack.shape[1]
            rows = stack.reshape(-1, 3, 4)
            for cuts, keep_sum in ((blocks, True), ([(0, len(rows))], False)):
                layer_in = runtime._IfDriver(plan, (n, 3, 4), keep_sum=keep_sum)
                for lo, hi in cuts:
                    block = rows[lo:hi].copy()
                    layer_in(lo, block)
                    assert block.tobytes() == rows[lo:hi].tobytes()
                layer_in.finish(keep_counter=False)
            held = stack.copy()
            if_generic_layer(stack, plan)
            assert stack.tobytes() == held.tobytes()

    @pytest.mark.parametrize("name", ["toy", "residual", "l_in_1"])
    def test_snn_forward_writes_no_block(self, name, monkeypatch):
        # every block the spiking pass hands a driver, streamed by a deferred
        # conv or fc (an L_in = 1 layer's included) or given as a residual
        # sum, is unchanged once the driver has read it
        read = runtime._IfDriver.__call__
        seen = []

        def checked(self, lo, block):
            held = block.copy()
            read(self, lo, block)
            assert block.tobytes() == held.tobytes()
            seen.append(len(block))

        monkeypatch.setattr(runtime._IfDriver, "__call__", checked)
        manifest = {"toy": toy_manifest(), "residual": residual_block_manifest(),
                    "l_in_1": chain_manifest(1, 4)}[name]
        graph = init_random(parse_manifest(manifest), 5)
        x = np.random.default_rng(5).uniform(0, 1, size=(3,) + graph.input_layer.shape)
        snn_forward(convert(graph), x, trace=SnnTrace())
        assert seen

    def test_no_stack_is_built(self):
        # VGG-16's first two convs at T = 8 and N = 8: c2's (T*N, 64, 32, 32)
        # float64 output is 33.5 MB. Streamed, the pass holds a few of its
        # row blocks plus one membrane and counter per neuron of a timestep.
        layers = [{"id": "in", "kind": "input", "pred": [], "shape": [3, 32, 32]},
                  {"id": "c1", "kind": "conv", "pred": ["in"], "out_channels": 64,
                   "kernel": 3, "padding": 1, "bias": True, "batch_norm": True},
                  {"id": "a1", "kind": "qcfs_act", "pred": ["c1"], "L": 8, "theta": 1.0},
                  {"id": "c2", "kind": "conv", "pred": ["a1"], "out_channels": 64,
                   "kernel": 3, "padding": 1, "bias": True, "batch_norm": True},
                  {"id": "a2", "kind": "qcfs_act", "pred": ["c2"], "L": 2, "theta": 1.0},
                  {"id": "pool", "kind": "avg_pool", "pred": ["a2"], "window": 2},
                  {"id": "head", "kind": "fc", "pred": ["pool"], "out_features": 10}]
        graph = init_random(parse_manifest(json.dumps(
            {"name": "vgg-head", "classes": 10, "layers": layers})), 23)
        model = convert(graph)
        x = np.random.default_rng(23).uniform(0, 1, size=(8, 3, 32, 32))
        snn_forward(model, x)                       # warms the patch indices
        stack_bytes = 8 * 8 * 64 * 32 * 32 * 8
        assert traced_peak_bytes(lambda: snn_forward(model, x)) < stack_bytes


class TestConvert:
    def test_constant_scaling(self):
        g = init_random(parse_manifest(chain_manifest(4, 4)), 0)
        arrays = dict(g.weights["c2"])
        arrays["bias"] = np.array([4.0, 4.0, 4.0], dtype=np.float32)
        arrays["beta"] = np.array([2.0, 2.0, 2.0], dtype=np.float32)
        arrays["mu"] = np.array([8.0, 8.0, 8.0], dtype=np.float32)
        weights = dict(g.weights)
        weights["c2"] = arrays
        model = convert(g.with_weights(weights))
        scaled = model.scaled_affines["c2"]     # unrolled over the L=4 train
        np.testing.assert_allclose(scaled.bias, 1.0)
        np.testing.assert_allclose(scaled.beta, 0.5)
        np.testing.assert_allclose(scaled.mu, 2.0)

    def test_mixed_step_plan(self):
        g = init_random(parse_manifest(chain_manifest(2, 4)), 0)
        model = convert(g)
        plan = model.if_plans["a2"]
        assert plan.l_in == 2 and plan.l_out == 4
        assert plan.theta_star == 0.25
        assert model.if_plans["a1"].input_mode
        assert not plan.input_mode

    def test_unequal_residual_merge_rejected(self):
        doc = json.loads(residual_block_manifest())
        doc["layers"][4]["L"] = 2               # branch activation differs from act0
        g = init_random(parse_manifest(json.dumps(doc)), 0)
        with pytest.raises(ConversionError, match="unequal timestep"):
            convert(g)

    def test_needs_weights(self):
        g = parse_manifest(chain_manifest(2, 2))
        with pytest.raises(ConversionError, match="no weights"):
            convert(g)


class TestInputIfLayer:
    def test_first_spikes_placement(self):
        cfg = QcfsConfig(L=4, theta=1.0)
        train = if_input_layer(np.array([[0.7]]), cfg)  # level 3 of 4
        np.testing.assert_array_equal(train.dense().ravel(), [0.25, 0.25, 0.25, 0.0])

    def test_zero_activation(self):
        cfg = QcfsConfig(L=4, theta=1.0)
        train = if_input_layer(np.array([[0.05]]), cfg)
        np.testing.assert_array_equal(train.dense(), 0.0)

    def test_saturation(self):
        cfg = QcfsConfig(L=4, theta=1.0)
        train = if_input_layer(np.array([[9.0]]), cfg)
        np.testing.assert_array_equal(train.dense().ravel(), [0.25] * 4)

    def test_levels_agree_on_edges(self):
        # exact level edges (k - 1/2) theta / L and their float neighbours:
        # the input layer's spike counts, qcfs_levels, the reference
        # histogram and the spiking pass's input train read one staircase
        for L, theta in ((1, 1.0), (4, 0.7), (10, 1.0), (255, 0.9), (256, 0.9)):
            edges = (np.arange(-1, L + 2) - 0.5) * (theta / L)
            z = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                np.nextafter(edges, np.inf)])
            doc = {"name": "edges", "classes": 2, "layers": [
                {"id": "in", "kind": "input", "pred": [], "shape": [len(z), 1, 1]},
                {"id": "fc", "kind": "fc", "pred": ["in"], "out_features": len(z)},
                {"id": "act", "kind": "qcfs_act", "pred": ["fc"], "L": L, "theta": theta},
                {"id": "head", "kind": "fc", "pred": ["act"], "out_features": 2}]}
            graph = init_random(parse_manifest(json.dumps(doc)), 3)
            identity = {"weight": np.eye(len(z), dtype=np.float32)}
            graph = graph.with_weights(dict(graph.weights, fc=identity))
            x = z.reshape(1, -1, 1, 1)
            trace = ann_forward(graph, x)
            pre, cfg = trace.pre_activations["act"], graph.layer("act").qcfs
            assert pre.tobytes() == z.reshape(pre.shape).tobytes()    # the identity is exact
            levels = qcfs_levels(pre, cfg)
            assert set(np.unique(levels)) == set(range(L + 1))
            assert if_input_layer(pre, cfg).spike_counts().tobytes() == levels.tobytes()
            want = np.bincount(levels.ravel(), minlength=L + 1)
            assert trace.histograms["act"].tobytes() == want.tobytes()
            snn = SnnTrace()
            snn_forward(convert(graph), x, trace=snn)
            assert snn.trains["act"].spike_counts().tobytes() == levels.tobytes()

    def test_sums_to_activation(self):
        rng = np.random.default_rng(41)
        cfg = QcfsConfig(L=8, theta=0.61)
        x = rng.uniform(-0.5, 1.5, size=(2, 3, 4, 4))
        train = if_input_layer(x, cfg)
        np.testing.assert_allclose(train.dense().sum(axis=0), qcfs(x, cfg),
                                   atol=1e-12)


class TestGenericIfLayer:
    def test_all_excitatory(self):
        plan = IfLayer("t", theta_star=0.25, l_in=4, l_out=4)
        stack = np.array([0.3, 0.3, 0.2, 0.1]).reshape(4, 1, 1)
        train, st = if_generic_layer(stack, plan)
        assert st.emitted_spikes == 4
        np.testing.assert_array_equal(train.dense().ravel(), [0.25] * 4)

    def test_inhibitory_hand_trace(self):
        # stage 1 fires once and leaves mem = -0.15; stage 2 must emit one
        # inhibitory spike so the final count is zero, matching the
        # reference activation of the summed input (0.1 -> level 0)
        plan = IfLayer("t", theta_star=0.5, l_in=2, l_out=2)
        stack = np.array([0.6, -0.5]).reshape(2, 1, 1)
        train, st = if_generic_layer(stack, plan, keep_counter=True)
        assert st.stage1_spikes == 1
        assert st.stage2_inhibitory == 1
        assert st.stage2_excitatory == 0
        assert st.counter.ravel()[0] == 0
        assert st.emitted_spikes == 0
        np.testing.assert_array_equal(train.dense(), 0.0)

    def test_all_zero_input(self):
        plan = IfLayer("t", theta_star=0.25, l_in=4, l_out=4)
        train, st = if_generic_layer(np.zeros((4, 1, 3)), plan)
        assert st.emitted_spikes == 0
        assert st.stage2_inhibitory == 0

    def test_stage_lengths(self):
        for l_in, l_out in [(1, 1), (2, 4), (8, 2), (4, 4)]:
            plan = IfLayer("t", theta_star=0.5, l_in=l_in, l_out=l_out)
            _, st = if_generic_layer(np.zeros((l_in, 1, 2)), plan)
            assert st.stage_steps == (l_in, max(l_in, l_out) - 1, l_out)

    def test_timestep_mismatch(self):
        plan = IfLayer("t", theta_star=0.5, l_in=4, l_out=4)
        with pytest.raises(ConversionError, match="expected 4 input timesteps"):
            if_generic_layer(np.zeros((2, 1, 1)), plan)

    @pytest.mark.parametrize("shape", [(), (2,)])
    def test_stack_without_batch_axis(self, shape):
        plan = IfLayer("a", theta_star=0.5, l_in=2, l_out=2)
        with pytest.raises(ConversionError, match=r"layer 'a': expected an \(L_in, N"):
            if_generic_layer(np.zeros(shape), plan)

    def test_input_stack_left_untouched(self):
        # the stack is the caller's: the layer reads it and writes nothing
        # into it, also where neurons fire
        stack = np.random.default_rng(49).uniform(-1, 1, size=(4, 3, 5, 7))
        before = stack.copy()
        _, st = if_generic_layer(stack, IfLayer("t", theta_star=0.25, l_in=4, l_out=2))
        assert st.stage1_spikes > 0
        assert_same_bytes(stack, before, "stack")

    def test_counter_mapping_is_exact(self):
        # emitted spikes per neuron == clamp(counter, 0, L_out), bit-exactly
        rng = np.random.default_rng(42)
        for _ in range(100):
            l_in = int(rng.choice([1, 2, 4, 8]))
            l_out = int(rng.choice([1, 2, 4, 8]))
            plan = IfLayer("t", theta_star=float(rng.uniform(0.1, 0.9)),
                           l_in=l_in, l_out=l_out)
            stack = rng.uniform(-1, 1, size=(l_in, 2, 5))
            train, st = if_generic_layer(stack, plan, keep_counter=True)
            np.testing.assert_array_equal(train.spike_counts(),
                                          np.clip(st.counter, 0, l_out))

    def test_bitwise_equal_to_allocating_update(self):
        # the in-place membrane update against the formulation that builds
        # th * fire and float masks each step; levels sit on exact edges too
        rng = np.random.default_rng(44)
        for _ in range(100):
            l_in = int(rng.choice([1, 2, 4, 8]))
            l_out = int(rng.choice([1, 2, 4, 8]))
            th = float(rng.choice([0.25, 0.5, rng.uniform(0.1, 0.9)]))
            stack = rng.uniform(-1, 1, size=(l_in, 3, 7))
            stack[:, 0] = rng.integers(-4, 5, size=(l_in, 7)) * (th / 2)
            plan = IfLayer("t", theta_star=th, l_in=l_in, l_out=l_out)
            train, st = if_generic_layer(stack, plan, keep_counter=True)

            mem = np.full(stack.shape[1:], th / 2.0)
            count = np.zeros(stack.shape[1:], dtype=np.int64)
            spikes = [0, 0, 0]
            for t in range(l_in):
                mem += stack[t]
                fire = mem >= th
                count += fire
                mem -= th * fire
                spikes[0] += int(fire.sum())
            for _ in range(max(l_in, l_out) - 1):
                fire = mem >= th
                inhib = (~fire) & (mem < 0.0)
                count += fire
                count -= inhib
                mem += th * (inhib.astype(np.float64) - fire.astype(np.float64))
                spikes[1] += int(fire.sum())
                spikes[2] += int(inhib.sum())
            assert st.counter.tobytes() == count.tobytes()
            assert [st.stage1_spikes, st.stage2_excitatory, st.stage2_inhibitory] == spikes
            ticks = np.arange(1, l_out + 1).reshape(l_out, 1, 1)
            assert np.array_equal(train.bits, ticks <= np.clip(count, 0, l_out))

    def test_moving_neurons_match_full_array_loop(self):
        # stage 2 in place over the whole span against the loop over every
        # neuron; membranes in [0, th) must stay as they are, and a third of
        # the inputs sit on exact level edges
        rng = np.random.default_rng(45)
        for _ in range(200):
            l_in = int(rng.choice([1, 2, 3, 4, 8]))
            l_out = int(rng.choice([1, 2, 4, 8]))
            th = float(rng.choice([0.25, 0.5, 1.0 / 3.0, rng.uniform(0.1, 0.9)]))
            stack = rng.uniform(-1, 1, size=(l_in, 3, 2, 5)) * rng.choice([0.1, 1.0, 3.0])
            stack[:, 0] = rng.integers(-4, 5, size=(l_in, 2, 5)) * (th / 2)
            plan = IfLayer("t", theta_star=th, l_in=l_in, l_out=l_out)
            train, st = if_generic_layer(stack, plan, keep_counter=True)
            count, spikes = full_array_if(stack, plan)
            assert st.counter.tobytes() == count.tobytes()
            assert [st.stage1_spikes, st.stage2_excitatory, st.stage2_inhibitory] == spikes
            assert st.emitted_spikes == int(np.clip(count, 0, l_out).sum())
            ticks = np.arange(1, l_out + 1).reshape(l_out, 1, 1, 1)
            assert np.array_equal(train.bits, ticks <= np.clip(count, 0, l_out))

    @pytest.mark.parametrize("neurons, l_in, l_out", [
        (1, 4, 4), (CHUNK - 1, 8, 2), (CHUNK, 2, 8), (CHUNK + 1, 3, 5), (3 * CHUNK + 5, 8, 4)])
    def test_chunks_match_full_array_loop(self, neurons, l_in, l_out):
        # layers around the chunk size against the loop over every neuron at
        # once; every third input is a multiple of th / 2, which puts
        # membranes exactly on 0 and on the threshold
        rng = np.random.default_rng(neurons)
        th = 0.25
        stack = rng.uniform(-1, 1, size=(l_in, neurons))
        stack[:, ::3] = rng.integers(-4, 5, size=stack[:, ::3].shape) * (th / 2)
        plan = IfLayer("t", theta_star=th, l_in=l_in, l_out=l_out)
        train, st = if_generic_layer(stack, plan, keep_counter=True)
        count, spikes = full_array_if(stack, plan)
        assert st.counter.tobytes() == count.tobytes()
        assert [st.stage1_spikes, st.stage2_excitatory, st.stage2_inhibitory] == spikes
        emit = np.clip(count, 0, l_out)
        assert st.emitted_spikes == int(emit.sum())
        assert train.bits.tobytes() == (np.arange(1, l_out + 1)[:, None] <= emit).tobytes()

    def test_counter_dtype_rule(self):
        limit = np.iinfo(np.int16).max
        assert runtime._counter_dtype(8, 7) == np.int16
        assert runtime._counter_dtype(1, limit - 1) == np.int16
        assert runtime._counter_dtype(1, limit) == np.int64

    def test_counter_past_int16_range(self):
        # 2**15 stage-2 steps on membranes far from [0, th): the counters
        # leave the int16 range, so the rule keeps them in int64
        l_out = 2 ** 15 + 1
        plan = IfLayer("t", theta_star=1.0, l_in=1, l_out=l_out)
        assert runtime._counter_dtype(1, l_out - 1) == np.int64
        stack = np.array([[1e6, 0.75, -1e6]])
        train, st = if_generic_layer(stack, plan, keep_counter=True)
        count, spikes = full_array_if(stack, plan)
        assert count.max() > np.iinfo(np.int16).max
        assert st.counter.tobytes() == count.tobytes()
        assert [st.stage1_spikes, st.stage2_excitatory, st.stage2_inhibitory] == spikes
        assert train.spike_counts().tolist() == [l_out, 1, 0]

    @pytest.mark.parametrize("l_in", [1, 4, 8])
    def test_peak_does_not_grow_with_steps(self, l_in):
        # the layer holds one float64 membrane and one int16 counter per
        # neuron, scratch of one chunk and the emitted counts: nothing that
        # grows with L_in
        neurons, l_out = 4 * 64 * 32 * 32, 4
        stack = np.random.default_rng(l_in).uniform(-0.5, 0.5, size=(l_in, 4, 64, 32, 32))
        plan = IfLayer("t", theta_star=0.25, l_in=l_in, l_out=l_out)
        bound = neurons * (2 + l_out) + (2 << 20)
        assert traced_peak_bytes(lambda: if_generic_layer(stack, plan)) < bound

    def test_matches_activation_of_summed_input(self):
        # the train total equals the staircase activation of the summed stack
        rng = np.random.default_rng(43)
        for _ in range(100):
            l_in = int(rng.choice([1, 2, 4, 8]))
            l_out = int(rng.choice([1, 2, 4, 8]))
            theta = float(rng.uniform(0.3, 1.5))
            plan = IfLayer("t", theta_star=theta / l_out, l_in=l_in, l_out=l_out)
            stack = rng.uniform(-0.6, 0.6, size=(l_in, 1, 16))
            train, _ = if_generic_layer(stack, plan)
            want = qcfs(stack.sum(axis=0), QcfsConfig(L=l_out, theta=theta))
            np.testing.assert_allclose(train.dense().sum(axis=0), want, atol=1e-9)


class TestUnrolledMatmul:
    def test_zero_train_leaves_constant_term(self):
        affine = BnAffine.bias_only(np.array([0.8, -0.4]))
        graph, layer = lone_layer("fc", np.zeros((2, 3)))
        stack = np.zeros((4, 1, 3))
        out = run_layer(graph, layer, [_fold(stack)], affine.scaled(1.0 / 4))
        np.testing.assert_allclose(out.reshape(4, 1, 2).sum(axis=0), [[0.8, -0.4]],
                                   atol=1e-12)

    def test_single_timestep_is_plain_matmul(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(-1, 1, size=(3, 4))
        affine = BnAffine.bias_only(rng.uniform(-1, 1, size=3))
        x = rng.uniform(-1, 1, size=(1, 2, 4))
        graph, layer = lone_layer("fc", w)
        out = run_layer(graph, layer, [_fold(x)], affine)
        want = affine_expression(fully_connected(x[0], w), affine)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_sum_matches_single_shot(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            t = int(rng.choice([1, 2, 4, 8]))
            p = ConvParams(weights=rng.uniform(-1, 1, size=(3, 2, 3, 3)),
                           padding=(1, 1))
            c = 3
            affine = BnAffine(gamma=rng.uniform(0.5, 1.5, c),
                              beta=rng.uniform(-1, 1, c),
                              mu=rng.uniform(-1, 1, c),
                              sigma_sq=rng.uniform(0.2, 2.0, c),
                              bias=rng.uniform(-1, 1, c))
            train = SpikeTrain(bits=rng.random((t, 1, 2, 4, 4)) < 0.5,
                               theta_star=float(rng.uniform(0.1, 1.0)))
            graph, layer = lone_layer("conv", p.weights, padding=(1, 1))
            out = run_layer(graph, layer, [train], affine.scaled(1.0 / t))
            want = affine_expression(conv2d(train.dense().sum(axis=0), p), affine)
            np.testing.assert_allclose(out.reshape((t, 1) + out.shape[1:]).sum(axis=0), want,
                                       atol=1e-4)


ADD = LayerSpec("add", "residual_add")


class TestUnrolledResidualAdd:
    def test_zero_branch_is_identity(self):
        a = _fold(np.random.default_rng(7).uniform(size=(3, 1, 2, 2, 2)))
        np.testing.assert_array_equal(run_layer(None, ADD, [a, np.zeros_like(a)]), a)

    def test_sum_linearity(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(size=(4, 1, 3))
        b = rng.uniform(size=(4, 1, 3))
        out = run_layer(None, ADD, [_fold(a), _fold(b)]).reshape(4, 1, 3)
        np.testing.assert_allclose(out.sum(axis=0), a.sum(axis=0) + b.sum(axis=0),
                                   atol=1e-12)

    def test_two_trains_add_to_the_dense_sum(self):
        # 0.1 + 0.7 rounds; the sum is the dense trains' float sum, byte for byte
        rng = np.random.default_rng(10)
        for theta_a, theta_b in ((0.1, 0.7), (1.0 / 3.0, 0.25), (0.5, 0.5)):
            a = SpikeTrain(rng.random((4, 2, 3, 5)) < 0.5, theta_a)
            b = SpikeTrain(rng.random((4, 2, 3, 5)) < 0.5, theta_b)
            want = _fold(a.dense() + b.dense())
            got = run_layer(None, ADD, [a, b])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert run_layer(None, ADD, [a, _fold(b.dense())]).tobytes() == want.tobytes()


class TestSnnForward:
    def test_matches_reference_on_toy(self, toy_graph):
        x = np.random.default_rng(9).uniform(0, 1, size=(4, 2, 8, 8))
        model = convert(toy_graph)
        logits, _ = snn_forward(model, x)
        want = ann_forward(toy_graph, x).logits
        np.testing.assert_allclose(logits * model.final_timesteps, want, rtol=1e-9,
                                   atol=1e-12)

    def test_identical_inputs_identical_rows(self, toy_graph):
        one = np.random.default_rng(10).uniform(0, 1, size=(1, 2, 8, 8))
        batch = np.concatenate([one, one], axis=0)
        logits, _ = snn_forward(convert(toy_graph), batch)
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_zero_weight_net_is_silent(self, toy_graph):
        zeros = {lid: {k: np.zeros_like(v) for k, v in arrs.items()}
                 for lid, arrs in toy_graph.weights.items()}
        model = convert(toy_graph.with_weights(zeros))
        _, stats = snn_forward(model, np.ones((2, 2, 8, 8)))
        assert all(st.spike_rate == 0.0 for st in stats.values())

    def test_input_shape_mismatch_names_input_layer(self, toy_graph):
        with pytest.raises(ValueError, match="input layer 'in': input shape"):
            snn_forward(convert(toy_graph), np.zeros((1, 3, 8, 8)))

    def test_empty_batch_names_input_layer(self, toy_graph):
        with pytest.raises(ValueError, match="input layer 'in': empty batch"):
            snn_forward(convert(toy_graph), np.zeros((0, 2, 8, 8)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_names_input_layer(self, toy_graph, bad):
        x = np.zeros((2, 2, 8, 8))
        x[0, 1, 7, 0] = bad
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="input layer 'in': input contains non-finite"):
                snn_forward(convert(toy_graph), x)
        assert not caught

    def test_kernel_error_names_streamed_layer(self, toy_graph):
        # conv2 feeds act2 (L_in = 4), so its blocks stream into act2
        weights = dict(toy_graph.weights)
        weights["conv2"] = dict(weights["conv2"],
                                weight=np.full_like(weights["conv2"]["weight"], 1.5e308))
        graph = toy_graph.with_weights(weights)
        x = np.random.default_rng(30).uniform(0, 1, size=(2, 2, 8, 8))
        message = "layer 'conv2': conv output contains non-finite values"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)     # the overflowing product
            with pytest.raises(KernelError, match=message):
                snn_forward(convert(graph), x)
            with pytest.raises(KernelError, match=message):
                check_equivalence(graph, x)

    def test_single_step_layer_keeps_matmul_sum(self):
        # with L_in = 1, c2 streams into the generic layer a2, and c2's trace
        # entry is the driver's running sum: byte-equal to the matmul's output
        graph = init_random(parse_manifest(chain_manifest(1, 1)), 31)
        model = convert(graph)
        assert model.if_plans["a2"].l_in == 1 and not model.if_plans["a2"].input_mode
        x = np.random.default_rng(31).uniform(0, 1, size=(3, 2, 4, 4))
        trace = SnnTrace()
        _, stats = snn_forward(model, x, trace=trace)
        assert stats["a2"].stage1_spikes > 0
        assert_same_bytes(trace.sums["c2"], ann_forward(graph, x).outputs["c2"], "c2")

    def test_spike_train_membership_bitwise(self, toy_graph):
        x = np.random.default_rng(11).uniform(0, 1, size=(2, 2, 8, 8))
        trace = SnnTrace()
        snn_forward(convert(toy_graph), x, trace=trace)
        assert trace.trains
        for train in trace.trains.values():
            vals = train.dense()
            assert np.all((vals == 0.0) | (vals == train.theta_star))


    def test_trace_sums_of_trains_match_dense_sum(self, toy_graph):
        x = np.random.default_rng(15).uniform(0, 1, size=(3, 2, 8, 8))
        trace = SnnTrace()
        snn_forward(convert(toy_graph), x, trace=trace)
        for lid, train in trace.trains.items():
            assert trace.sums[lid].tobytes() == train.dense().sum(axis=0).tobytes()

    def test_train_sum_matches_step_adds(self):
        # random bits, not thermometer codes: spikes anywhere in the train
        rng = np.random.default_rng(18)
        for t in (1, 2, 3, 4, 7, 8, 9, 16, 17, 300):
            for theta in (0.1, 1.0 / 3.0, 0.7, float(rng.uniform(0.01, 2.0))):
                train = SpikeTrain(rng.random((t, 2, 3, 4)) < rng.random(), theta)
                assert _train_sum(train).tobytes() == step_train_sum(train).tobytes()

    def test_spiking_pool_reads_bits(self):
        rng = np.random.default_rng(19)
        for theta in (0.1, 1.0 / 3.0, 0.7):
            train = SpikeTrain(rng.random((3, 2, 4, 6, 2)) < 0.5, theta)
            dense = train.dense()
            want = mean_avg_pool2d(_fold(dense))
            pool = LayerSpec("pool", "avg_pool", window=2)
            got = run_layer(None, pool, [train])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert run_layer(None, pool, [_fold(dense)]).tobytes() == want.tobytes()

    def test_peak_well_below_all_intermediates(self):
        # at most a few values are alive at once: the peak is one layer's
        # working set, not the sum of every layer's output
        graph = init_random(parse_manifest(conv_stack_manifest(depth=32, steps=4)), 16)
        model = convert(graph)
        x = np.random.default_rng(16).uniform(0, 1, size=(2, 3, 16, 16))
        trace = SnnTrace()
        snn_forward(model, x, trace=trace)          # also warms weight views and indices
        held = sum(trace.trains[layer.id].bits.nbytes if layer.id in trace.trains
                   else trace.sums[layer.id].nbytes * (model.t_map[layer.id] or 1)
                   for layer in graph.layers)
        assert traced_peak_bytes(lambda: snn_forward(model, x)) < held / 2


def contract_net(name):
    """A net for the trace-map contract, and a batch of 3 inputs for it."""
    if name == "toy":
        graph = init_random(parse_manifest(toy_manifest()), 42)
    elif name == "residual":     # merge adds the trains of act0 and act1
        graph = init_random(parse_manifest(residual_block_manifest()), 3)
    else:                         # fc after an input-mode activation
        graph = negative_weight_graph()
    x = np.random.default_rng(41).uniform(0, 1, size=(3,) + graph.input_layer.shape)
    return graph, x


def walked_outputs(graph, x):
    """Every value of a staircase walk, kept as it is made: the reference
    outputs as arrays, qcfs giving _levels * theta / L."""
    values = {}
    forward(graph, x, lambda layer, z, n: qcfs(z, layer.qcfs),
            record=lambda layer, value, n: values.__setitem__(layer.id, value))
    return values


def assert_trace_map(entries, ids, want, derived):
    """entries maps ids, in order, to arrays equal to want's in dtype, shape
    and bytes; an id in derived gets a fresh array on each read, any other
    the one stored array, read-only."""
    assert isinstance(entries, Mapping)
    assert list(entries) == ids and len(entries) == len(ids)
    assert all(lid in entries for lid in ids) and "absent" not in entries
    assert [lid for lid, _ in entries.items()] == ids
    for lid, got in entries.items():
        assert (got.dtype, got.shape) == (want[lid].dtype, want[lid].shape), lid
        assert got.tobytes() == want[lid].tobytes(), lid
        if lid in derived:
            got.fill(-1.0)
            again = entries[lid]
            assert again is not got and again.tobytes() == want[lid].tobytes(), lid
        else:
            assert entries[lid] is got and not got.flags.writeable, lid
    with pytest.raises(TypeError):
        entries[ids[0]] = want[ids[0]]


def pooled_trains(graph, trains):
    """The ids of the pools whose input is one of trains."""
    return {layer.id for layer in graph.layers
            if layer.kind == "avg_pool" and layer.preds[0] in trains}


def spiking_trace(model, x):
    """A fresh SnnTrace of snn_forward(model, x)."""
    trace = SnnTrace()
    snn_forward(model, x, trace=trace)
    return trace


class TestTraceMaps:
    """LayerTrace.outputs and SnnTrace.sums: read-only maps in graph order
    whose activation, train and pool entries are built on each read."""

    @pytest.mark.parametrize("net", ["toy", "residual", "input-mode-fc"])
    def test_layer_trace_outputs(self, net):
        graph, x = contract_net(net)
        ref = ann_forward(graph, x)
        derived = {layer.id for layer in graph.layers if layer.kind in ("qcfs_act", "avg_pool")}
        assert_trace_map(ref.outputs, [layer.id for layer in graph.layers],
                         walked_outputs(graph, x), derived)

    @pytest.mark.parametrize("net", ["toy", "residual", "input-mode-fc"])
    def test_snn_trace_sums(self, net):
        graph, x = contract_net(net)
        trace = spiking_trace(convert(graph), x)
        assert set(trace.trains) == {layer.id for layer in graph.qcfs_layers()}
        want = {lid: train.dense().sum(axis=0) for lid, train in trace.trains.items()}
        for lid in pooled_trains(graph, trace.trains):
            pred = graph.layer(lid).preds[0]
            t = trace.trains[pred].timesteps
            pooled = mean_avg_pool2d(_fold(trace.trains[pred].dense()))
            want[lid] = pooled.reshape((t, -1) + pooled.shape[1:]).sum(axis=0)
        for lid, total in trace.sums.items():
            want.setdefault(lid, total)
        if net == "residual":
            dense = trace.trains["act0"].dense() + trace.trains["act1"].dense()
            assert want["merge"].tobytes() == dense.sum(axis=0).tobytes()
        assert_trace_map(trace.sums, [layer.id for layer in graph.layers], want,
                         set(trace.trains) | pooled_trains(graph, trace.trains))

    @staticmethod
    def stored_bytes(graph, entries, derived):
        """The bytes of the entries a trace stores, the input's aside: the
        input entry is a view of the caller's x."""
        return sum(entries[layer.id].nbytes for layer in graph.layers
                   if layer.kind != "input" and layer.id not in derived)

    def test_traces_hold_levels_and_bits(self):
        # a LayerTrace holds its stored outputs and nothing of its
        # activations and pools; an SnnTrace its stored sums plus its
        # trains' counts, one byte per neuron at T <= 255. Keeping levels,
        # float64 activation or pool outputs, train sums or one byte per
        # spike breaks the upper bounds; a trace that only the cyclic
        # garbage collector frees reads 0 held and breaks the lower ones.
        graph = init_random(parse_manifest(conv_stack_manifest(4, 4, pool_after=1)), 17)
        model = convert(graph)
        x = np.random.default_rng(17).uniform(0, 1, size=(8, 3, 16, 16))
        ref = ann_forward(graph, x)                 # also warms weight views and indices
        trace = spiking_trace(model, x)
        slack = 32 << 10
        derived = {layer.id for layer in graph.layers if layer.kind in ("qcfs_act", "avg_pool")}
        stored = self.stored_bytes(graph, ref.outputs, derived)
        held = traced_held_bytes(lambda: ann_forward(graph, x))
        assert stored <= held < stored + slack

        derived = set(trace.trains) | pooled_trains(graph, trace.trains)
        stored = self.stored_bytes(graph, trace.sums, derived)
        stored += sum(train.counts.nbytes for train in trace.trains.values())
        held = traced_held_bytes(lambda: spiking_trace(model, x))
        assert stored <= held < stored + slack

    @pytest.mark.parametrize("net", ["toy", "residual", "input-mode-fc"])
    def test_dropping_a_trace_frees_it(self, net):
        # no recipe holds its map, so with the cyclic garbage collector off,
        # del frees each map and every stored array of it at once
        graph, x = contract_net(net)
        model = convert(graph)
        ann_forward(graph, x)                       # warms weight views and indices
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for make in (lambda: ann_forward(graph, x).outputs,
                         lambda: spiking_trace(model, x).sums):
                tracemalloc.start()
                try:
                    entries = make()
                    stored = sum(entries[lid].nbytes for lid in entries
                                 if lid != "in" and entries[lid] is entries[lid])
                    gone = weakref.ref(entries)
                    held = tracemalloc.get_traced_memory()[0]
                    del entries
                    freed = held - tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
                assert gone() is None
                assert freed >= stored > 0
        finally:
            if was_enabled:
                gc.enable()

    def test_writing_a_stored_entry_raises(self):
        # the stored arrays recipes read are read-only: a write into a conv
        # output or pre-activation would otherwise change its activation
        graph, x = contract_net("toy")
        ref = ann_forward(graph, x)
        act = ref.outputs["act1"]
        for stored in (ref.outputs["conv1"], ref.pre_activations["act1"], ref.outputs["in"]):
            with pytest.raises(ValueError, match="read-only"):
                stored[...] = 7.0
        assert ref.outputs["act1"].tobytes() == act.tobytes()
        assert ref.outputs["pool1"].tobytes() == mean_avg_pool2d(act).tobytes()
        trace = spiking_trace(convert(graph), x)
        for lid in ("in", "conv1", "conv2", "head"):
            with pytest.raises(ValueError, match="read-only"):
                trace.sums[lid][...] = 7.0

    def test_caller_input_stays_writeable(self):
        # the input entry is a read-only view of the caller's own x, whose
        # flags are left as they are
        graph, x = contract_net("toy")
        ref = ann_forward(graph, x)
        trace = spiking_trace(convert(graph), x)
        assert x.flags.writeable
        for entry in (ref.outputs["in"], trace.sums["in"]):
            assert np.shares_memory(entry, x) and not entry.flags.writeable

    @pytest.mark.parametrize("layout", ["fortran", "negative-stride"])
    def test_batch_layout_changes_no_byte(self, layout):
        # pool0 reads the caller's batch
        graph = init_random(parse_manifest(pooled_input_manifest()), 21)
        model = convert(graph)
        x = np.random.default_rng(21).uniform(0, 1, size=(4, 2, 8, 8))
        other = np.asfortranarray(x) if layout == "fortran" else x[::-1].copy()[::-1]
        assert not other.flags.c_contiguous and np.array_equal(other, x)
        ref, ref_other = ann_forward(graph, x), ann_forward(graph, other)
        assert ref_other.logits.tobytes() == ref.logits.tobytes()
        trace, trace_other = SnnTrace(), SnnTrace()
        logits, _ = snn_forward(model, x, trace=trace)
        assert snn_forward(model, other, trace=trace_other)[0].tobytes() == logits.tobytes()
        for want, got in ((ref.outputs, ref_other.outputs), (trace.sums, trace_other.sums)):
            for lid in want:
                assert got[lid].tobytes() == want[lid].tobytes(), lid


class TestCheckEquivalence:
    def test_deviation_reads_chunks(self):
        # the largest difference sits in the last, partial chunk; the
        # chunked max is the whole-layer max, and no temporary spans the layer
        rng = np.random.default_rng(21)
        size = 77 * 13620                     # 32 chunks and 164 elements
        ann = rng.uniform(-2.0, 1.0, size=size)
        snn = ann + rng.uniform(-1e-9, 1e-9, size=size)
        snn[-3] += 1e-6
        got = runtime._deviation("x", ann.reshape(-1, 7, 11), snn.reshape(-1, 77))
        want = float(np.abs(snn - ann).max())
        assert got.max_abs_dev.hex() == want.hex()
        assert got.rel_dev.hex() == (want / max(float(ann.max()), -float(ann.min()))).hex()
        peak = traced_peak_bytes(lambda: runtime._deviation("x", ann, snn))
        assert peak < 2 * runtime._IF_CHUNK * 8

    def test_random_models_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = random_graph(rng)
            x = rng.uniform(0, 1, size=(4,) + g.input_layer.shape)
            rep = check_equivalence(g, x)
            assert rep.argmax_agreement == 1.0
            assert rep.max_rel_dev <= 1e-4
            assert rep.max_logit_dev <= 1e-4

    def test_residual_model_agrees(self):
        g = init_random(parse_manifest(residual_block_manifest()), 3)
        x = np.random.default_rng(13).uniform(0, 1, size=(4, 3, 8, 8))
        rep = check_equivalence(g, x)
        assert rep.argmax_agreement == 1.0
        assert rep.max_rel_dev <= 1e-4
        # one (C, H, W) image runs as a batch of one
        assert check_equivalence(g, x[0]).argmax_agreement == 1.0

    def test_resnet_with_projection_shortcuts_agrees(self):
        # conv stacks meet identity and 1x1 projection shortcuts in residual adds
        g = init_random(parse_manifest(
            resnet_manifest((2, 2), (4, 8), input_size=8, steps=2)), 17)
        merges = [l for l in g.layers if l.kind == "residual_add"]
        assert len(merges) == 4
        assert g.layer(merges[2].preds[1]).kind == "conv"      # the projection
        x = np.random.default_rng(17).uniform(0, 1, size=(16, 3, 8, 8))
        rep = check_equivalence(g, x)
        assert rep.argmax_agreement == 1.0
        assert rep.max_rel_dev <= 1e-4

    def test_negative_weight_fixture_uses_inhibition(self):
        g = negative_weight_graph()
        x = np.full((2, 1, 2, 2), 0.9)
        rep = check_equivalence(g, x)
        assert rep.inhibitory_spikes > 0
        assert rep.argmax_agreement == 1.0
        assert rep.max_rel_dev <= 1e-4

    def test_deviations_match_plain_formula(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            g = random_graph(rng)
            x = rng.uniform(0, 1, size=(3,) + g.input_layer.shape)
            rep = check_equivalence(g, x)
            ref = ann_forward(g, x)
            trace = SnnTrace()
            snn_forward(convert(g), x, trace=trace)
            for row, layer in zip(rep.per_layer, g.layers):
                ann_out = ref.outputs[layer.id].reshape(trace.sums[layer.id].shape)
                dev = float(np.max(np.abs(trace.sums[layer.id] - ann_out)))
                scale = float(np.max(np.abs(ann_out)))
                assert row.max_abs_dev.hex() == dev.hex()
                assert row.rel_dev.hex() == (dev / scale if scale > 0 else dev).hex()

    @pytest.mark.parametrize("seed", [
        pytest.param(seed, marks=pytest.mark.xfail(
            strict=True, reason="level-edge fault (ROADMAP item 1): the spiking "
                                "path lands one level below the reference on ties"))
        if seed in (0, 2, 3, 4, 5) else seed
        for seed in range(8)])
    def test_level_edge_probe_agrees(self, seed):
        rep = check_equivalence(probe_graph(seed), level_grid())
        assert rep.argmax_agreement == 1.0
        assert rep.max_rel_dev <= 1e-4

    @staticmethod
    def edge_ties(graph, x):
        """act1_2's ties, neurons whose reference z sits exactly on a level
        edge, and those of them whose spiking counter is not their level."""
        cfg = graph.layer("act1_2").qcfs
        z = ann_forward(graph, x).pre_activations["act1_2"]
        u = z * cfg.L / cfg.theta + 0.5          # the staircase's floor argument
        ties = (u == np.floor(u)) & (u >= 1) & (u <= cfg.L)
        _, stats = snn_forward(convert(graph), x, keep_counters=True)
        differ = ties & (np.clip(stats["act1_2"].counter, 0, cfg.L) != qcfs_levels(z, cfg))
        return ties, differ

    @pytest.mark.parametrize("steps, batch", [(4, 1), ((8, 4), 8), (4, 8), ((8, 4), 1)],
                             ids=["L4-b1", "mixed-b8", "L4-b8", "mixed-b1"])
    def test_vgg_edge_graph_places_a_tie_per_channel(self, steps, batch):
        graph, x = vgg_edge_graph(steps, 3, batch)
        ties, _ = self.edge_ties(graph, x)
        assert ties.any(axis=(0, 2, 3)).all()

    @pytest.mark.parametrize("steps, batch", [
        pytest.param(steps, batch, id=name, marks=pytest.mark.xfail(
            strict=True, reason="level-edge fault (ROADMAP item 1): some act1_2 ties "
                                "land one level below the reference"))
        for steps, batch, name in [(4, 1, "L4-b1"), ((8, 4), 8, "mixed-b8"), (4, 8, "L4-b8"),
                                   ((8, 4), 1, "mixed-b1")]])
    def test_vgg_level_edges_agree(self, steps, batch):
        # VGG-16's first two convs with one act1_2 neuron per channel on a
        # level edge (weight and input seed 3, the first seed tried)
        graph, x = vgg_edge_graph(steps, 3, batch)
        ties, differ = self.edge_ties(graph, x)
        rep = check_equivalence(graph, x)
        msg = (f"{ties.sum()} ties placed, {differ.sum()} whose counter differs; "
               f"max_rel_dev {rep.max_rel_dev}")
        assert rep.argmax_agreement == 1.0, msg
        assert rep.max_rel_dev <= 1e-4, msg

    def test_report_dict_schema(self, toy_graph):
        x = np.random.default_rng(14).uniform(0, 1, size=(2, 2, 8, 8))
        doc = check_equivalence(toy_graph, x).to_dict()
        assert set(doc) == {"per_layer", "argmax_agreement", "max_logit_dev",
                            "inhibitory_spikes"}
        assert all(set(row) == {"id", "max_abs_dev", "rel_dev"}
                   for row in doc["per_layer"])


MIXED_STEPS = [8, 4, 2, 1, 2, 4, 8, 4, 1, 2, 8, 2, 4, 1, 4]


def prefix_net(name):
    """A net with an input-mode activation, and a batch of inputs for it."""
    if name == "probe":         # fc1 -> act1 on the level-edge grid
        return probe_graph(0), level_grid()
    manifest = {"toy": toy_manifest(), "residual": residual_block_manifest(),
                "pooled-input": pooled_input_manifest(),
                "vgg16-mixed": vgg16_manifest(classes=10, steps=MIXED_STEPS)}[name]
    graph = init_random(parse_manifest(manifest), 31)
    return graph, np.random.default_rng(31).uniform(0, 1, size=(2,) + graph.input_layer.shape)


def borrowed_matmuls(graph, model):
    """matmul id -> the input-mode activation it alone feeds."""
    uses = Counter(p for layer in graph.layers for p in layer.preds)
    return {act.preds[0]: act.id for act in graph.qcfs_layers()
            if model.if_plans[act.id].input_mode and uses[act.preds[0]] == 1
            and graph.layer(act.preds[0]).is_matmul}


def certify_kept(graph, x, monkeypatch, model=None):
    """check_equivalence(graph, x, model) with both its passes kept, as the
    bench's Capture keeps them: returns the report, the reference trace,
    and the spiking pass's SnnTrace and stats, run with its counters kept."""
    kept = {}
    ann, snn = runtime.ann_forward, runtime.snn_forward

    def keeping_ann(graph, x):
        kept["ref"] = ann(graph, x)
        return kept["ref"]

    def keeping_snn(model, x, trace=None, keep_counters=False):
        logits, kept["stats"] = snn(model, x, trace=trace, keep_counters=True)
        kept["trace"] = trace
        return logits, kept["stats"]

    monkeypatch.setattr(runtime, "ann_forward", keeping_ann)
    monkeypatch.setattr(runtime, "snn_forward", keeping_snn)
    report = check_equivalence(graph, x, model)
    monkeypatch.undo()
    return report, kept["ref"], kept["trace"], kept["stats"]


def counting_matmuls(monkeypatch):
    """Counts of kernels.conv2d and kernels.fully_connected calls from now on."""
    calls = Counter()
    for kind, name in (("conv", "conv2d"), ("fc", "fully_connected")):
        def counted(*args, _run=getattr(kernels, name), _kind=kind, **kwargs):
            calls[_kind] += 1
            return _run(*args, **kwargs)
        monkeypatch.setattr(kernels, name, counted)
    return calls


class TestBorrowedPrefix:
    """check_equivalence hands the spiking pass its reference trace, and
    each input-mode activation reads its pre-activation there instead of
    running the single-shot matmul that feeds it (docs/numerics.md,
    "Borrowed prefix")."""

    NETS = ["toy", "residual", "pooled-input", "probe", "vgg16-mixed"]

    @pytest.mark.parametrize("net", NETS)
    def test_borrowed_trace_keeps_every_byte(self, net, monkeypatch):
        graph, x = prefix_net(net)
        model = convert(graph)
        _, ref, trace, stats = certify_kept(graph, x, monkeypatch, model)
        alone = SnnTrace()
        _, alone_stats = snn_forward(model, x, trace=alone, keep_counters=True)
        assert trace.reference is ref and alone.reference is None
        assert list(trace.sums) == list(alone.sums)
        for lid, want in alone.sums.items():
            got = trace.sums[lid]
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), lid
        assert list(trace.trains) == list(alone.trains)
        for lid, want in alone.trains.items():
            got = trace.trains[lid]
            assert (got.timesteps, got.theta_star) == (want.timesteps, want.theta_star), lid
            assert got.counts.tobytes() == want.counts.tobytes(), lid
        assert list(stats) == list(alone_stats)
        for lid, want in alone_stats.items():
            got = stats[lid]
            assert got.counts.dtype == want.counts.dtype, lid
            assert got.counts.tobytes() == want.counts.tobytes(), lid
            assert (got.stage_steps, got.stage1_spikes, got.stage2_excitatory,
                    got.stage2_inhibitory, got.emitted_spikes) == (
                want.stage_steps, want.stage1_spikes, want.stage2_excitatory,
                want.stage2_inhibitory, want.emitted_spikes), lid
        borrowed = borrowed_matmuls(graph, model)
        assert borrowed
        for matmul, act in borrowed.items():
            assert np.shares_memory(trace.sums[matmul], ref.pre_activations[act]), matmul

    @pytest.mark.parametrize("net", NETS)
    def test_borrowed_matmuls_never_run(self, net, monkeypatch):
        # the certificate runs one matmul fewer than the two passes alone
        # for each input-mode activation fed by a matmul of its own
        graph, x = prefix_net(net)
        model = convert(graph)
        calls = counting_matmuls(monkeypatch)
        ann_forward(graph, x)
        snn_forward(model, x, trace=SnnTrace())
        alone = dict(calls)
        calls.clear()
        check_equivalence(graph, x, model)
        borrowed = Counter(graph.layer(lid).kind for lid in borrowed_matmuls(graph, model))
        for kind in ("conv", "fc"):
            assert calls[kind] == alone.get(kind, 0) - borrowed[kind], kind

    def test_certificate_holds_one_copy_of_the_first_conv(self):
        # c1's 2.1 MB output feeds the input-mode a1. The certificate's peak
        # is the reference trace it holds, the spiking pass's own peak and
        # the c2 running sum the SnnTrace keeps; running c1 a second time
        # and storing its output in the SnnTrace adds one more c1 output.
        layers = [{"id": "in", "kind": "input", "pred": [], "shape": [3, 32, 32]},
                  {"id": "c1", "kind": "conv", "pred": ["in"], "out_channels": 64,
                   "kernel": 3, "padding": 1, "bias": True, "batch_norm": True},
                  {"id": "a1", "kind": "qcfs_act", "pred": ["c1"], "L": 8, "theta": 1.0},
                  {"id": "c2", "kind": "conv", "pred": ["a1"], "out_channels": 64,
                   "kernel": 3, "padding": 1, "bias": True, "batch_norm": True},
                  {"id": "a2", "kind": "qcfs_act", "pred": ["c2"], "L": 2, "theta": 1.0},
                  {"id": "pool", "kind": "avg_pool", "pred": ["a2"], "window": 2},
                  {"id": "head", "kind": "fc", "pred": ["pool"], "out_features": 10}]
        graph = init_random(parse_manifest(json.dumps(
            {"name": "vgg-head", "classes": 10, "layers": layers})), 23)
        model = convert(graph)
        x = np.random.default_rng(23).uniform(0, 1, size=(4, 3, 32, 32))
        check_equivalence(graph, x, model)          # warms weight views and indices
        layer_bytes = 4 * 64 * 32 * 32 * 8          # c1's output, and c2's sum
        held = traced_held_bytes(lambda: ann_forward(graph, x))
        alone = traced_peak_bytes(lambda: snn_forward(model, x))
        peak = traced_peak_bytes(lambda: check_equivalence(graph, x, model))
        assert peak < held + alone + layer_bytes + layer_bytes // 2

    def test_model_of_another_graph_borrows_nothing(self):
        # conv1_1 of the model's own graph is perturbed: its sum must differ
        # from the reference's, so the spiking pass may not read the latter
        graph, x = prefix_net("vgg16-mixed")
        weights = dict(graph.weights)
        weights["conv1_1"] = dict(weights["conv1_1"],
                                  weight=weights["conv1_1"]["weight"] * 1.001)
        report = check_equivalence(graph, x[:1], convert(graph.with_weights(weights)))
        assert report.per_layer[1].layer_id == "conv1_1"
        assert report.per_layer[1].rel_dev > 0
        assert check_equivalence(graph, x[:1]).per_layer[1].rel_dev == 0.0

    @pytest.mark.parametrize("other", ["values", "copy", "float32"])
    def test_reference_of_another_batch_is_rejected(self, other, monkeypatch):
        graph, x = prefix_net("toy")
        model = convert(graph)
        batch = {"values": x[::-1].copy(), "copy": x.copy(), "float32": x.astype(np.float32)}
        ref = ann_forward(graph, batch[other])
        calls = counting_matmuls(monkeypatch)
        with pytest.raises(ValueError, match="input layer 'in': the trace's reference "
                                             "was made from another input batch"):
            snn_forward(model, x, trace=SnnTrace(reference=ref))
        assert not calls
        # the array the pass reads is the reference's own: a C-contiguous
        # float64 batch, or the one input_batch made of any other
        x32 = batch["float32"]
        same = reference.input_batch(graph, x32)
        logits, _ = snn_forward(model, same, trace=SnnTrace(reference=ann_forward(graph, same)))
        assert logits.tobytes() == snn_forward(model, x32)[0].tobytes()


class TestBenchmarkContract:
    """What bench/ reads of the library: it times and keeps each pass by
    wrapping runtime.ann_forward and runtime.snn_forward, and its checks
    read these model and trace fields and rebuild both trace records."""

    def test_check_equivalence_runs_each_pass_once(self, toy_graph, monkeypatch):
        calls = []
        ann, snn = runtime.ann_forward, runtime.snn_forward

        def counting_ann(graph, x):
            calls.append("ann")
            return ann(graph, x)

        def counting_snn(model, x, trace=None, keep_counters=False):
            calls.append("snn")
            return snn(model, x, trace=trace, keep_counters=keep_counters)

        monkeypatch.setattr(runtime, "ann_forward", counting_ann)
        monkeypatch.setattr(runtime, "snn_forward", counting_snn)
        x = np.random.default_rng(28).uniform(0, 1, size=(2, 2, 8, 8))
        report = check_equivalence(toy_graph, x)
        assert sorted(calls) == ["ann", "snn"]
        assert report.argmax_agreement == 1.0

    def test_model_fields(self, toy_graph):
        model = convert(toy_graph)
        assert model.graph is toy_graph
        for layer in toy_graph.qcfs_layers():
            plan = model.if_plans[layer.id]
            assert plan.l_out == layer.qcfs.L == model.t_map[layer.id]
            assert plan.l_in == (model.t_map[layer.preds[0]] or layer.qcfs.L)
        assert model.final_timesteps == model.t_map[toy_graph.output_layer.id] == 2

    def test_trace_records_construct(self, toy_graph):
        x = np.random.default_rng(29).uniform(0, 1, size=(2, 2, 8, 8))
        ref = ann_forward(toy_graph, x)
        copy = LayerTrace(outputs=ref.outputs, pre_activations=ref.pre_activations,
                          histograms=ref.histograms, logits=ref.logits)
        assert copy.outputs is ref.outputs and copy.histograms is ref.histograms
        trace = SnnTrace()
        snn_forward(convert(toy_graph), x, trace=trace)
        rebuilt = SnnTrace(sums=trace.sums, trains=trace.trains)
        assert rebuilt.sums is trace.sums and rebuilt.trains is trace.trains

    @pytest.mark.parametrize("t", [1, 2, 4, 8, 9])
    def test_one_flipped_spike_moves_the_train(self, t):
        # the bench's "one emitted spike flipped" mutation rebuilds a train
        # from its bits with one bit flipped; a train keeps spike counts, so
        # the flip must move that neuron's count by one to stay rejectable
        counts = np.arange(t + 1)
        clean = SpikeTrain.thermometer(counts, t, 0.5)
        for step in range(t):
            for neuron in range(t + 1):
                flipped = clean.bits
                flipped[step, neuron] ^= True
                bad = SpikeTrain(bits=flipped, theta_star=clean.theta_star)
                assert not np.array_equal(bad.bits, clean.bits)
                moved = bad.spike_counts() - clean.spike_counts()
                assert np.abs(moved).tolist() == [int(i == neuron) for i in range(t + 1)]
