import json
import warnings
from collections.abc import Mapping

import numpy as np
import pytest

from spikecast import runtime
from spikecast.graph import (LayerSpec, ModelGraph, QcfsConfig, init_random,
                             parse_manifest)
from spikecast.kernels import BnAffine, ConvParams, conv2d, fully_connected, fused_bn_affine
from spikecast.reference import LayerTrace, _fold, ann_forward, forward, qcfs, run_layer
from spikecast.runtime import (ConversionError, IfLayer, SnnTrace, SpikeTrain,
                               _train_sum, check_equivalence, convert,
                               if_generic_layer, if_input_layer, snn_forward)
from spikecast.zoo import residual_block_manifest, resnet_manifest, toy_manifest

from conftest import (full_array_if, level_grid, mean_avg_pool2d, negative_weight_graph,
                      probe_graph, random_graph, step_train_sum, traced_held_bytes,
                      traced_peak_bytes)

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


def conv_stack_manifest(depth, steps):
    """depth 3x3 convs of 16 channels on 16x16 inputs, each followed by an
    activation with L = steps, then a 10-class head."""
    layers = [{"id": "in", "kind": "input", "pred": [], "shape": [3, 16, 16]}]
    prev = "in"
    for i in range(depth):
        layers += [{"id": f"c{i}", "kind": "conv", "pred": [prev], "out_channels": 16,
                    "kernel": 3, "padding": 1, "bias": True, "batch_norm": True},
                   {"id": f"a{i}", "kind": "qcfs_act", "pred": [f"c{i}"], "L": steps,
                    "theta": 1.0}]
        prev = f"a{i}"
    layers.append({"id": "f", "kind": "fc", "pred": [prev], "out_features": 10})
    return json.dumps({"name": "conv-stack", "classes": 10, "layers": layers})


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
        # stage 2 on the gathered moving neurons against the loop over every
        # neuron; a third of the inputs sit on exact level edges
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
        # an int16 counter and the emitted bits per neuron, plus buffers of
        # one chunk: nothing the size of a membrane array over the layer
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
        want = fused_bn_affine(fully_connected(x[0], w), affine)
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
            want = fused_bn_affine(conv2d(train.dense().sum(axis=0), p), affine)
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

    def test_two_trains_add_by_lookup(self):
        # 0.1 + 0.7 rounds, so the table entry must be the float sum itself
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
        for t in (1, 2, 3, 4, 7, 8, 300):
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
    outputs as arrays, qcfs giving _level_buffer * theta / L in place."""
    values = {}
    forward(graph, x, lambda layer, z, n: qcfs(z, layer.qcfs),
            record=lambda layer, value, n: values.__setitem__(layer.id, value))
    return values


def assert_trace_map(entries, ids, want, derived):
    """entries maps ids, in order, to arrays equal to want's in dtype, shape
    and bytes; an id in derived gets a fresh array on each read, any other
    the one stored array."""
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
            assert entries[lid] is got, lid
    with pytest.raises(TypeError):
        entries[ids[0]] = want[ids[0]]


class TestTraceMaps:
    """LayerTrace.outputs and SnnTrace.sums: read-only maps in graph order
    whose activation and train entries are built on each read."""

    @pytest.mark.parametrize("net", ["toy", "residual", "input-mode-fc"])
    def test_layer_trace_outputs(self, net):
        graph, x = contract_net(net)
        ref = ann_forward(graph, x)
        acts = {layer.id for layer in graph.qcfs_layers()}
        assert_trace_map(ref.outputs, [layer.id for layer in graph.layers],
                         walked_outputs(graph, x), acts)

    @pytest.mark.parametrize("net", ["toy", "residual", "input-mode-fc"])
    def test_snn_trace_sums(self, net):
        graph, x = contract_net(net)
        trace = SnnTrace()
        snn_forward(convert(graph), x, trace=trace)
        assert set(trace.trains) == {layer.id for layer in graph.qcfs_layers()}
        want = {lid: train.dense().sum(axis=0) for lid, train in trace.trains.items()}
        for lid, total in trace.sums.items():
            want.setdefault(lid, total)
        if net == "residual":
            dense = trace.trains["act0"].dense() + trace.trains["act1"].dense()
            assert want["merge"].tobytes() == dense.sum(axis=0).tobytes()
        assert_trace_map(trace.sums, [layer.id for layer in graph.layers], want,
                         set(trace.trains))

    def test_traces_hold_levels_and_bits(self):
        # a LayerTrace holds its stored outputs plus one level item per
        # activation element; an SnnTrace its stored sums plus train bits.
        # Keeping float64 activation outputs or train sums breaks either bound.
        graph = init_random(parse_manifest(conv_stack_manifest(depth=4, steps=4)), 17)
        model = convert(graph)
        x = np.random.default_rng(17).uniform(0, 1, size=(2, 3, 16, 16))
        ref = ann_forward(graph, x)                 # also warms weight views and indices
        trace = SnnTrace()
        snn_forward(model, x, trace=trace)
        slack = 32 << 10
        stored = sum(ref.outputs[layer.id].nbytes for layer in graph.layers
                     if layer.kind != "qcfs_act")
        levels = sum(np.dtype(np.min_scalar_type(layer.qcfs.L)).itemsize
                     * ref.pre_activations[layer.id].size for layer in graph.qcfs_layers())
        assert traced_held_bytes(lambda: ann_forward(graph, x)) < stored + levels + slack

        def spiking_trace():
            held = SnnTrace()
            snn_forward(model, x, trace=held)
            return held
        stored = sum(trace.sums[lid].nbytes for lid in trace.sums if lid not in trace.trains)
        bits = sum(train.bits.nbytes for train in trace.trains.values())
        assert traced_held_bytes(spiking_trace) < stored + bits + slack


class TestCheckEquivalence:
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

    def test_instances_counts_batch_rows(self, toy_graph):
        images = list(np.random.default_rng(17).uniform(0, 1, size=(3, 2, 8, 8)))
        assert check_equivalence(toy_graph, images).instances == 3
        assert check_equivalence(toy_graph, images[0]).instances == 1

    def test_report_dict_schema(self, toy_graph):
        x = np.random.default_rng(14).uniform(0, 1, size=(2, 2, 8, 8))
        doc = check_equivalence(toy_graph, x).to_dict()
        assert set(doc) == {"per_layer", "argmax_agreement", "max_logit_dev",
                            "inhibitory_spikes"}
        assert all(set(row) == {"id", "max_abs_dev", "rel_dev"}
                   for row in doc["per_layer"])


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
