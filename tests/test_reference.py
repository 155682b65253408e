import json
import warnings

import numpy as np
import pytest

from spikecast.graph import QcfsConfig, init_random, parse_manifest
from spikecast.kernels import KernelError
from spikecast.reference import SpikeTrain, _levels, ann_forward, qcfs, qcfs_levels

from conftest import expression_levels


class TestQcfs:
    def test_sample_staircase_value(self):
        # L=4, theta=0.25: z=0.10 sits on level 2 -> 0.125
        cfg = QcfsConfig(L=4, theta=0.25)
        assert qcfs(np.array([0.10]), cfg)[0] == pytest.approx(0.125, abs=1e-15)
        assert qcfs_levels(np.array([0.10]), cfg)[0] == 2

    def test_clip_boundaries(self):
        cfg = QcfsConfig(L=4, theta=1.0)
        assert qcfs(np.array([0.0]), cfg)[0] == 0.0
        assert qcfs(np.array([-3.0]), cfg)[0] == 0.0
        # z >= theta * (L - 1/2) / L saturates at theta
        assert qcfs(np.array([0.875]), cfg)[0] == 1.0
        assert qcfs(np.array([50.0]), cfg)[0] == 1.0

    def test_floor_plus_half(self):
        cfg = QcfsConfig(L=4, theta=1.0)
        assert qcfs(np.array([0.9]), cfg)[0] == 1.0   # floor(3.6 + .5) = 4, clipped

    def test_level_edge_is_inclusive(self):
        # z = (k - 1/2) * theta / L maps to level k
        cfg = QcfsConfig(L=4, theta=1.0)
        assert qcfs_levels(np.array([0.125]), cfg)[0] == 1
        assert qcfs_levels(np.array([0.375]), cfg)[0] == 2
        assert qcfs_levels(0.375, cfg) == 2 and qcfs(0.375, cfg) == 0.5

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            cfg = QcfsConfig(L=int(rng.choice([1, 2, 4, 8])),
                             theta=float(rng.uniform(0.2, 2.0)))
            z = rng.uniform(-1.5, 2.5, size=64)
            once = qcfs(z, cfg)
            np.testing.assert_array_equal(qcfs(once, cfg), once)

    def test_monotone(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            cfg = QcfsConfig(L=int(rng.choice([1, 2, 4, 8])),
                             theta=float(rng.uniform(0.2, 2.0)))
            z = np.sort(rng.uniform(-1.5, 2.5, size=64))
            out = qcfs(z, cfg)
            assert np.all(np.diff(out) >= 0)

    def test_exact_level_membership(self):
        rng = np.random.default_rng(23)
        cfg = QcfsConfig(L=8, theta=0.73)
        z = rng.uniform(-1, 2, size=2000)
        out = qcfs(z, cfg)
        grid = np.arange(cfg.L + 1) * (cfg.theta / cfg.L)
        assert np.all(np.isin(out, grid))

    def test_one_buffer_matches_expression(self):
        # exact level edges (k - 1/2) theta / L, their float neighbours, the
        # clip bounds and float32 input, against the single-expression form
        rng = np.random.default_rng(25)
        for _ in range(200):
            cfg = QcfsConfig(L=int(rng.choice([1, 2, 3, 4, 8, 10])),
                             theta=float(rng.choice([1.0, 0.1, 0.7, rng.uniform(0.2, 2.0)])))
            edges = (np.arange(-1, cfg.L + 2) - 0.5) * (cfg.theta / cfg.L)
            z = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                np.nextafter(edges, np.inf), rng.uniform(-1, 3, size=32),
                                [0.0, -0.0, cfg.theta, 1e30, -1e30]])
            for arr in (z, z[None, :, None], z.astype(np.float32)):
                levels = expression_levels(arr, cfg)
                assert qcfs_levels(arr, cfg).tobytes() == levels.astype(np.int64).tobytes()
                assert qcfs(arr, cfg).tobytes() == (levels * (cfg.theta / cfg.L)).tobytes()

    @pytest.mark.parametrize("L", [1, 3, 255, 256, 2 ** 16, 2 ** 31 - 1, 2 ** 31])
    def test_cast_is_the_floor(self, L):
        # _levels clips before its integer cast and has no floor: on [0, L]
        # the cast truncates, which is the floor. Edges, their float
        # neighbours, signed zeros, subnormals and the overflowing ends.
        k = np.arange(-2, 3000)
        k = np.concatenate([k, L - k]) if L > 3000 else k[k <= L + 2]
        for theta in (1e-3, 0.1, 1.0 / 3.0, 0.7, 1.0, 2.5, 1e3):
            cfg = QcfsConfig(L=L, theta=theta)
            edges = (k - 0.5) * (theta / L)
            z = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                                [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
                                 np.inf, -np.inf]])
            with np.errstate(over="ignore"):
                want = expression_levels(z, cfg)
                got = _levels(z, cfg)
            assert got.dtype == np.min_scalar_type(L)
            assert np.array_equal(got, want)


class TestSpikeTrain:
    @pytest.mark.parametrize("t", [1, 7, 8, 9, 16, 17, 255, 256])
    def test_arbitrary_bits_round_trip(self, t):
        # a train holds its spike counts, so thermometer bits (each neuron's
        # spikes in its first timesteps, as every pass emits them) read back
        # byte for byte: the bool tensor is the oracle. Scattered bits keep
        # their per-neuron counts and read back in thermometer order.
        rng = np.random.default_rng(60 + t)
        for density in (0.0, 0.3, 0.8, 1.0):
            scattered = rng.random((t, 2, 3, 5)) < density
            bits = np.sort(scattered, axis=0)[::-1]     # the same counts, first steps
            for given in (bits, scattered):
                train = SpikeTrain(bits=given, theta_star=0.1)
                assert train.timesteps == t and train.theta_star == 0.1
                assert train.counts.shape == (2, 3, 5)
                assert train.counts.dtype == np.min_scalar_type(t)
                assert not train.counts.flags.writeable
                for got, want in ((train.bits, bits),
                                  (train.dense(), bits.astype(np.float64) * 0.1),
                                  (train.spike_counts(), bits.sum(axis=0))):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes()
                again = train.bits
                again[...] = ~bits
                assert train.bits.tobytes() == bits.tobytes()

    def test_spike_order_is_not_kept(self):
        # removed behaviour: a train no longer keeps a non-thermometer order.
        # A neuron that fired at timesteps 1 and 3 of 4 reads back as firing
        # at 0 and 1; its count, sum and dense total are unchanged.
        scattered = np.array([False, True, False, True]).reshape(4, 1)
        train = SpikeTrain(bits=scattered, theta_star=0.5)
        assert train.bits[:, 0].tolist() == [True, True, False, False]
        assert train.spike_counts().tolist() == [2]
        assert train.dense().sum(axis=0).tolist() == [1.0]

    @pytest.mark.parametrize("t", [1, 3, 8, 9, 16, 17])
    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_thermometer_is_clipped_ticks(self, t, dtype):
        # counters below 0 and above T included: the builder clips them
        rng = np.random.default_rng(80 + t)
        counts = np.concatenate([np.arange(-3, t + 4), rng.integers(-40, 40, size=37)])
        counts = counts.astype(dtype).reshape(-1, 1)
        train = SpikeTrain.thermometer(counts, t, 0.25)
        ticks = np.arange(1, t + 1).reshape(t, 1, 1)
        want = ticks <= np.clip(counts, 0, t)
        assert (train.timesteps, train.theta_star) == (t, 0.25)
        assert train.bits.shape == want.shape and train.bits.tobytes() == want.tobytes()
        assert train.counts.dtype == np.min_scalar_type(t)
        assert train.counts.tobytes() == SpikeTrain(want, 0.25).counts.tobytes()
        assert train.spike_counts().tobytes() == want.sum(axis=0).tobytes()


class TestAnnForward:
    def test_hand_computed_single_path(self):
        # 1x1 conv (w=2, b=0.1) -> act(L=4, theta=1) -> fc sum
        doc = {
            "name": "hand", "classes": 1,
            "layers": [
                {"id": "in", "kind": "input", "pred": [], "shape": [1, 1, 1]},
                {"id": "c", "kind": "conv", "pred": ["in"], "out_channels": 1,
                 "kernel": 1, "bias": True},
                {"id": "a", "kind": "qcfs_act", "pred": ["c"], "L": 4, "theta": 1.0},
                {"id": "f", "kind": "fc", "pred": ["a"], "out_features": 1},
            ],
        }
        g = parse_manifest(json.dumps(doc)).with_weights({
            "c": {"weight": np.full((1, 1, 1, 1), 2.0, dtype=np.float32),
                  "bias": np.array([0.125], dtype=np.float32)},
            "f": {"weight": np.array([[3.0]], dtype=np.float32)},
        })
        x = np.full((1, 1, 1, 1), 0.3)
        trace = ann_forward(g, x)
        # conv: 0.725 ; act: floor(2.9 + .5)/4 = 3/4 ; fc: 2.25
        assert trace.outputs["c"][0, 0, 0, 0] == pytest.approx(0.725, abs=1e-12)
        assert trace.outputs["a"][0, 0, 0, 0] == pytest.approx(0.75, abs=1e-15)
        assert trace.logits[0, 0] == pytest.approx(2.25, abs=1e-12)
        assert "a" in trace.pre_activations and "a" in trace.histograms

    def test_histograms_tally_every_level(self, toy_graph):
        # one bin per level 0..L, every pre-activation element counted once,
        # each in the bin of the level its output sits on
        x = np.random.default_rng(26).uniform(0, 1, size=(3, 2, 8, 8))
        trace = ann_forward(toy_graph, x)
        for layer in toy_graph.qcfs_layers():
            cfg, counts = layer.qcfs, trace.histograms[layer.id]
            assert counts.shape == (cfg.L + 1,)
            assert counts.sum() == trace.pre_activations[layer.id].size
            levels = np.rint(trace.outputs[layer.id] / (cfg.theta / cfg.L)).astype(np.int64)
            np.testing.assert_array_equal(counts, np.bincount(levels.ravel(),
                                                              minlength=cfg.L + 1))
        zero = ann_forward(toy_graph.with_weights(
            {lid: {k: np.zeros_like(v) for k, v in arrs.items()}
             for lid, arrs in toy_graph.weights.items()}), x)
        for layer in toy_graph.qcfs_layers():
            assert zero.histograms[layer.id][0] == zero.pre_activations[layer.id].size

    @pytest.mark.parametrize("L", [1, 255, 256])
    def test_levels_at_every_width(self, L):
        # _levels returns levels in np.min_scalar_type(L): uint8 up to
        # L = 255 and uint16 from 256, where a uint8 store would wrap the
        # top level to 0. Inputs sweep every level, the clipped ends included.
        doc = {"name": "sweep", "classes": 2, "layers": [
            {"id": "in", "kind": "input", "pred": [], "shape": [640, 1, 1]},
            {"id": "fc", "kind": "fc", "pred": ["in"], "out_features": 640},
            {"id": "act", "kind": "qcfs_act", "pred": ["fc"], "L": L, "theta": 0.9},
            {"id": "head", "kind": "fc", "pred": ["act"], "out_features": 2},
        ]}
        graph = init_random(parse_manifest(json.dumps(doc)), 7)
        identity = {"weight": np.eye(640, dtype=np.float32)}
        graph = graph.with_weights(dict(graph.weights, fc=identity))
        x = np.linspace(-0.1, 1.0, 2 * 640).reshape(2, 640, 1, 1)
        trace = ann_forward(graph, x)
        cfg = graph.layer("act").qcfs
        levels = _levels(trace.pre_activations["act"], cfg)
        counts = trace.histograms["act"]
        assert counts[0] > 0 and counts[L] > 0
        assert trace.outputs["act"].tobytes() == (levels * (cfg.theta / cfg.L)).tobytes()
        want = np.bincount(levels.astype(np.int64).ravel(), minlength=L + 1)
        assert counts.dtype == want.dtype and counts.tobytes() == want.tobytes()

    def test_deterministic(self, toy_graph):
        x = np.random.default_rng(3).uniform(0, 1, size=(2, 2, 8, 8))
        a = ann_forward(toy_graph, x)
        b = ann_forward(toy_graph, x)
        assert a.logits.tobytes() == b.logits.tobytes()

    def test_input_shape_mismatch(self, toy_graph):
        with pytest.raises(ValueError, match="does not match"):
            ann_forward(toy_graph, np.zeros((1, 3, 8, 8)))

    def test_empty_batch_names_input_layer(self, toy_graph):
        with pytest.raises(ValueError, match="input layer 'in': empty batch"):
            ann_forward(toy_graph, np.zeros((0, 2, 8, 8)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_names_input_layer(self, toy_graph, bad):
        x = np.zeros((2, 2, 8, 8))
        x[1, 0, 3, 4] = bad
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="input layer 'in': input contains non-finite"):
                ann_forward(toy_graph, x)
        assert not caught

    @pytest.mark.parametrize("x", [np.full((1, 2, 8, 8), 0.5 + 1j), np.full((1, 2, 8, 8), "0.5"),
                                   np.full((1, 2, 8, 8), b"0.5"),
                                   np.zeros((1, 2, 8, 8), dtype="datetime64[s]"),
                                   np.zeros((1, 2, 8, 8), dtype="V8")],
                             ids=["complex", "string", "bytes", "datetime", "void"])
    def test_non_real_dtype_names_input_layer(self, toy_graph, x):
        with pytest.raises(ValueError, match="input layer 'in': input dtype .* is not real-valued"):
            ann_forward(toy_graph, x)

    def test_real_dtypes_give_the_float64_bytes(self, toy_graph):
        x = np.random.default_rng(6).integers(0, 2, size=(2, 2, 8, 8))
        want = ann_forward(toy_graph, x.astype(np.float64)).logits.tobytes()
        for v in (x, x.astype(bool), x.astype(np.float32), x.astype(object), x.tolist()):
            assert ann_forward(toy_graph, v).logits.tobytes() == want


    def test_graph_without_weights_raises_value_error(self, toy_graph):
        x = np.random.default_rng(4).uniform(0, 1, size=(2, 2, 8, 8))
        with pytest.raises(ValueError, match="layer 'conv1': graph has no weights loaded"):
            ann_forward(toy_graph.with_weights({}), x)

    def test_kernel_error_names_layer(self, toy_graph):
        weights = dict(toy_graph.weights)
        weights["conv2"] = dict(weights["conv2"],
                                weight=np.full_like(weights["conv2"]["weight"], 1.5e308))
        x = np.random.default_rng(4).uniform(0, 1, size=(2, 2, 8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)     # the overflowing product
            with pytest.raises(KernelError,
                               match="layer 'conv2': conv output contains non-finite values"):
                ann_forward(toy_graph.with_weights(weights), x)
