import json

import numpy as np
import pytest

from spikecast.graph import (GraphError, QcfsConfig, conv_params, fc_weights,
                             init_random, layer_affine, load_weights, parse_manifest,
                             save_weights, serialize_manifest)
from spikecast.reference import ann_forward
from spikecast.runtime import convert, snn_forward
from spikecast.zoo import vgg16_manifest


def small_manifest(**overrides):
    doc = {
        "name": "small",
        "classes": 2,
        "layers": [
            {"id": "in", "kind": "input", "pred": [], "shape": [3, 4, 4]},
            {"id": "c1", "kind": "conv", "pred": ["in"], "out_channels": 4,
             "kernel": 3, "padding": 1, "bias": True},
            {"id": "a1", "kind": "qcfs_act", "pred": ["c1"], "L": 4, "theta": 1.0},
            {"id": "f1", "kind": "fc", "pred": ["a1"], "out_features": 2},
        ],
    }
    doc.update(overrides)
    return doc


class TestParse:
    def test_three_layer_chain(self):
        g = parse_manifest(json.dumps(small_manifest()))
        assert [l.kind for l in g.layers] == ["input", "conv", "qcfs_act", "fc"]
        assert g.layer("c1").out_shape == (4, 4, 4)
        assert g.layer("f1").in_channels == 64

    def test_vgg16_layer_census(self):
        g = parse_manifest(vgg16_manifest(classes=10, steps=4))
        kinds = [l.kind for l in g.layers]
        assert kinds.count("conv") == 13
        assert kinds.count("fc") == 3
        assert kinds.count("avg_pool") == 5
        assert kinds.count("qcfs_act") == 15
        assert len(g.matmul_layers()) == 16
        assert [l.qcfs.L for l in g.qcfs_layers()] == [4] * 15

    def test_residual_arity_error(self):
        doc = small_manifest()
        doc["layers"].insert(3, {"id": "r", "kind": "residual_add", "pred": ["a1"]})
        doc["layers"][4]["pred"] = ["r"]
        with pytest.raises(GraphError, match="residual_add arity"):
            parse_manifest(json.dumps(doc))

    def test_cycle_detected(self):
        doc = small_manifest()
        doc["layers"][1]["pred"] = ["a1"]
        with pytest.raises(GraphError, match="cycle"):
            parse_manifest(json.dumps(doc))

    def test_dangling_predecessor(self):
        doc = small_manifest()
        doc["layers"][1]["pred"] = ["ghost"]
        with pytest.raises(GraphError, match="dangling predecessor"):
            parse_manifest(json.dumps(doc))

    def test_activation_must_follow_matmul(self):
        doc = small_manifest()
        doc["layers"].insert(2, {"id": "p", "kind": "avg_pool", "pred": ["c1"],
                                 "window": 2})
        doc["layers"][3]["pred"] = ["p"]
        with pytest.raises(GraphError, match="must directly follow"):
            parse_manifest(json.dumps(doc))

    def test_max_pool_rejected(self):
        # a max does not commute with the timestep sum: no spiking counterpart
        doc = small_manifest()
        doc["layers"].insert(3, {"id": "p", "kind": "max_pool", "pred": ["a1"],
                                 "window": 2})
        doc["layers"][4]["pred"] = ["p"]
        with pytest.raises(GraphError, match="layer 'p': unsupported nonlinearity"):
            parse_manifest(json.dumps(doc))

    def test_missing_activation_params(self):
        doc = small_manifest()
        del doc["layers"][2]["L"]
        with pytest.raises(GraphError, match="'L' and 'theta'"):
            parse_manifest(json.dumps(doc))

    def test_non_positive_step_or_threshold(self):
        with pytest.raises(GraphError, match="quantization step"):
            QcfsConfig(L=0, theta=1.0)
        with pytest.raises(GraphError, match="threshold"):
            QcfsConfig(L=4, theta=0.0)

    @pytest.mark.parametrize("index, field, value, match", [
        (1, "out_channels", None, "'c1': 'conv' layer needs 'out_channels'"),
        (1, "out_channels", 0, "'c1': field 'out_channels' must be positive, got 0"),
        (1, "out_channels", -2, "'c1': field 'out_channels' must be positive, got -2"),
        (3, "out_features", None, "'f1': 'fc' layer needs 'out_features'"),
        (3, "out_features", 0, "'f1': field 'out_features' must be positive, got 0"),
        (4, "window", None, "'p': 'avg_pool' layer needs 'window'"),
        (4, "window", -2, "'p': field 'window' must be positive, got -2"),
        (1, "kernel", 0, "'c1': field 'kernel' must be >= 1, got 0"),
        (1, "stride", [1, 0], r"'c1': field 'stride' must be >= 1, got \[1, 0\]"),
        (1, "padding", -1, "'c1': field 'padding' must be >= 0, got -1"),
        (0, "shape", [3, -4, 4], r"'in': input shape must be positive, got \[3, -4, 4\]"),
    ])
    def test_missing_or_non_positive_field(self, index, field, value, match):
        doc = small_manifest()
        doc["layers"].append({"id": "p", "kind": "avg_pool", "pred": ["a1"], "window": 2})
        doc["layers"][3]["pred"] = ["p"]
        if value is None:
            del doc["layers"][index][field]
        else:
            doc["layers"][index][field] = value
        with pytest.raises(GraphError, match="layer " + match):
            parse_manifest(json.dumps(doc))

    def test_standalone_bn_is_fused(self):
        doc = small_manifest()
        doc["layers"].insert(2, {"id": "bn", "kind": "bn_affine", "pred": ["c1"],
                                 "epsilon": 1e-4})
        doc["layers"][3]["pred"] = ["bn"]
        g = parse_manifest(json.dumps(doc))
        assert "bn" not in [l.id for l in g.layers]
        c1 = g.layer("c1")
        assert c1.has_bn and c1.epsilon == 1e-4
        assert g.layer("a1").preds == ("c1",)

    def test_output_size_must_match_classes(self):
        doc = small_manifest(classes=5)
        with pytest.raises(GraphError, match="class count"):
            parse_manifest(json.dumps(doc))

    def test_serialize_round_trip(self):
        g = parse_manifest(vgg16_manifest(classes=10, steps=[1, 2, 4] * 5))
        again = parse_manifest(serialize_manifest(g))
        assert serialize_manifest(again) == serialize_manifest(g)
        assert [l.id for l in again.layers] == [l.id for l in g.layers]


class TestWeights:
    def test_round_trip_bit_exact(self, toy_graph, tmp_path):
        save_weights(toy_graph, tmp_path)
        loaded = load_weights(toy_graph, tmp_path)
        for lid, arrays in toy_graph.weights.items():
            for name, arr in arrays.items():
                np.testing.assert_array_equal(loaded.weights[lid][name], arr)

    def test_wrong_length_blob(self, toy_graph, tmp_path):
        save_weights(toy_graph, tmp_path)
        blob = tmp_path / "conv1.f32"
        data = np.fromfile(blob, dtype="<f4")
        data[:-3].tofile(blob)
        with pytest.raises(GraphError, match=r"has \d+ elements, expected \d+"):
            load_weights(toy_graph, tmp_path)

    def test_missing_blob(self, toy_graph, tmp_path):
        with pytest.raises(GraphError, match="missing weight blob"):
            load_weights(toy_graph, tmp_path)

    def test_non_finite_rejected(self, toy_graph, tmp_path):
        save_weights(toy_graph, tmp_path)
        blob = tmp_path / "conv1.f32"
        data = np.fromfile(blob, dtype="<f4")
        data[0] = np.nan
        data.tofile(blob)
        with pytest.raises(GraphError, match="non-finite"):
            load_weights(toy_graph, tmp_path)

    def test_zero_weights_forward_to_zero(self, toy_graph):
        zeros = {lid: {k: np.zeros_like(v) for k, v in arrs.items()}
                 for lid, arrs in toy_graph.weights.items()}
        trace = ann_forward(toy_graph.with_weights(zeros), np.ones((1, 2, 8, 8)))
        np.testing.assert_array_equal(trace.logits, 0.0)


class TestInitRandom:
    def test_same_seed_bit_identical(self, toy_graph):
        a = init_random(toy_graph, 123)
        b = init_random(toy_graph, 123)
        for lid in a.weights:
            for name in a.weights[lid]:
                assert a.weights[lid][name].tobytes() == b.weights[lid][name].tobytes()

    def test_different_seeds_differ(self, toy_graph):
        a = init_random(toy_graph, 1)
        b = init_random(toy_graph, 2)
        assert any((a.weights[lid]["weight"] != b.weights[lid]["weight"]).any()
                   for lid in a.weights)

    def test_fan_in_bound(self):
        doc = small_manifest()
        doc["layers"][0]["shape"] = [1, 4, 4]
        g = init_random(parse_manifest(json.dumps(doc)), 99)
        w = g.weights["c1"]["weight"]          # fan_in = 1 * 3 * 3 = 9
        assert np.all(np.abs(w) <= 1.0 / 3.0)

    def test_chunked_draws_match_one_shot_draw(self):
        # fc2 (4096 x 4096) spans 16 chunks; the one-shot draw of each field
        # from the same stream, cast to float32, is the oracle
        g = init_random(parse_manifest(vgg16_manifest(classes=10, steps=4)), 3)
        rng = np.random.default_rng(np.uint64(3))
        ranges = {"gamma": (0.5, 1.5), "sigma_sq": (0.25, 1.0),
                  "beta": (-0.5, 0.5), "mu": (-0.5, 0.5)}
        for layer in g.matmul_layers():
            r = float(np.sqrt(1.0 / int(np.prod(layer.weight_shape()[1:]))))
            for name, got in g.weights[layer.id].items():
                low, high = ranges.get(name, (-r, r))
                want = rng.uniform(low, high, size=got.shape).astype(np.float32)
                assert got.tobytes() == want.tobytes(), (layer.id, name)


def _view_arrays(graph):
    """Every array of every float64 view of the graph, built on demand."""
    out = []
    for layer in graph.matmul_layers():
        out.append(conv_params(graph, layer).weights if layer.kind == "conv"
                   else fc_weights(graph, layer))
        affine = layer_affine(graph, layer)
        if affine is not None:
            out += [affine.gamma, affine.beta, affine.mu, affine.sigma_sq, affine.bias]
    return out


class TestWeightViews:
    def test_built_once_per_graph(self, toy_graph):
        for layer in toy_graph.matmul_layers():
            view = conv_params if layer.kind == "conv" else fc_weights
            assert view(toy_graph, layer) is view(toy_graph, layer)
            assert layer_affine(toy_graph, layer) is layer_affine(toy_graph, layer)

    def test_views_are_read_only(self, toy_graph):
        arrays = _view_arrays(toy_graph)
        assert arrays and all(a.dtype == np.float64 for a in arrays)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_caller_float64_weights_stay_writeable(self, toy_graph):
        weights = {lid: {k: v.astype(np.float64) for k, v in arrs.items()}
                   for lid, arrs in toy_graph.weights.items()}
        g = toy_graph.with_weights(weights)
        ann_forward(g, np.ones((1, 2, 8, 8)))
        views = _view_arrays(g)
        for arrs in weights.values():
            for a in arrs.values():
                assert a.flags.writeable
                assert not any(np.shares_memory(a, v) for v in views)

    def test_with_weights_starts_with_fresh_views(self, toy_graph):
        x = np.random.default_rng(4).uniform(0, 1, size=(2, 2, 8, 8))
        before = ann_forward(toy_graph, x).logits
        head = toy_graph.layer("head")
        weights = dict(toy_graph.weights)
        weights["head"] = dict(weights["head"], weight=-weights["head"]["weight"])
        g = toy_graph.with_weights(weights)
        assert fc_weights(g, head) is not fc_weights(toy_graph, head)
        np.testing.assert_array_equal(fc_weights(g, head), weights["head"]["weight"])
        assert not np.array_equal(ann_forward(g, x).logits, before)

    def test_warm_views_give_identical_bytes(self, toy_graph):
        x = np.random.default_rng(5).uniform(0, 1, size=(3, 2, 8, 8))
        model = convert(toy_graph)
        first, again = ann_forward(toy_graph, x), ann_forward(toy_graph, x)
        cold = toy_graph.with_weights(toy_graph.weights)
        for trace in (again, ann_forward(cold, x)):
            assert trace.logits.tobytes() == first.logits.tobytes()
            for lid, out in first.outputs.items():
                assert trace.outputs[lid].tobytes() == out.tobytes()
        logits, _ = snn_forward(model, x)
        assert snn_forward(model, x)[0].tobytes() == logits.tobytes()
        assert snn_forward(convert(cold), x)[0].tobytes() == logits.tobytes()
