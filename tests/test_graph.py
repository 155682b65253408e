import json
import re
from pathlib import Path

import numpy as np
import pytest

from spikecast.graph import (GraphError, QcfsConfig, conv_params, init_random,
                             layer_affine, load_weights, parse_manifest, save_weights,
                             serialize_manifest)
from spikecast.reference import ann_forward
from spikecast.runtime import convert, snn_forward
from spikecast.zoo import (residual_block_manifest, resnet_manifest, toy_manifest,
                           vgg16_manifest)

from conftest import no_matmul_manifest, pooled_input_manifest, traced_peak_bytes


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


def swept_manifest():
    """small_manifest with a pool and every optional conv/fc field written out."""
    doc = small_manifest()
    doc["layers"][1].update(stride=1, batch_norm=True, epsilon=1e-5)
    doc["layers"].insert(3, {"id": "p", "kind": "avg_pool", "pred": ["a1"], "window": 2})
    doc["layers"][4].update(pred=["p"], bias=False)
    return doc


# json.dumps writes NaN and +-Infinity as literals that json.loads accepts
MALFORMED = [True, "high", 2.5, None, -1, float("nan"), float("inf"), float("-inf")]
# the (field, value) pairs of that list that are well-formed
ACCEPTED = {("id", "high"), ("name", "high"), ("bias", True), ("batch_norm", True),
            ("theta", 2.5), ("epsilon", 2.5)}
SWEPT = swept_manifest()


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

    def test_bn_affine_rejected(self):
        # batch-norm is written on the conv/fc it follows, never as a layer
        doc = small_manifest()
        doc["layers"].insert(2, {"id": "bn", "kind": "bn_affine", "pred": ["c1"],
                                 "epsilon": 1e-4})
        doc["layers"][3]["pred"] = ["bn"]
        with pytest.raises(GraphError, match=r"^layer 'bn': standalone bn_affine is not "
                                             r"supported: set 'batch_norm' \(and 'epsilon'\) "
                                             r"on the conv/fc it follows$"):
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
        (0, "shape", [3, 4], r"'in': input layer needs 'shape': \[C, H, W\]$"),
        (1, "kind", "deconv", "'c1': unknown layer kind 'deconv'$"),
        (3, "id", "c1", "'c1': duplicate layer id$"),
        (2, "pred", ["c1", "in"], "'a1': activation needs exactly one predecessor$"),
        (4, "pred", ["a1", "c1"], "'p': 'avg_pool' needs exactly one predecessor$"),
        (1, "pred", ["in", "in"], "'c1': 'conv' needs exactly one predecessor$"),
        (3, "pred", ["p", "a1"], "'f1': 'fc' needs exactly one predecessor$"),
        (1, "stride", 2, r"'c1': conv geometry does not tile: input 4x4, kernel \(3, 3\), "
                         r"stride \(2, 2\), padding \(1, 1\)$"),
        (4, "window", 3, "'p': pool window 3 does not divide 4x4$"),
        (2, "L", 0, "'a1': field 'L' must be positive, got 0$"),
        (2, "theta", -1, "'a1': field 'theta' must be a finite positive number, got -1$"),
        (2, "theta", float("inf"),
         "'a1': field 'theta' must be a finite positive number, got Infinity$"),
        (2, "L", 2.7, "'a1': field 'L' must be an integer, got 2.7$"),
        (1, "out_channels", 2.5, "'c1': field 'out_channels' must be an integer, got 2.5$"),
        (4, "window", True, "'p': field 'window' must be an integer, got true$"),
        (1, "kernel", True, "'c1': field 'kernel' must be an int or a pair, got true$"),
        (1, "kernel", [3, 2.5], r"'c1': field 'kernel' must be an int or a pair, got \[3, 2.5\]$"),
        (0, "shape", [3, 4.5, 4], r"'in': input layer needs 'shape': \[C, H, W\]$"),
        (2, "L", "3", "'a1': field 'L' must be an integer, got \"3\"$"),
        (1, "bias", "no", "'c1': field 'bias' must be true or false, got \"no\"$"),
        (3, "batch_norm", 1, "'f1': field 'batch_norm' must be true or false, got 1$"),
        (2, "theta", "high", "'a1': field 'theta' must be a finite positive number, got \"high\"$"),
        (1, "epsilon", 0, "'c1': field 'epsilon' must be a finite positive number, got 0$"),
        (1, "epsilon", -1e-5,
         "'c1': field 'epsilon' must be a finite positive number, got -1e-05$"),
        (1, "epsilon", float("nan"),
         "'c1': field 'epsilon' must be a finite positive number, got NaN$"),
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

    @pytest.mark.parametrize("insert, changes, match", [
        ([], {"in": {"kind": "avg_pool", "window": 1}},
         "^graph must have exactly one input layer, found 0$"),
        ([(1, {"id": "in2", "kind": "input", "pred": [], "shape": [3, 4, 4]}),
          (2, {"id": "r", "kind": "residual_add", "pred": ["in", "in2"]})],
         {"c1": {"pred": ["r"]}},
         "^graph must have exactly one input layer, found 2$"),
        ([(0, {"id": "pre", "kind": "avg_pool", "pred": [], "window": 1})],
         {"in": {"pred": ["pre"]}},
         "^layer 'in': input layer cannot have predecessors$"),
        ([(4, {"id": "extra", "kind": "fc", "pred": ["a1"], "out_features": 2})], {},
         "^graph must have exactly one output layer, found f1, extra$"),
        ([], {"a1": {"pred": "c1"}},
         "^layer 'a1': field 'pred' must be a list of layer ids, got \"c1\"$"),
        ([], {"f1": {"id": 7}}, "^layer id must be a string, got 7$"),
        ([], {"a1": {"pred": [["c1"]]}},
         "^layer 'a1': field 'pred' must be a list of layer ids, got \\[\\[\"c1\"\\]\\]$"),
        ([(4, {"id": "c2", "kind": "conv", "pred": ["f1"], "out_channels": 2})], {},
         r"^layer 'c2': conv requires a spatial \(C, H, W\) input$"),
        ([(4, {"id": "p2", "kind": "avg_pool", "pred": ["f1"], "window": 1})], {},
         r"^layer 'p2': pool requires a spatial \(C, H, W\) input$"),
        ([(3, {"id": "r", "kind": "residual_add", "pred": ["a1", "in"]})],
         {"f1": {"pred": ["r"]}},
         r"^layer 'r': residual_add branch shapes differ: \(4, 4, 4\) vs \(3, 4, 4\)$"),
        ([], {"a1": {"id": None}}, "^every layer entry needs 'id' and 'kind' fields$"),
        ([], {"a1": {"kind": None}}, "^every layer entry needs 'id' and 'kind' fields$"),
    ])
    def test_structural_fault(self, insert, changes, match):
        # one fault per manifest; a None value deletes the field
        doc = small_manifest()
        for index, entry in insert:
            doc["layers"].insert(index, entry)
        for entry in doc["layers"]:
            for field, value in changes.get(entry["id"], {}).items():
                if value is None:
                    del entry[field]
                else:
                    entry[field] = value
        with pytest.raises(GraphError, match=match):
            parse_manifest(json.dumps(doc))

    @pytest.mark.parametrize("field", ["name", "classes", "layers"])
    def test_missing_top_level_field(self, field):
        doc = small_manifest()
        del doc[field]
        with pytest.raises(GraphError, match=f"^manifest is missing required field '{field}'$"):
            parse_manifest(json.dumps(doc))

    @pytest.mark.parametrize("field, value, match", [
        ("classes", 4.9, "'classes' must be an integer, got 4.9$"),
        ("classes", True, "'classes' must be an integer, got true$"),
        ("name", 5, "'name' must be a string, got 5$"),
        ("layers", {}, r"'layers' must be a list, got \{\}$"),
    ])
    def test_malformed_top_level_field(self, field, value, match):
        with pytest.raises(GraphError, match="^manifest field " + match):
            parse_manifest(json.dumps(small_manifest(**{field: value})))

    @pytest.mark.parametrize("index, field", [(None, f) for f in SWEPT] + [
        (i, f) for i, entry in enumerate(SWEPT["layers"]) for f in entry])
    def test_every_malformed_field_fails_at_parse(self, index, field):
        # a GraphError, never a bare ValueError, TypeError or KernelError, and
        # a per-layer fault names the layer it sits in
        for value in MALFORMED:
            if (field, value) in ACCEPTED:
                continue
            doc = swept_manifest()
            entry = doc if index is None else doc["layers"][index]
            entry[field] = value
            with pytest.raises(GraphError) as info:
                parse_manifest(json.dumps(doc))
            if index is not None:
                prefix = "layer " if field == "id" else f"layer '{entry['id']}': "
                assert str(info.value).startswith(prefix), (value, str(info.value))

    @pytest.mark.parametrize("text", ["5", "null", '"name"'])
    def test_manifest_must_be_an_object(self, text):
        with pytest.raises(GraphError, match="^manifest is missing required field 'name'$"):
            parse_manifest(text)

    def test_invalid_json(self):
        with pytest.raises(GraphError, match="^manifest is not valid JSON: "):
            parse_manifest(json.dumps(small_manifest())[:-1])

    def test_model_needs_a_matmul_layer(self):
        with pytest.raises(GraphError, match="^model 'nomm' has no conv or fc layer$"):
            parse_manifest(no_matmul_manifest())

    def test_output_size_must_match_classes(self):
        doc = small_manifest(classes=5)
        with pytest.raises(GraphError, match="class count"):
            parse_manifest(json.dumps(doc))

    def test_serialize_round_trip(self):
        g = parse_manifest(vgg16_manifest(classes=10, steps=[1, 2, 4] * 5))
        again = parse_manifest(serialize_manifest(g))
        assert serialize_manifest(again) == serialize_manifest(g)
        assert [l.id for l in again.layers] == [l.id for l in g.layers]

    def test_epsilon_written_only_with_batch_norm(self):
        # small_manifest's c1 is a bias-only conv and f1 a plain fc; SWEPT's
        # c1 has batch-norm, here with an epsilon other than the default
        def written(doc):
            text = serialize_manifest(parse_manifest(json.dumps(doc)))
            return {e["id"]: e for e in json.loads(text)["layers"]}

        plain = written(small_manifest())
        assert "epsilon" not in plain["c1"] and "epsilon" not in plain["f1"]
        swept = json.loads(json.dumps(SWEPT))
        swept["layers"][1]["epsilon"] = 1e-3
        assert written(swept)["c1"]["epsilon"] == 1e-3
        assert "epsilon" not in written(swept)["f1"]

    def test_seed_is_not_kept(self):
        doc = json.loads(serialize_manifest(parse_manifest(json.dumps(small_manifest(seed=42)))))
        assert set(doc) == {"name", "classes", "layers"}

    def test_old_style_manifest_parses_to_the_same_graph(self):
        # older serializers wrote epsilon on every conv/fc and kept a seed
        old = small_manifest(seed=42)
        for entry in old["layers"]:
            if entry["kind"] in ("conv", "fc"):
                entry.update(bias=entry.get("bias", False), batch_norm=False, epsilon=1e-5)
        g = parse_manifest(json.dumps(old))
        assert g == parse_manifest(json.dumps(small_manifest()))
        assert serialize_manifest(g) == serialize_manifest(
            parse_manifest(json.dumps(small_manifest())))


ZOO_MANIFESTS = {
    "toy": toy_manifest(),
    "vgg16-cifar": vgg16_manifest(10),
    "vgg16-imagenet": vgg16_manifest(1000, input_size=224),
    "resnet18-cifar": resnet_manifest(),
    "resnet34-imagenet": resnet_manifest((3, 4, 6, 3), input_size=224, classes=1000,
                                         imagenet_stem=True),
    "residual-toy": residual_block_manifest(),
}


class TestSource:
    """LayerSpec.source: the activation whose train a layer's value carries."""

    def test_chain_carries_the_last_activation(self):
        g = parse_manifest(vgg16_manifest(10))
        last = None
        for layer in g.layers:
            if layer.kind == "qcfs_act":
                last = layer.id
            assert layer.source == last, layer.id
        assert g.layer("conv1_1").source is None
        assert g.layer("pool5").source == g.layer("fc1").source == "act5_3"

    def test_resnet18_follows_first_predecessors(self):
        g = parse_manifest(resnet_manifest())
        assert g.layer("stem").source is None
        # a projection shortcut carries its block's input activation
        assert g.layer("s2b1_pool").source == g.layer("s2b1_proj").source == "s1b2_act2"
        # a residual add carries its first branch's train
        assert g.layer("s1b1_add").source == "s1b1_act1"
        assert g.layer("s2b1_add").source == "s2b1_act1"
        assert g.layer("gap").source == g.layer("fc").source == "s4b2_act2"
        assert all(l.source == l.id for l in g.qcfs_layers())

    def test_residual_block(self):
        g = parse_manifest(residual_block_manifest())
        assert {l.id: l.source for l in g.layers} == {
            "in": None, "stem": None, "act0": "act0", "branch": "act0", "act1": "act1",
            "merge": "act0", "act2": "act2", "head": "act2"}

    def test_pool_after_input_is_real_valued(self):
        g = parse_manifest(pooled_input_manifest())
        assert {l.id: l.source for l in g.layers} == {
            "in": None, "pool0": None, "conv": None, "act": "act", "fc": "act"}

    @pytest.mark.parametrize("name", sorted(ZOO_MANIFESTS))
    def test_round_trip_keeps_equal_layers(self, name):
        g = parse_manifest(ZOO_MANIFESTS[name])
        assert parse_manifest(serialize_manifest(g)).layers == g.layers


def _ids(entries):
    return [e["id"] for e in entries]


class TestOrder:
    @pytest.mark.parametrize("name", sorted(ZOO_MANIFESTS))
    def test_zoo_keeps_declared_order(self, name):
        declared = _ids(json.loads(ZOO_MANIFESTS[name])["layers"])
        g = parse_manifest(ZOO_MANIFESTS[name])
        assert [l.id for l in g.layers] == declared
        assert _ids(json.loads(serialize_manifest(g))["layers"]) == declared

    def test_documented_manifest_parses_in_order(self):
        doc_text = (Path(__file__).parents[1] / "docs" / "manifest_format.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", doc_text, re.DOTALL)
        assert len(blocks) == 1
        g = parse_manifest(blocks[0])
        assert [l.id for l in g.layers] == _ids(json.loads(blocks[0])["layers"])

    @pytest.mark.parametrize("name", sorted(ZOO_MANIFESTS))
    def test_reversed_manifest_sorts_the_same_every_call(self, name):
        doc = json.loads(ZOO_MANIFESTS[name])
        doc["layers"].reverse()
        text = json.dumps(doc)
        order = [l.id for l in parse_manifest(text).layers]
        assert sorted(order) == sorted(_ids(doc["layers"]))
        seen = set()
        for layer in parse_manifest(text).layers:
            assert set(layer.preds) <= seen, layer.id
            seen.add(layer.id)
        assert [l.id for l in parse_manifest(text).layers] == order


class TestWeights:
    def test_round_trip_bit_exact(self, toy_graph, tmp_path):
        save_weights(toy_graph, tmp_path)
        loaded = load_weights(toy_graph, tmp_path)
        for lid, arrays in toy_graph.weights.items():
            for name, arr in arrays.items():
                np.testing.assert_array_equal(loaded.weights[lid][name], arr)

    def test_blob_bytes_survive_load_and_save(self, toy_graph, tmp_path):
        save_weights(toy_graph, tmp_path / "a")
        save_weights(load_weights(toy_graph, tmp_path / "a"), tmp_path / "b")
        for layer in toy_graph.matmul_layers():
            name = f"{layer.id}.f32"
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

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

    @pytest.mark.parametrize("layer, field", [
        ("conv1", "weight"), ("conv1", "bias"), ("conv1", "gamma"), ("conv1", "beta"),
        ("conv1", "mu"), ("conv1", "sigma_sq"), ("conv2", "bias"), ("head", "weight")])
    def test_missing_field_names_layer(self, toy_graph, layer, field):
        # fields are checked where the weights are attached, not where a
        # pass first reads them
        weights = dict(toy_graph.weights)
        weights[layer] = {k: v for k, v in weights[layer].items() if k != field}
        with pytest.raises(GraphError, match=f"layer '{layer}': missing weight field '{field}'"):
            toy_graph.with_weights(weights)

    def test_missing_entry_names_every_field(self, toy_graph):
        weights = {lid: w for lid, w in toy_graph.weights.items() if lid != "conv2"}
        with pytest.raises(GraphError,
                           match="layer 'conv2': missing weight field 'weight', 'bias'"):
            toy_graph.with_weights(weights)


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
        # fc2 (4096 x 4096) spans 256 chunks; the one-shot draw of each field
        # from the same stream, cast to float32 and widened, is the oracle
        g = init_random(parse_manifest(vgg16_manifest(classes=10, steps=4)), 3)
        rng = np.random.default_rng(np.uint64(3))
        ranges = {"gamma": (0.5, 1.5), "sigma_sq": (0.25, 1.0),
                  "beta": (-0.5, 0.5), "mu": (-0.5, 0.5)}
        for layer in g.matmul_layers():
            r = float(np.sqrt(1.0 / int(np.prod(layer.weight_shape()[1:]))))
            for name, got in g.weights[layer.id].items():
                low, high = ranges.get(name, (-r, r))
                want = rng.uniform(low, high, size=got.shape).astype(np.float32)
                assert got.dtype == np.float64, (layer.id, name)
                assert got.tobytes() == want.astype(np.float64).tobytes(), (layer.id, name)


def _stored_arrays(graph):
    return [a for arrays in graph.weights.values() for a in arrays.values()]


class TestWeightViews:
    """The arrays the kernels read: each graph's stored weights, and the
    conv_params and layer_affine records that wrap them without a copy."""

    def test_views_are_read_only(self, toy_graph, tmp_path):
        save_weights(toy_graph, tmp_path)
        float32 = {lid: {k: v.astype(np.float32) for k, v in arrs.items()}
                   for lid, arrs in toy_graph.weights.items()}
        for g in (init_random(toy_graph, 1), load_weights(toy_graph, tmp_path),
                  toy_graph.with_weights(float32)):
            stored = _stored_arrays(g)
            assert stored and all(a.dtype == np.float64 for a in stored)
            for a in stored:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0.0
            for layer in g.matmul_layers():
                arrays, affine = g.weights[layer.id], layer_affine(g, layer)
                if layer.kind == "conv":
                    assert conv_params(g, layer).weights is arrays["weight"]
                assert affine.bias is arrays["bias"]
                if layer.has_bn:
                    assert all(getattr(affine, name) is arrays[name]
                               for name in ("gamma", "beta", "mu", "sigma_sq"))

    def test_caller_float64_weights_stay_writeable(self, toy_graph):
        weights = {lid: {k: v.astype(np.float64) for k, v in arrs.items()}
                   for lid, arrs in toy_graph.weights.items()}
        g = toy_graph.with_weights(weights)
        ann_forward(g, np.ones((1, 2, 8, 8)))
        stored = _stored_arrays(g)
        for arrs in weights.values():
            for a in arrs.values():
                assert a.flags.writeable
                assert not any(np.shares_memory(a, v) for v in stored)

    def test_with_weights_starts_with_fresh_views(self, toy_graph):
        x = np.random.default_rng(4).uniform(0, 1, size=(2, 2, 8, 8))
        before = ann_forward(toy_graph, x).logits
        weights = dict(toy_graph.weights)
        weights["head"] = dict(weights["head"], weight=-weights["head"]["weight"])
        g = toy_graph.with_weights(weights)
        np.testing.assert_array_equal(g.weights["head"]["weight"], weights["head"]["weight"])
        # stored arrays are kept as they are, not copied again
        assert g.weights["conv1"]["weight"] is toy_graph.weights["conv1"]["weight"]
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

    def test_bias_only_layer_reads_no_epsilon(self):
        doc = small_manifest()               # c1 has a bias and no batch-norm
        doc["layers"][1]["epsilon"] = 2
        g = init_random(parse_manifest(json.dumps(doc)), 3)
        plain = init_random(parse_manifest(json.dumps(small_manifest())), 3)
        x = np.random.default_rng(7).uniform(0, 1, size=(2, 3, 4, 4))
        assert ann_forward(g, x).logits.tobytes() == ann_forward(plain, x).logits.tobytes()
        assert (snn_forward(convert(g), x)[0].tobytes()
                == snn_forward(convert(plain), x)[0].tobytes())

    def test_first_pass_copies_no_weights(self):
        # VGG-16 holds 270 MB of weights; a pass that copied them would peak
        # far above the bound
        g = init_random(parse_manifest(vgg16_manifest(classes=10, steps=4)), 3)
        x = np.random.default_rng(6).uniform(0, 1, size=(1, 3, 32, 32))
        assert traced_peak_bytes(lambda: ann_forward(g, x)) < 32e6
