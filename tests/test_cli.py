import json
import warnings

import numpy as np
import pytest

from spikecast import cli
from spikecast.cli import main
from spikecast.zoo import toy_manifest, vgg16_manifest


@pytest.fixture
def toy_manifest_path(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(toy_manifest())
    return str(path)


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestConvert:
    def test_bundle_records_thresholds(self, toy_manifest_path, tmp_path, capsys):
        out = tmp_path / "bundle"
        code = main(["convert", "--manifest", toy_manifest_path, "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "model.json").read_text())
        plans = {l["id"]: l for l in doc["layers"] if "theta_star" in l}
        assert plans["act1"]["theta_star"] == pytest.approx(0.25)
        assert plans["act2"]["theta_star"] == pytest.approx(0.35)
        assert (out / "conv1.f32").exists()

    def test_max_pool_exits_2(self, tmp_path, capsys):
        doc = json.loads(toy_manifest())
        doc["layers"][3]["kind"] = "max_pool"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["convert", "--manifest", str(path), "--seed", "1",
                     "--out", str(tmp_path / "b")])
        assert code == 2
        assert "unsupported nonlinearity" in capsys.readouterr().err

    def test_idempotent_bytes(self, toy_manifest_path, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        main(["convert", "--manifest", toy_manifest_path, "--seed", "7",
              "--out", str(out1)])
        main(["convert", "--manifest", toy_manifest_path, "--seed", "7",
              "--out", str(out2)])
        assert read_tree(out1) == read_tree(out2)

    def test_bundle_certifies_like_its_source(self, toy_manifest_path, tmp_path):
        out = tmp_path / "bundle"
        main(["convert", "--manifest", toy_manifest_path, "--seed", "7", "--out", str(out)])
        inputs = tmp_path / "x.f32"
        np.random.default_rng(5).uniform(0, 1, size=(6, 2, 8, 8)).astype("<f4").tofile(inputs)
        source, bundled = tmp_path / "source.json", tmp_path / "bundled.json"
        assert main(["check-equiv", "--manifest", toy_manifest_path, "--seed", "7",
                     "--inputs", str(inputs), "--out", str(source)]) == 0
        assert main(["check-equiv", "--manifest", str(out / "manifest.json"),
                     "--weights", str(out), "--inputs", str(inputs),
                     "--out", str(bundled)]) == 0
        docs = [json.loads(p.read_text()) for p in (source, bundled)]
        for doc in docs:
            del doc["config"]
        assert docs[0] == docs[1]


class TestCheckEquiv:
    def test_random_net_passes(self, toy_manifest_path, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["check-equiv", "--manifest", toy_manifest_path, "--seed", "3",
                     "--n", "20", "--tol", "1e-4", "--out", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["argmax_agreement"] == 1.0
        assert {"per_layer", "argmax_agreement", "max_logit_dev",
                "inhibitory_spikes", "config"} <= set(doc)

    def test_zero_tolerance_fails_on_rounding(self, toy_manifest_path, capsys):
        # theta = 0.7 puts spike values off the dyadic grid, so the split
        # accumulation rounds differently from the single-shot pass
        code = main(["check-equiv", "--manifest", toy_manifest_path, "--seed", "3",
                     "--n", "20", "--tol", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.err

    def test_inhibitory_fixture_counts(self, tmp_path):
        from conftest import negative_weight_graph
        from spikecast.graph import save_weights, serialize_manifest
        g = negative_weight_graph()
        manifest = tmp_path / "neg.json"
        manifest.write_text(serialize_manifest(g))
        save_weights(g, tmp_path / "w")
        report = tmp_path / "neg_report.json"
        code = main(["check-equiv", "--manifest", str(manifest),
                     "--weights", str(tmp_path / "w"), "--n", "8",
                     "--out", str(report)])
        assert code == 0
        assert json.loads(report.read_text())["inhibitory_spikes"] > 0

    def test_weights_and_seed_are_exclusive(self, toy_manifest_path, capsys):
        code = main(["check-equiv", "--manifest", toy_manifest_path])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_non_finite_input_blob_exits_2(self, toy_manifest_path, tmp_path, capsys):
        inputs = tmp_path / "nan.f32"
        x = np.zeros((2, 2, 8, 8), dtype="<f4")
        x[1, 1, 2, 2] = np.nan
        x.tofile(inputs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["check-equiv", "--manifest", toy_manifest_path, "--seed", "3",
                         "--inputs", str(inputs)])
        assert code == 2
        assert "input layer 'in': input contains non-finite values" in capsys.readouterr().err
        assert not caught

    def test_report_bytes_deterministic(self, toy_manifest_path, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            main(["check-equiv", "--manifest", toy_manifest_path, "--seed", "3",
                  "--n", "10", "--out", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestAlMetric:
    def test_writes_json_and_csv(self, toy_manifest_path, tmp_path, capsys):
        out = tmp_path / "al.json"
        code = main(["al-metric", "--manifest", toy_manifest_path, "--seed", "5",
                     "--n", "12", "--chi", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["layers"]) == 2
        csv_text = (tmp_path / "al.csv").read_text().splitlines()
        assert csv_text[0] == "layer,A,g,kurtosis,M,cluster,assigned_L"
        assert len(csv_text) == 3

    def test_constant_activations_flagged(self, tmp_path, capsys):
        doc = json.loads(toy_manifest())
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(doc))
        from spikecast.graph import parse_manifest, save_weights, init_random
        g = init_random(parse_manifest(json.dumps(doc)), 0)
        zeros = {lid: {k: np.zeros_like(v) for k, v in arrs.items()}
                 for lid, arrs in g.weights.items()}
        save_weights(g.with_weights(zeros), tmp_path / "w")
        code = main(["al-metric", "--manifest", str(path),
                     "--weights", str(tmp_path / "w"), "--n", "4"])
        assert code == 0
        assert "flagged" in capsys.readouterr().out

    def test_chi_larger_than_layers(self, toy_manifest_path, capsys):
        code = main(["al-metric", "--manifest", toy_manifest_path, "--seed", "5",
                     "--n", "4", "--chi", "9"])
        assert code == 2


class TestEnergy:
    def test_golden_vgg16_cifar(self, capsys):
        code = main(["energy", "--golden", "vgg16-cifar"])
        out = capsys.readouterr().out
        assert code == 0
        assert "332,111,872" in out
        assert "332,480,512" in out
        assert "1,769,472" in out

    def test_golden_resnet18(self, capsys):
        code = main(["energy", "--golden", "resnet18-cifar"])
        out = capsys.readouterr().out
        assert code == 0
        assert "217,584,640" in out and "217,630,720" in out

    def test_golden_t_norm_line(self, capsys):
        code = main(["energy", "--golden", "vgg16-cifar", "--L", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "T_norm" in out and "4.19" in out

    def test_unknown_golden_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["energy", "--golden", "lenet5"])
        assert exc.value.code == 2

    def test_manifest_energy_report(self, tmp_path, capsys):
        path = tmp_path / "vgg.json"
        path.write_text(vgg16_manifest(classes=10, steps=4))
        out = tmp_path / "energy.json"
        code = main(["energy", "--manifest", str(path), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["aggregates"]["total_ann_macs"] == 332111872
        assert (tmp_path / "energy.csv").exists()

    def test_assumed_rate_builds_no_weights(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise AssertionError("energy drew weights without --rate measured")
        monkeypatch.setattr(cli, "init_random", fail)
        monkeypatch.setattr(cli, "convert", fail)
        path = tmp_path / "vgg.json"
        path.write_text(vgg16_manifest(classes=10, steps=4))
        assert main(["energy", "--manifest", str(path), "--seed", "3"]) == 0
        assert "total matmul ops: 332,111,872" in capsys.readouterr().out

    def test_measured_rate_mode(self, toy_manifest_path, tmp_path, capsys):
        code = main(["energy", "--manifest", toy_manifest_path, "--seed", "3",
                     "--n", "4", "--rate", "measured"])
        assert code == 0
        assert "overall staged/plain energy ratio" in capsys.readouterr().out
