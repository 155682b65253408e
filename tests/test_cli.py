import json
import warnings

import numpy as np
import pytest

from spikecast import cli
from spikecast import energy as energy_model
from spikecast.cli import main
from spikecast.graph import init_random, load_weights, parse_manifest
from spikecast.runtime import SnnTrace, convert, snn_forward
from spikecast.zoo import toy_manifest, vgg16_manifest

from conftest import no_matmul_manifest


@pytest.fixture
def toy_manifest_path(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(toy_manifest())
    return str(path)


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def forbid_weights(*args):
    raise AssertionError("weights were drawn before the options were checked")


class TestConvert:
    def test_bundle_records_thresholds(self, toy_manifest_path, tmp_path, capsys):
        # the bundle is the manifest plus its blobs; convert derives the plan
        out = tmp_path / "bundle"
        code = main(["convert", "--manifest", toy_manifest_path, "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        assert sorted(read_tree(out)) == ["conv1.f32", "conv2.f32", "head.f32",
                                          "manifest.json"]
        graph = load_weights(parse_manifest((out / "manifest.json").read_text()), out)
        plans = convert(graph).if_plans
        assert plans["act1"].theta_star == pytest.approx(0.25)
        assert plans["act2"].theta_star == pytest.approx(0.35)

    def test_missing_out_exits_2(self, toy_manifest_path, capsys):
        assert main(["convert", "--manifest", toy_manifest_path, "--seed", "7"]) == 2
        assert "convert needs --out" in capsys.readouterr().err

    def test_out_onto_a_file_exits_2(self, toy_manifest_path, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["convert", "--manifest", toy_manifest_path, "--seed", "7",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

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

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_invalid_tol_exits_2(self, toy_manifest_path, capsys, monkeypatch, tol):
        # checked before weights are drawn; the toy net agrees to ~1e-16,
        # so a negative or NaN tolerance would otherwise read "check FAILED"
        monkeypatch.setattr(cli, "init_random", forbid_weights)
        code = main(["check-equiv", "--manifest", toy_manifest_path, "--seed", "3",
                     "--n", "4", "--tol", tol])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "--tol" in err

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

    def test_missing_manifest_exits_2(self, capsys):
        assert main(["check-equiv", "--seed", "3"]) == 2
        assert "check-equiv needs --manifest" in capsys.readouterr().err

    def test_missing_input_blob_exits_2(self, toy_manifest_path, tmp_path, capsys):
        code = main(["check-equiv", "--manifest", toy_manifest_path, "--seed", "3",
                     "--inputs", str(tmp_path / "missing.f32")])
        assert code == 2
        assert "missing.f32" in capsys.readouterr().err

    def test_out_in_missing_directory_exits_2(self, toy_manifest_path, tmp_path, capsys):
        code = main(["check-equiv", "--manifest", toy_manifest_path, "--seed", "3",
                     "--n", "2", "--out", str(tmp_path / "nowhere" / "r.json")])
        assert code == 2
        assert "nowhere" in capsys.readouterr().err

    def test_manifest_field_error_exits_2(self, tmp_path, capsys):
        doc = json.loads(toy_manifest())
        doc["layers"][1]["out_channels"] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["check-equiv", "--manifest", str(path), "--seed", "3"])
        assert code == 2
        assert "layer 'conv1': field 'out_channels' must be positive" in capsys.readouterr().err

    def test_manifest_field_type_error_exits_2(self, tmp_path, capsys):
        doc = json.loads(toy_manifest())
        doc["layers"][2]["theta"] = "high"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["check-equiv", "--manifest", str(path), "--seed", "3"])
        assert code == 2
        assert ("layer 'act1': field 'theta' must be a finite positive number, got \"high\""
                in capsys.readouterr().err)

    def test_report_bytes_deterministic(self, toy_manifest_path, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            main(["check-equiv", "--manifest", toy_manifest_path, "--seed", "3",
                  "--n", "10", "--out", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestManifestWithoutMatmul:
    @pytest.mark.parametrize("argv", [["energy"], ["check-equiv", "--seed", "1"],
                                      ["convert", "--seed", "1", "--out", "bundle"]],
                             ids=["energy", "check-equiv", "convert"])
    def test_exits_2_naming_the_model(self, tmp_path, capsys, argv):
        path = tmp_path / "nomm.json"
        path.write_text(no_matmul_manifest())
        argv = [str(tmp_path / a) if a == "bundle" else a for a in argv]
        assert main(argv + ["--manifest", str(path)]) == 2
        assert capsys.readouterr().err == "error: model 'nomm' has no conv or fc layer\n"
        assert not (tmp_path / "bundle").exists()


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

    @staticmethod
    def forbid_the_pass(monkeypatch):
        def fail(*args):
            raise AssertionError("al-metric ran the model before checking its settings")
        monkeypatch.setattr(cli, "init_random", fail)
        monkeypatch.setattr(cli, "ann_forward", fail)

    @pytest.mark.parametrize("option", [["--alpha", "1.5"]])
    def test_alpha_out_of_range_exits_2(self, toy_manifest_path, capsys, monkeypatch,
                                        option):
        self.forbid_the_pass(monkeypatch)
        code = main(["al-metric", "--manifest", toy_manifest_path, "--seed", "5",
                     "--n", "4", *option])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "alpha must lie in (0, 1)" in err

    def test_chi_below_one_exits_2(self, toy_manifest_path, capsys, monkeypatch):
        self.forbid_the_pass(monkeypatch)
        code = main(["al-metric", "--manifest", toy_manifest_path, "--seed", "5",
                     "--n", "4", "--chi", "0"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "cluster count must be at least 1" in err

    @pytest.mark.parametrize("command", ["check-equiv", "al-metric"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one_exits_2(self, toy_manifest_path, capsys, command, n):
        code = main([command, "--manifest", toy_manifest_path, "--seed", "5", "--n", n])
        assert code == 2
        assert f"--n must be at least 1, got {n}" in capsys.readouterr().err


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

    def test_golden_resnet18_t_norm_matches_literal_rows(self, capsys):
        # T_norm reads only each matmul's fan-in and the matmul count; the
        # literal rows give the same line as the zoo net the CLI uses
        rows = energy_model.RESNET18_CIFAR_GOLDEN + energy_model.RESNET18_CIFAR_HEADS[:1]
        dims = []
        for name, in_d, out_d, _ in rows:
            c_in, c_out = int(in_d.split("x")[0]), int(out_d.split("x")[0])
            k = 1 if "Shortcut" in name or "FC" in name else 3
            dims.append(energy_model.MatMulDims(name, "conv", c_in, c_out, k, k))
        assert len(dims) == 21
        zoo, _, _ = energy_model.dims_from_graph(energy_model.golden_graph("resnet18-cifar"))
        assert sorted(d.fan_ops for d in dims) == sorted(d.fan_ops for d in zoo)
        for steps in (1, 2, 4, 8, 16):
            code = main(["energy", "--golden", "resnet18-cifar", "--L", str(steps)])
            assert code == 0
            line = capsys.readouterr().out.splitlines()[-1]
            want = cli._fmt(energy_model.t_norm(dims, steps, 0.75))
            assert line == f"T_norm (L={steps}, rate=0.75): {want}"

    def test_golden_layerwise_t_eff_line(self, capsys):
        dims = energy_model.dims_from_graph(energy_model.golden_graph("vgg16-cifar"))[0]
        per_act = [1, 1, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 8]
        # one step per matmul, or one per activation: the unpaired head
        # consumes fc2's activation, so it takes that activation's 8
        want = cli._fmt(energy_model.t_eff(dims, per_act + [8], 0.75))
        for steps in (per_act + [8], per_act):
            label = ",".join(map(str, steps))
            code = main(["energy", "--golden", "vgg16-cifar", "--L", label])
            assert code == 0
            line = capsys.readouterr().out.splitlines()[-1]
            assert line == f"T_eff (L={label}, rate=0.75): {want}"

    def test_golden_resnet18_vector_follows_declared_order(self, capsys):
        # the 8 is the seventh matmul as declared and as the table prints it,
        # block 2.1's conv2, not the 1x1 shortcut listed after it
        steps = ",".join(["1"] * 6 + ["8"] + ["1"] * 14)
        code = main(["energy", "--golden", "resnet18-cifar", "--L", steps])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[7].startswith("Residual Block 2.1 Conv2 ")
        assert out[-1] == f"T_eff (L={steps}, rate=0.75): 1.35632"

    def test_golden_step_vector_of_other_length_exits_2(self, capsys):
        code = main(["energy", "--golden", "vgg16-cifar", "--L", "2,1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "--L has 2 entries" in err

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

    @pytest.mark.parametrize("argv", [
        ["--golden", "vgg16-cifar", "--L", "4", "--rate", "measured"],   # nothing to measure
        ["--manifest", "toy.json", "--seed", "3", "--rate", "abc"],
        ["--manifest", "toy.json", "--seed", "3", "--rate", "inf"],
        ["--manifest", "toy.json", "--seed", "3", "--rate", "-0.5"],
    ], ids=["golden-measured", "text", "inf", "negative"])
    def test_invalid_rate_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "toy.json").write_text(toy_manifest())
        monkeypatch.setattr(cli, "init_random", forbid_weights)
        code = main(["energy", *argv, "--out", "energy.json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "--rate" in err
        assert not (tmp_path / "energy.json").exists()

    @pytest.mark.parametrize("steps", ["4,,2", "4,2,", ",", "", "abc", "2.5", "0", "4,-1"])
    def test_invalid_L_exits_2(self, toy_manifest_path, capsys, monkeypatch, steps):
        # every entry must be an integer >= 1: an empty one is not skipped
        monkeypatch.setattr(cli, "init_random", forbid_weights)
        code = main(["energy", "--manifest", toy_manifest_path, "--L", steps])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert f"--L takes integers >= 1, one or comma-separated, got {steps!r}" in err

    def test_L_entries_may_carry_spaces(self, toy_manifest_path, capsys):
        assert main(["energy", "--manifest", toy_manifest_path, "--L", " 4, 2"]) == 0
        spaced = capsys.readouterr().out
        assert main(["energy", "--manifest", toy_manifest_path, "--L", "4,2"]) == 0
        assert capsys.readouterr().out == spaced

    def test_measured_rate_mode(self, toy_manifest_path, tmp_path, capsys):
        code = main(["energy", "--manifest", toy_manifest_path, "--seed", "3",
                     "--n", "4", "--rate", "measured"])
        assert code == 0
        assert "overall staged/plain energy ratio" in capsys.readouterr().out

    def test_measured_rates_are_each_sources_train(self, toy_manifest_path, tmp_path, capsys):
        # conv2 reads act1, the input-mode activation, which keeps no IfStats:
        # it is costed at act1's emitted spikes per neuron, and the
        # image-fed conv1 at the mean over both trains
        out = tmp_path / "energy.json"
        assert main(["energy", "--manifest", toy_manifest_path, "--seed", "3", "--n", "4",
                     "--rate", "measured", "--out", str(out)]) == 0
        rates = {r["layer"]: r["spike_rate"] for r in json.loads(out.read_text())["per_layer"]}
        graph = init_random(parse_manifest(toy_manifest()), 3)
        rng = np.random.default_rng(np.uint64(3) + 0x5EED)
        x = rng.uniform(0.0, 1.0, size=(4,) + graph.input_layer.shape)
        trace = SnnTrace()
        snn_forward(convert(graph), x, trace=trace)
        want = {lid: train.bits.sum() / train.bits[0].size
                for lid, train in trace.trains.items()}
        assert want["act1"] == pytest.approx(1.65, abs=0.01)
        assert rates["conv2"] == pytest.approx(want["act1"], rel=1e-5)
        assert rates["head"] == pytest.approx(want["act2"], rel=1e-5)
        assert rates["conv1"] == pytest.approx((want["act1"] + want["act2"]) / 2, rel=1e-5)


def canonical(doc):
    """A report as write_json lays it out."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestReportBytes:
    """Pinned reports of fixed configurations; the manifest path is relative,
    so the config echo is too."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "toy.json").write_text(toy_manifest())

        def run(*argv):
            assert main(list(argv)) == 0
            return tmp_path
        return run

    def test_energy_report(self, run):
        out = run("energy", "--manifest", "toy.json", "--L", "2,1", "--rate", "0.6",
                  "--out", "energy.json")
        row = {"kind": "conv", "snn_macs": 0, "spike_rate": 0.6}
        assert (out / "energy.json").read_text() == canonical({
            "aggregates": {"energy_ratio_fp32": 1.54921, "energy_ratio_int8": 1.58788,
                           "first_layer_fraction": 0.598338, "mean_spike_rate": 0.6,
                           "overall_r_e": 1.00216, "rate_mode": "assumed",
                           "t_eff": 1.6794, "total_ann_macs": 11552},
            "config": {"L": [2, 1, 1], "manifest": "toy.json", "rate": "assumed"},
            "per_layer": [
                {**row, "L": 2, "ann_macs": 6912, "layer": "conv1", "r_e": 1.46875,
                 "r_prime": 0.0925926, "snn_acs": 0.0, "snn_macs": 6912,
                 "threshold_mults": 0.0},
                {**row, "L": 1, "ann_macs": 4320, "layer": "conv2", "r_e": 1.05988,
                 "r_prime": 0.0308642, "snn_acs": 2592.0, "threshold_mults": 48.0},
                {**row, "L": 1, "ann_macs": 320, "kind": "fc", "layer": "head",
                 "r_e": 1.04082, "r_prime": 0.0208333, "snn_acs": 192.0,
                 "threshold_mults": 2.4},
            ]})
        assert (out / "energy.csv").read_text() == (
            "layer,kind,L,spike_rate,ann_macs,snn_acs,threshold_mults,r_prime,r_e\n"
            "conv1,conv,2,0.6,6912,0,0,0.0925926,1.46875\n"
            "conv2,conv,1,0.6,4320,2592,48,0.0308642,1.05988\n"
            "head,fc,1,0.6,320,192,2.4,0.0208333,1.04082\n")

    def test_al_metric_report(self, run):
        out = run("al-metric", "--manifest", "toy.json", "--seed", "5", "--n", "8",
                  "--chi", "2", "--out", "al.json")
        assert (out / "al.json").read_text() == canonical({
            "config": {"alpha": 0.166667, "chi": 2, "images": 8, "manifest": "toy.json",
                       "seed": 5},
            "layers": [
                {"agreement": 0.5, "assigned_L": 2, "cluster": 0, "flag": "",
                 "kurtosis": 1.71788, "layer": "act1", "metric": 0.874321,
                 "skewness": 0.133818},
                {"agreement": 1.0, "assigned_L": 1, "cluster": 1, "flag": "",
                 "kurtosis": 62.5031, "layer": "act2", "metric": 3858.34,
                 "skewness": 7.79297},
            ]})
        assert (out / "al.csv").read_text() == (
            "layer,A,g,kurtosis,M,cluster,assigned_L\n"
            "act1,0.5,0.133818,1.71788,0.874321,0,2\n"
            "act2,1,7.79297,62.5031,3858.34,1,1\n")
