import json

import numpy as np
import pytest

from spikecast.energy import (ENERGY, EnergyModelError, MatMulDims,
                              RESNET18_CIFAR_GOLDEN, ann_snn_energy_ratio,
                              build_report, dims_from_graph, golden_table,
                              op_counts, overall_r_e, r_e_layer, r_prime, t_eff,
                              t_norm)
from spikecast.graph import parse_manifest
from spikecast.runtime import ConversionError
from spikecast.zoo import residual_block_manifest, resnet_manifest

from conftest import resnet18_cifar, resnet34_imagenet, vgg16_cifar, vgg16_imagenet

VGG_CIFAR_CONV_MACS = [
    1769472, 37748736, 18874368, 37748736, 18874368, 37748736, 37748736,
    18874368, 37748736, 37748736, 9437184, 9437184, 9437184,
]
VGG_IMAGENET_CONV_MACS = [
    86704128, 1849688064, 924844032, 1849688064, 924844032, 1849688064,
    1849688064, 924844032, 1849688064, 1849688064, 462422016, 462422016,
    462422016,
]


class TestOpCounts:
    def test_first_conv_row(self):
        d = vgg16_cifar(10)[0]
        assert op_counts(d, "ann").macs == 1769472

    def test_every_vgg_cifar_row(self):
        convs = [d for d in vgg16_cifar(10) if d.kind == "conv"]
        assert [d.macs for d in convs] == VGG_CIFAR_CONV_MACS
        fcs = [d for d in vgg16_cifar(10) if d.kind == "fc"]
        assert [d.macs for d in fcs] == [2097152, 16777216, 40960]
        fcs100 = [d for d in vgg16_cifar(100) if d.kind == "fc"]
        assert fcs100[-1].macs == 409600

    def test_every_vgg_imagenet_row(self):
        convs = [d for d in vgg16_imagenet() if d.kind == "conv"]
        assert [d.macs for d in convs] == VGG_IMAGENET_CONV_MACS
        fcs = [d for d in vgg16_imagenet() if d.kind == "fc"]
        assert [d.macs for d in fcs] == [102760448, 16777216, 4096000]

    def test_totals(self):
        assert sum(d.macs for d in vgg16_cifar(10)) == 332111872
        assert sum(d.macs for d in vgg16_cifar(100)) == 332480512
        assert sum(d.macs for d in vgg16_imagenet()) == 15470264320
        body = sum(m for *_, m in RESNET18_CIFAR_GOLDEN)
        assert body + 5120 == 217584640
        assert body + 51200 == 217630720

    def test_snn_mode(self):
        d = MatMulDims("x", "conv", 3, 64, 3, 3, 32, 32)
        snn = op_counts(d, "snn", spike_rate=0.75)
        assert snn.macs == 0
        assert snn.acs == d.macs * 0.75
        assert snn.threshold_mults == 64 * 32 * 32 * 0.75

    def test_snn_first_layer_keeps_macs(self):
        d = MatMulDims("x", "conv", 3, 64, 3, 3, 32, 32)
        first = op_counts(d, "snn", spike_rate=0.75, first_layer=True)
        assert first.macs == d.macs and first.acs == 0

    def test_ann_mode_has_no_acs(self):
        d = MatMulDims("x", "fc", 512, 10)
        assert op_counts(d, "ann").acs == 0

    def test_unknown_kind(self):
        with pytest.raises(EnergyModelError, match="unknown layer kind"):
            op_counts(object(), "ann")


class TestRatios:
    def test_r_prime_conv(self):
        d = MatMulDims("x", "conv", 3, 64, 3, 3, 32, 32)
        assert r_prime(d, 0.75) == pytest.approx(1 / 20.25, rel=1e-12)

    def test_r_prime_fc(self):
        d = MatMulDims("x", "fc", 512, 10)
        assert r_prime(d, 0.75) == pytest.approx(1 / 384, rel=1e-12)

    def test_r_prime_vanishes_for_wide_layers(self):
        narrow = MatMulDims("x", "fc", 16, 4)
        wide = MatMulDims("x", "fc", 10 ** 9, 4)
        assert r_prime(wide, 0.75) < r_prime(narrow, 0.75)
        assert r_prime(wide, 0.75) < 1e-8

    def test_r_prime_needs_positive_rate(self):
        with pytest.raises(EnergyModelError, match="positive"):
            r_prime(MatMulDims("x", "fc", 4, 4), 0.0)

    def test_r_e_no_if_cost(self):
        assert r_e_layer(4, 0.0) == 1.0

    def test_r_e_fixture(self):
        assert r_e_layer(4, 1 / 20.25) == pytest.approx(38.25 / 24.25, rel=1e-12)

    def test_r_e_single_step_formula(self):
        for rp in (0.0, 0.1, 0.5, 2.0):
            assert r_e_layer(1, rp) == pytest.approx((1 + 3 * rp) / (1 + rp), rel=1e-12)

    def test_r_e_at_least_one(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            L = int(rng.integers(1, 64))
            rp = float(rng.uniform(0, 10))
            assert r_e_layer(L, rp) >= 1.0
        assert r_e_layer(7, 0.0) == 1.0             # equality only without IF cost


class TestTimesteps:
    def test_vanishing_overhead_recovers_t(self):
        huge = [MatMulDims("x", "fc", 10 ** 12, 4)] * 3
        assert t_norm(huge, 4) == pytest.approx(4.0, rel=1e-9)

    def test_vgg16_cifar_value(self):
        assert t_norm(vgg16_cifar(10), 4) == pytest.approx(4.21, abs=0.1)

    def test_vgg16_imagenet_value(self):
        assert t_norm(vgg16_imagenet(), 16) == pytest.approx(18.37, abs=0.4)

    def test_resnet34_value(self):
        assert t_norm(resnet34_imagenet(), 8) == pytest.approx(8.17, abs=0.4)

    def test_uniform_vector_collapses_to_t_norm(self):
        layers = vgg16_cifar(10)
        assert t_eff(layers, [4] * len(layers)) == t_norm(layers, 4)

    def test_mean_of_steps_when_overhead_vanishes(self):
        huge = [MatMulDims("x", "fc", 10 ** 12, 4)] * 3
        assert t_eff(huge, [4, 2, 2]) == pytest.approx(8 / 3, rel=1e-6)

    def test_vector_length_checked(self):
        with pytest.raises(EnergyModelError, match="entries for"):
            t_eff(vgg16_cifar(10), [4, 4])

    def test_paired_subset(self):
        # every matmul except the head feeds an activation in the VGG stack
        assert sum(d.paired for d in vgg16_cifar(10)) == 15
        assert sum(d.paired for d in resnet34_imagenet()) == 33


class TestEnergyRatio:
    TABLE = [
        (1.0, 0.66, 0.005, 7.49, 11.03),
        (1.0, 0.62, 0.005, 7.96, 11.70),
        (1.0, 0.73, 0.006, 6.76, 9.94),
        (1.0, 0.86, 0.008, 5.72, 8.38),
        (1.0, 0.91, 0.008, 5.42, 7.95),
    ]

    @pytest.mark.parametrize("a,b,c,fp32,int8", TABLE)
    def test_reference_rows(self, a, b, c, fp32, int8):
        assert ann_snn_energy_ratio(a, b, c, "fp32") == pytest.approx(fp32, abs=0.01)
        assert ann_snn_energy_ratio(a, b, c, "int8") == pytest.approx(int8, abs=0.01)

    def test_pure_mac_to_ac_swap(self):
        assert ann_snn_energy_ratio(1.0, 1.0, 0.0, "fp32") == pytest.approx(4.6 / 0.9,
                                                                            rel=1e-12)

    def test_monotone_in_b_and_c(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            b = float(rng.uniform(0.1, 1.0))
            c = float(rng.uniform(0.0, 0.5))
            assert (ann_snn_energy_ratio(1.0, b + 0.05, c)
                    < ann_snn_energy_ratio(1.0, b, c))
            assert (ann_snn_energy_ratio(1.0, b, c + 0.05)
                    < ann_snn_energy_ratio(1.0, b, c))

    def test_invalid_args(self):
        with pytest.raises(EnergyModelError):
            ann_snn_energy_ratio(1.0, 0.0, 0.1)
        with pytest.raises(EnergyModelError):
            ann_snn_energy_ratio(1.0, 0.5, 1.5)

    def test_constants_are_consistent(self):
        for cost in ENERGY.values():
            assert cost.mac == pytest.approx(cost.add + cost.mul, abs=1e-12)


class TestOverallRatio:
    def test_vanishing_if_cost(self):
        huge = [MatMulDims("x", "fc", 10 ** 12, 4)] * 3
        assert overall_r_e(huge, 4) == pytest.approx(1.0, rel=1e-9)

    def test_vgg16_bound(self):
        value = overall_r_e(vgg16_cifar(10), 4, spike_rate=0.75)
        assert 1.000 <= value <= 1.01

    def test_empty_model(self):
        with pytest.raises(EnergyModelError, match="empty"):
            overall_r_e([], 4)


class TestReport:
    def test_empty_report(self):
        with pytest.raises(EnergyModelError, match="no matmul layers"):
            build_report([], 4)

    def test_uniform_report(self):
        report = build_report(vgg16_cifar(10), 4)
        agg = report["aggregates"]
        assert agg["total_ann_macs"] == 332111872
        assert agg["t_norm"] == pytest.approx(t_norm(vgg16_cifar(10), 4), rel=1e-12)
        assert agg["first_layer_fraction"] == pytest.approx(1769472 / 332111872,
                                                            rel=1e-12)
        assert len(report["per_layer"]) == 16
        assert report["per_layer"][0]["snn_macs"] == 1769472
        assert report["per_layer"][1]["snn_macs"] == 0

    def test_layerwise_report(self):
        layers = [d for d in vgg16_cifar(10) if d.paired]
        steps = [2, 1, 2, 1, 2, 1, 1, 1, 1, 1, 4, 4, 2, 4, 4]
        report = build_report(layers, steps)
        assert report["aggregates"]["t_eff"] == pytest.approx(
            t_eff(layers, steps), rel=1e-12)

    def test_dims_from_graph_pairs_through_residual_adds(self):
        graph = parse_manifest(resnet_manifest((1, 1), (4, 8), input_size=8, steps=2))
        dims, steps, sources = dims_from_graph(graph)
        got = {d.name: (d.paired, L, src) for d, L, src in zip(dims, steps, sources)}
        assert got == {
            "stem": (True, 2, None),
            "s1b1_conv1": (True, 2, "stem_act"),
            "s1b1_conv2": (True, 2, "s1b1_act1"),
            "s2b1_conv1": (True, 2, "s1b1_act2"),
            "s2b1_proj": (False, 2, "s1b1_act2"),
            "s2b1_conv2": (True, 2, "s2b1_act1"),
            "fc": (False, 2, "s2b1_act2"),
        }
        proj = dims[[d.name for d in dims].index("s2b1_proj")]
        assert (proj.c_in, proj.c_out, proj.k_h, proj.h_out) == (4, 8, 1, 4)

    def test_unequal_residual_merge_rejected(self):
        doc = json.loads(residual_block_manifest())
        doc["layers"][4]["L"] = 2               # branch activation differs from act0
        with pytest.raises(ConversionError, match="layer 'merge': residual branches"):
            dims_from_graph(parse_manifest(json.dumps(doc)))

    def test_residual_pairing_follows_the_first_predecessor(self):
        # a manifest that lists the shortcut first pairs the shortcut: the
        # projection takes the block's activation and conv2 goes unpaired
        doc = json.loads(resnet_manifest((1, 1), (4, 8), input_size=8, steps=2))
        for layer in doc["layers"]:
            if layer["kind"] == "residual_add":
                layer["pred"].reverse()
        dims, _, _ = dims_from_graph(parse_manifest(json.dumps(doc)))
        assert {d.name: d.paired for d in dims} == {
            "stem": True, "s1b1_conv1": True, "s1b1_conv2": False,
            "s2b1_conv1": True, "s2b1_proj": True, "s2b1_conv2": False, "fc": False,
        }

    def test_resnet18_dims_are_formula_consistent(self):
        # the derived geometry (used for ratio math) is self-consistent even
        # though the golden table rows are stored literally
        total = sum(d.macs for d in resnet18_cifar())
        assert total > 0
        assert sum(d.paired for d in resnet18_cifar()) == 17


class TestGoldenTables:
    def test_known_targets(self):
        rows, totals = golden_table("vgg16-cifar")
        assert totals == {"CIFAR-10": 332111872, "CIFAR-100": 332480512}
        rows, totals = golden_table("vgg16-imagenet")
        assert totals == {"ImageNet": 15470264320}
        rows, totals = golden_table("resnet18-cifar")
        assert totals == {"CIFAR-10": 217584640, "CIFAR-100": 217630720}

    def test_vgg16_rows_match_the_reference_tables(self):
        rows, _ = golden_table("vgg16-cifar")
        assert rows == [
            ("Conv1_1", "", "32x32x64", 1769472),
            ("Conv1_2", "", "32x32x64", 37748736),
            ("Pool1", "32x32x64", "16x16x64", None),
            ("Conv2_1", "", "16x16x128", 18874368),
            ("Conv2_2", "", "16x16x128", 37748736),
            ("Pool2", "16x16x128", "8x8x128", None),
            ("Conv3_1", "", "8x8x256", 18874368),
            ("Conv3_2", "", "8x8x256", 37748736),
            ("Conv3_3", "", "8x8x256", 37748736),
            ("Pool3", "8x8x256", "4x4x256", None),
            ("Conv4_1", "", "4x4x512", 18874368),
            ("Conv4_2", "", "4x4x512", 37748736),
            ("Conv4_3", "", "4x4x512", 37748736),
            ("Pool4", "4x4x512", "2x2x512", None),
            ("Conv5_1", "", "2x2x512", 9437184),
            ("Conv5_2", "", "2x2x512", 9437184),
            ("Conv5_3", "", "2x2x512", 9437184),
            ("Pool5", "2x2x512", "1x1x512", None),
            ("FC1", "", "", 2097152),
            ("FC2", "", "", 16777216),
            ("FC3 (CIFAR-10)", "4096", "10", 40960),
            ("FC3 (CIFAR-100)", "4096", "100", 409600),
        ]
        rows, _ = golden_table("vgg16-imagenet")
        assert rows == [
            ("Conv1_1", "", "224x224x64", 86704128),
            ("Conv1_2", "", "224x224x64", 1849688064),
            ("Pool1", "224x224x64", "112x112x64", None),
            ("Conv2_1", "", "112x112x128", 924844032),
            ("Conv2_2", "", "112x112x128", 1849688064),
            ("Pool2", "112x112x128", "56x56x128", None),
            ("Conv3_1", "", "56x56x256", 924844032),
            ("Conv3_2", "", "56x56x256", 1849688064),
            ("Conv3_3", "", "56x56x256", 1849688064),
            ("Pool3", "56x56x256", "28x28x256", None),
            ("Conv4_1", "", "28x28x512", 924844032),
            ("Conv4_2", "", "28x28x512", 1849688064),
            ("Conv4_3", "", "28x28x512", 1849688064),
            ("Pool4", "28x28x512", "14x14x512", None),
            ("Conv5_1", "", "14x14x512", 462422016),
            ("Conv5_2", "", "14x14x512", 462422016),
            ("Conv5_3", "", "14x14x512", 462422016),
            ("Pool5", "14x14x512", "7x7x512", None),
            ("FC1", "", "", 102760448),
            ("FC2", "", "", 16777216),
            ("FC3", "", "", 4096000),
        ]

    def test_unknown_target(self):
        with pytest.raises(EnergyModelError, match="unknown golden target"):
            golden_table("lenet")
