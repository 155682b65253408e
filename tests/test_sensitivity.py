import itertools
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from spikecast.graph import parse_manifest
from spikecast.sensitivity import (LevelHistogram, MetricError, analyze_trace,
                                   cluster_1d, default_alpha, kurtosis, skewness,
                                   van_der_eijk_a)

from conftest import clustering_sse


def hist(counts, L=None, theta=1.0):
    counts = np.asarray(counts)
    return LevelHistogram(counts=counts, L=len(counts) - 1 if L is None else L,
                          theta=theta)


def histogram_rows(histograms, alpha=0.1, chi=1):
    """analyze_trace over a chain with one activation layer per histogram,
    each with L = len(counts) - 1."""
    layers = [{"id": "in", "kind": "input", "pred": [], "shape": [1, 1, 1]}]
    prev = "in"
    for i, counts in enumerate(histograms):
        layers += [{"id": f"fc{i}", "kind": "fc", "pred": [prev], "out_features": 1},
                   {"id": f"act{i}", "kind": "qcfs_act", "pred": [f"fc{i}"],
                    "L": len(counts) - 1, "theta": 1.0}]
        prev = f"act{i}"
    layers.append({"id": "head", "kind": "fc", "pred": [prev], "out_features": 2})
    graph = parse_manifest(json.dumps({"name": "hist", "classes": 2, "layers": layers}))
    trace = SimpleNamespace(histograms={f"act{i}": np.asarray(counts)
                                        for i, counts in enumerate(histograms)})
    return analyze_trace(trace, graph, alpha=alpha, chi=chi)


class TestAgreement:
    def test_single_full_bin(self):
        assert van_der_eijk_a(hist([42, 0, 0, 0]), 0.1) == 1.0

    def test_all_bins_full(self):
        assert van_der_eijk_a(hist([5, 5, 5, 5, 5]), 0.1) == 0.0

    def test_reference_fixture(self):
        # threshold 0.1 * 15 = 1.5 -> two busy bins of five -> A = 0.75
        assert van_der_eijk_a(hist([10, 0, 5, 0, 0]), 0.1) == 0.75

    def test_needs_two_categories(self):
        with pytest.raises(MetricError, match="two level categories"):
            van_der_eijk_a(hist([7]), 0.1)

    def test_no_dominant_bin_warns(self):
        with pytest.warns(UserWarning, match="occupancy threshold"):
            assert van_der_eijk_a(hist([1, 1, 1, 1]), 0.9) == 1.0

    def test_bounded_and_monotone_in_busy_bins(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            counts = rng.integers(0, 50, size=k)
            counts[rng.integers(0, k)] += 1          # non-empty
            a = van_der_eijk_a(hist(counts), 0.1)
            assert 0.0 <= a <= 1.0
        # for fixed K, more busy bins can only lower A
        k = 6
        for s in range(1, k):
            busy = hist([100] * s + [0] * (k - s))
            busier = hist([100] * (s + 1) + [0] * (k - s - 1))
            assert van_der_eijk_a(busier, 0.01) <= van_der_eijk_a(busy, 0.01)

    def test_default_alpha(self):
        assert default_alpha(16) == pytest.approx(1 / 32)


class TestMoments:
    def test_symmetric_skew_is_zero(self):
        assert skewness(hist([3, 7, 3])) == pytest.approx(0.0, abs=1e-9)

    def test_skew_fixture(self):
        # samples {0, 0, 0, 1}: m3 = 0.09375, s^3 = 0.125 -> g = 0.75
        assert skewness(hist([3, 1])) == pytest.approx(0.75, rel=1e-12)

    def test_kurtosis_fixture(self):
        # samples {0, 0, 0, 1}: coeff 10/3, sum^4 = 0.328125, k2^2 = 0.0625
        assert kurtosis(hist([3, 1])) == pytest.approx(17.5, rel=1e-12)

    def test_kurtosis_needs_four_samples(self):
        with pytest.raises(MetricError, match="more than three"):
            kurtosis(hist([2, 1]))

    def test_degenerate_distribution(self):
        with pytest.raises(MetricError, match="degenerate"):
            skewness(hist([5, 0, 0]))
        with pytest.raises(MetricError, match="degenerate"):
            kurtosis(hist([5, 0, 0]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            counts = rng.integers(0, 30, size=int(rng.integers(2, 10)))
            if counts.sum() < 5 or np.count_nonzero(counts) < 2:
                counts = np.array([3, 4, 1])
            scale = float(rng.uniform(0.1, 10.0))
            a = hist(counts, theta=1.0)
            b = hist(counts, theta=scale)
            assert skewness(b) == pytest.approx(skewness(a), rel=1e-6)
            assert kurtosis(b) == pytest.approx(kurtosis(a), rel=1e-6)


class TestAlMetric:
    def test_zero_agreement_kills_metric(self):
        [row] = histogram_rows([[5, 5, 5, 5]])      # all bins busy -> A = 0
        assert row.metric == 0.0

    def test_composite_fixture(self):
        a = van_der_eijk_a(hist([10, 0, 5, 0, 0]), 0.1)
        g = skewness(hist([3, 1]))
        k = kurtosis(hist([3, 1]))
        assert a * (g * g + 1.0) * k == pytest.approx(20.5078125, rel=1e-12)

    def test_zero_skew_reduces_to_a_times_k(self):
        h = hist([2, 6, 2])
        a = van_der_eijk_a(h, 0.05)
        [row] = histogram_rows([[2, 6, 2]], alpha=0.05)
        assert row.metric == pytest.approx(a * kurtosis(h), rel=1e-12)


def brute_force_sse(values, chi):
    """Best contiguous partition of the sorted values, by exhaustion."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = len(values)
    best = np.inf
    for cuts in itertools.combinations(range(1, n), chi - 1):
        edges = [0, *cuts, n]
        sse = 0.0
        for lo, hi in zip(edges, edges[1:]):
            seg = values[lo:hi]
            sse += float(np.sum((seg - seg.mean()) ** 2))
        best = min(best, sse)
    return best


class TestClustering:
    def test_separated_clusters(self):
        np.testing.assert_array_equal(cluster_1d([1.0, 1.0, 10.0, 10.0], 2),
                                      [0, 0, 1, 1])

    def test_single_cluster(self):
        np.testing.assert_array_equal(cluster_1d([3.0, 1.0, 2.0], 1), [0, 0, 0])

    def test_chi_too_large(self):
        with pytest.raises(MetricError, match="cannot split"):
            cluster_1d([1.0, 2.0], 3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(53)
        for _ in range(120):
            n = int(rng.integers(2, 13))
            chi = int(rng.integers(1, n + 1))
            values = rng.uniform(0, 10, size=n)
            assignments = cluster_1d(values, chi)
            assert len(set(assignments.tolist())) == chi
            got = clustering_sse(values, assignments)
            want = brute_force_sse(values, chi)
            assert got == pytest.approx(want, abs=1e-9)

    def test_tie_breaks_toward_smaller_top_cluster(self):
        # [0, 1, 2] splits {0}|{1,2} and {0,1}|{2} with equal cost 0.5;
        # the higher-valued cluster keeps fewer elements
        np.testing.assert_array_equal(cluster_1d([0.0, 1.0, 2.0], 2), [0, 0, 1])

    def test_ids_ordered_by_value(self):
        assignments = cluster_1d([9.0, 1.0, 8.0, 2.0], 2)
        np.testing.assert_array_equal(assignments, [1, 0, 1, 0])


class TestAssignment:
    def test_default_ladder(self):
        # metrics about 1165, 1165, 7.6, 6.5 and 374: three clusters, and
        # the highest-metric one gets the smallest step
        rows = histogram_rows([[95, 2, 1, 1, 1], [1, 1, 1, 2, 95], [60, 20, 10, 5, 5],
                               [50, 30, 10, 5, 5], [90, 5, 3, 1, 1]], chi=3)
        assert [r.cluster for r in rows] == [2, 2, 0, 0, 1]
        assert [r.assigned_L for r in rows] == [1, 1, 4, 4, 2]


class TestTraceAnalysis:
    def test_degenerate_layers_flagged(self, toy_graph):
        from spikecast.reference import ann_forward
        from spikecast.sensitivity import analyze_trace
        zeros = {lid: {k: np.zeros_like(v) for k, v in arrs.items()}
                 for lid, arrs in toy_graph.weights.items()}
        g = toy_graph.with_weights(zeros)
        trace = ann_forward(g, np.ones((3, 2, 8, 8)))
        rows = analyze_trace(trace, g, alpha=0.1, chi=1)
        assert all(r.flag for r in rows)

    def test_unoccupied_bins_warn_once_per_layer(self, toy_graph):
        from spikecast.reference import ann_forward
        from spikecast.sensitivity import analyze_trace
        x = np.random.default_rng(54).uniform(0, 1, size=(8, 2, 8, 8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = analyze_trace(ann_forward(toy_graph, x), toy_graph, alpha=0.99, chi=1)
        assert [r.agreement for r in rows] == [1.0, 1.0]
        assert [str(w.message) for w in caught] == [
            "no histogram bin reaches the occupancy threshold; reporting agreement = 1"] * 2

    def test_random_model_report(self, toy_graph):
        from spikecast.reference import ann_forward
        from spikecast.sensitivity import analyze_trace
        x = np.random.default_rng(54).uniform(0, 1, size=(8, 2, 8, 8))
        rows = analyze_trace(ann_forward(toy_graph, x), toy_graph, chi=2)
        usable = [r for r in rows if not r.flag]
        assert usable
        assert all(r.assigned_L >= 1 for r in usable)
