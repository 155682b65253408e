import itertools
import warnings

import numpy as np
import pytest

from spikecast.graph import QcfsConfig
from spikecast.sensitivity import (LevelHistogram, MetricError, al_metric,
                                   assign_layerwise_l, cluster_1d,
                                   clustering_sse, default_alpha,
                                   default_cluster_steps, kurtosis, skewness,
                                   van_der_eijk_a)


def hist(counts, L=None, theta=1.0):
    counts = np.asarray(counts)
    return LevelHistogram(counts=counts, L=len(counts) - 1 if L is None else L,
                          theta=theta)


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
        assert default_alpha(16, k=1.0) == pytest.approx(1 / 16)


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
        h = hist([5, 5, 5, 5])                      # all bins busy -> A = 0
        assert al_metric(h, 0.1) == 0.0

    def test_composite_fixture(self):
        a = van_der_eijk_a(hist([10, 0, 5, 0, 0]), 0.1)
        g = skewness(hist([3, 1]))
        k = kurtosis(hist([3, 1]))
        assert a * (g * g + 1.0) * k == pytest.approx(20.5078125, rel=1e-12)

    def test_zero_skew_reduces_to_a_times_k(self):
        h = hist([2, 6, 2])
        a = van_der_eijk_a(h, 0.05)
        assert al_metric(h, 0.05) == pytest.approx(a * kurtosis(h), rel=1e-12)


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
    def test_mapping(self):
        metrics = [20.0, 19.0, 1.0, 2.0]
        assignments = cluster_1d(metrics, 2)
        steps = assign_layerwise_l(metrics, assignments, {0: 4, 1: 1})
        assert steps == [1, 1, 4, 4]

    def test_missing_cluster(self):
        with pytest.raises(MetricError, match="no quantization step"):
            assign_layerwise_l([1.0, 9.0], np.array([0, 1]), {0: 4})

    def test_inverted_mapping_warns(self):
        metrics = [20.0, 1.0]
        assignments = cluster_1d(metrics, 2)
        with pytest.warns(UserWarning, match="higher-metric"):
            assign_layerwise_l(metrics, assignments, {0: 1, 1: 4})

    def test_default_ladder(self):
        metrics = [20.0, 19.0, 1.0, 2.0, 10.0]
        assignments = cluster_1d(metrics, 3)
        ladder = default_cluster_steps(metrics, assignments)
        steps = assign_layerwise_l(metrics, assignments, ladder)
        assert steps == [1, 1, 4, 4, 2]


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
