"""Layer sensitivity: activation-level statistics and step assignment.

Each activation layer's outputs over a calibration batch form a histogram
over its L+1 quantization levels. Three statistics are computed from it:

  * agreement A = 1 - (S - 1)/(K - 1), where K is the number of level
    categories and S counts the categories whose mass reaches a fraction
    alpha of the total (van der Eijk's agreement measure). A near 1 means
    few busy levels, i.e. the layer tolerates a coarser step.
  * skewness g, with the third central moment normalized by 1/n and the
    variance in the denominator normalized by 1/(n-1). This mixed
    normalization is kept deliberately: the composite metric was defined
    with it, and it matters for byte-level reproducibility.
  * kurtosis K, using the (n+1)n/((n-1)(n-2)(n-3)) small-sample
    coefficient over sum((x - mean)^4)/k2^2, with k2 the unbiased sample
    variance. No "-3" excess correction is applied. The choice of the
    unbiased variance for k2 changes the value and is therefore pinned
    here: it is the estimator family the leading coefficient belongs to.

The composite sensitivity metric is M = A * (g^2 + 1) * K; a larger M
means the layer's level usage is more concentrated and the quantization
step can be reduced further. Layers are then grouped by an exact 1-D
k-means (dynamic programming over contiguous runs of the sorted metric
values), and each group gets a power-of-two quantization step: of chi
groups, the one with the largest metrics gets L = 1, the next L = 2, and
the smallest L = 2^(chi-1).

Statistics are computed on the level values k * theta / L; both g and K
are invariant under positive rescaling of those values, so using level
indices instead would give identical results.
"""

import warnings
from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
    """Raised when a statistic is undefined for the given histogram."""


@dataclass(frozen=True)
class LevelHistogram:
    """Counts per quantization level 0..L for one activation layer."""

    counts: np.ndarray
    L: int
    theta: float

    def __post_init__(self):
        if len(self.counts) != self.L + 1:
            raise MetricError(f"histogram needs {self.L + 1} level bins, got {len(self.counts)}")
        if np.any(np.asarray(self.counts) < 0):
            raise MetricError("histogram counts must be non-negative")

    @property
    def level_values(self):
        return np.arange(self.L + 1) * (self.theta / self.L)


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise MetricError(f"alpha must lie in (0, 1), got {alpha}")


def _check_chi(chi):
    if chi < 1:
        raise MetricError("cluster count must be at least 1")


def van_der_eijk_a(hist, alpha):
    """Agreement A = 1 - (S-1)/(K-1) with occupancy threshold alpha.

    A bin counts as non-empty when it holds at least alpha of the total
    mass. With alpha <= 1/K at least one bin always qualifies; for larger
    alpha it is possible that none does, in which case A is reported as 1
    (no dominant level at all, treated as maximally compressible) with a
    warning.
    """
    _check_alpha(alpha)
    counts = np.asarray(hist.counts, dtype=np.float64)
    k = counts.size
    if k < 2:
        raise MetricError("agreement needs at least two level categories")
    n = counts.sum()
    if n <= 0:
        raise MetricError("agreement needs a non-empty histogram")
    s = int(np.sum(counts >= alpha * n))
    if s == 0:
        warnings.warn("no histogram bin reaches the occupancy threshold; "
                      "reporting agreement = 1", stacklevel=2)
        return 1.0
    return 1.0 - (s - 1) / (k - 1)


def _central_sums(hist):
    counts = np.asarray(hist.counts, dtype=np.float64)
    values = hist.level_values
    n = counts.sum()
    mean = float(np.dot(counts, values) / n)
    centered = values - mean
    s2 = float(np.dot(counts, centered ** 2))
    s3 = float(np.dot(counts, centered ** 3))
    s4 = float(np.dot(counts, centered ** 4))
    return n, s2, s3, s4


def skewness(hist):
    """g = m3 / s^3 with m3 = sum((x-mean)^3)/n and s^2 the (n-1) variance."""
    n, s2, s3, _ = _central_sums(hist)
    if n < 2:
        raise MetricError("skewness needs at least two samples")
    if s2 == 0.0:
        raise MetricError("degenerate distribution: zero variance")
    m3 = s3 / n
    s = np.sqrt(s2 / (n - 1))
    return float(m3 / s ** 3)


def kurtosis(hist):
    """K = (n+1)n / ((n-1)(n-2)(n-3)) * sum((x-mean)^4) / k2^2."""
    n, s2, _, s4 = _central_sums(hist)
    if n <= 3:
        raise MetricError("kurtosis needs more than three samples")
    if s2 == 0.0:
        raise MetricError("degenerate distribution: zero variance")
    k2 = s2 / (n - 1)
    coeff = (n + 1) * n / ((n - 1) * (n - 2) * (n - 3))
    return float(coeff * s4 / k2 ** 2)


def _composite(a, g, k):
    return a * (g ** 2 + 1.0) * k


def default_alpha(total_layers, k=0.5):
    """Occupancy threshold k / total_layers; the default uses k = 1/2."""
    if total_layers < 1:
        raise MetricError("total layer count must be positive")
    return k / total_layers


# ---------------------------------------------------------------------------
# optimal 1-D clustering


def _prefix_sse(sorted_vals):
    """cost(i, j): within-cluster sum of squared deviations of vals[i..j]."""
    p1 = np.concatenate([[0.0], np.cumsum(sorted_vals)])
    p2 = np.concatenate([[0.0], np.cumsum(sorted_vals ** 2)])

    def cost(i, j):
        cnt = j - i + 1
        s1 = p1[j + 1] - p1[i]
        s2 = p2[j + 1] - p2[i]
        return s2 - s1 * s1 / cnt

    return cost


def cluster_1d(values, chi):
    """Globally optimal 1-D k-means via dynamic programming.

    The optimum partition of sorted values into chi clusters is contiguous,
    so a DP over split points finds the exact minimum of the within-cluster
    sum of squared deviations. Cost ties are broken toward later splits,
    i.e. toward fewer elements in the higher-valued cluster.

    Returns integer cluster ids aligned with the input order; ids are
    0..chi-1 in increasing order of cluster value.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    _check_chi(chi)
    if chi > n:
        raise MetricError(f"cannot split {n} values into {chi} clusters")
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    cost = _prefix_sse(sorted_vals)

    # dp[k][j] = best cost of clustering vals[0..j] into k+1 clusters
    dp = np.full((chi, n), np.inf)
    split = np.zeros((chi, n), dtype=np.int64)
    for j in range(n):
        dp[0][j] = cost(0, j)
    for k in range(1, chi):
        for j in range(k, n):
            best, best_i = np.inf, k
            for i in range(k, j + 1):
                c = dp[k - 1][i - 1] + cost(i, j)
                if c <= best:        # '<=' prefers the later split on ties
                    best, best_i = c, i
            dp[k][j] = best
            split[k][j] = best_i

    bounds = []
    j = n - 1
    for k in range(chi - 1, 0, -1):
        i = split[k][j]
        bounds.append((i, j))
        j = i - 1
    bounds.append((0, j))
    bounds.reverse()

    assignments = np.empty(n, dtype=np.int64)
    for cid, (i, j) in enumerate(bounds):
        assignments[order[i:j + 1]] = cid
    return assignments


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class LayerMetrics:
    layer_id: str
    agreement: float = None
    skew: float = None
    kurt: float = None
    metric: float = None
    cluster: int = None
    assigned_L: int = None
    flag: str = ""


def analyze_trace(trace, graph, alpha=None, chi=1):
    """Per-activation-layer metric report from a forward-pass trace.

    Degenerate layers (constant activations, too few samples) are flagged
    and excluded from clustering; the others still get metrics, a cluster
    and an assigned step. Cluster ids rank the clusters by metric (see
    cluster_1d), so the top cluster gets L = 1, the next L = 2, then 4, ...
    An alpha outside (0, 1) raises MetricError for the whole report.
    """
    if alpha is None:
        alpha = default_alpha(len(graph.matmul_layers()))
    _check_alpha(alpha)
    rows = []
    for layer in graph.qcfs_layers():
        hist = LevelHistogram(counts=trace.histograms[layer.id],
                              L=layer.qcfs.L, theta=layer.qcfs.theta)
        row = LayerMetrics(layer_id=layer.id)
        try:
            row.agreement = van_der_eijk_a(hist, alpha)
            row.skew = skewness(hist)
            row.kurt = kurtosis(hist)
            row.metric = _composite(row.agreement, row.skew, row.kurt)
        except MetricError as exc:
            row.flag = str(exc)
        rows.append(row)

    usable = [r for r in rows if not r.flag]
    if usable:
        if chi > len(usable):
            raise MetricError(f"cannot split {len(usable)} usable layers into {chi} clusters")
        for row, cluster in zip(usable, cluster_1d([r.metric for r in usable], chi)):
            row.cluster = int(cluster)
            row.assigned_L = 2 ** (chi - 1 - row.cluster)
    return rows


def report_rows(rows):
    """Plain-dict rows for JSON/CSV serialization."""
    return [
        {
            "layer": r.layer_id,
            "agreement": r.agreement,
            "skewness": r.skew,
            "kurtosis": r.kurt,
            "metric": r.metric,
            "cluster": r.cluster,
            "assigned_L": r.assigned_L,
            "flag": r.flag,
        }
        for r in rows
    ]
