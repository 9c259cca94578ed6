"""Unit tests for the log-scale latency histogram."""

from unittest import mock

import pytest

from repro.obs import LatencyHistogram
from repro.sim import LatencyRecorder


def histogram_of(samples):
    histogram = LatencyHistogram(label="t")
    for sample in samples:
        histogram.record(sample)
    return histogram


class TestLatencyHistogram:
    def test_exact_count_sum_min_max(self):
        samples = [0.5, 3.0, 3.0, 120.0, 0.02]
        histogram = histogram_of(samples)
        assert histogram.count == len(samples)
        assert histogram.sum_ms == pytest.approx(sum(samples))
        assert histogram.min_ms == 0.02
        assert histogram.max_ms == 120.0
        assert histogram.mean_ms == pytest.approx(sum(samples) / len(samples))

    def test_percentiles_within_bucket_growth_error(self):
        # Uniform 1..1000 ms: each interpolated quantile must land within
        # the documented ~10% relative error of the exact value.
        histogram = histogram_of(float(value) for value in range(1, 1001))
        for pct, true_value in ((50, 500.5), (95, 950.05), (99, 990.01)):
            estimate = histogram.percentile(pct)
            assert estimate == pytest.approx(true_value, rel=0.10)

    def test_percentile_clamped_to_observed_range(self):
        histogram = histogram_of([10.0, 10.0, 10.0])
        # All mass in one bucket: interpolation cannot escape [min, max].
        for pct in (1, 50, 99):
            assert histogram.min_ms <= histogram.percentile(pct) <= \
                histogram.max_ms
        assert histogram.percentile(0) == 10.0
        assert histogram.percentile(100) == 10.0

    def test_overflow_bucket_reports_exact_max(self):
        with mock.patch("repro.obs.metrics.BUCKETS", 4):
            histogram = histogram_of([0.005, 1e9])
        assert histogram.overflow == 1
        assert histogram.percentile(99) == 1e9

    def test_empty_histogram_is_safe(self):
        histogram = LatencyHistogram(label="empty")
        assert histogram.count == 0
        assert histogram.percentile(99) == 0.0
        assert histogram.mean_ms == 0.0
        assert histogram.min_ms is None and histogram.max_ms is None

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            LatencyHistogram(label="neg").record(-1.0)


class TestHistogramBackedRecorder:
    """LatencyRecorder(keep_samples=False) drops sample lists."""

    def test_summary_matches_exact_within_bucket_error(self):
        samples = [float(value) for value in range(1, 501)]
        exact = LatencyRecorder(label="exact")
        compact = LatencyRecorder(label="compact", keep_samples=False)
        exact.extend(samples)
        compact.extend(samples)
        assert compact.samples_ms == []  # nothing retained
        assert len(compact) == len(exact)
        exact_summary, compact_summary = exact.summary(), compact.summary()
        assert compact_summary.count == exact_summary.count
        assert compact_summary.mean_ms == pytest.approx(exact_summary.mean_ms)
        assert compact_summary.min_ms == exact_summary.min_ms
        assert compact_summary.max_ms == exact_summary.max_ms
        for field in ("median_ms", "p95_ms", "p99_ms"):
            assert getattr(compact_summary, field) == pytest.approx(
                getattr(exact_summary, field), rel=0.10)
