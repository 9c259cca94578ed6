"""Unit tests for latency statistics helpers."""

import pytest

from repro.sim import LatencyRecorder, format_table, mean, median, percentile


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_single_value(self):
        assert percentile([42.0], 0) == 42.0
        assert percentile([42.0], 100) == 42.0

    def test_median_of_odd_list(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_median_of_even_list_interpolates(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5)

    def test_p99_near_max(self):
        values = list(range(1, 101))
        assert percentile(values, 99) == pytest.approx(99.01)

    def test_percentiles_are_monotonic(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        pcts = [percentile(values, p) for p in (0, 25, 50, 75, 100)]
        assert pcts == sorted(pcts)

    def test_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            mean([])

    def test_mean_value(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)


class TestLatencyRecorder:
    def test_record_and_summary(self):
        recorder = LatencyRecorder(label="x")
        recorder.extend([1.0, 2.0, 3.0, 4.0, 100.0])
        summary = recorder.summary()
        assert summary.count == 5
        assert summary.median_ms == 3.0
        assert summary.min_ms == 1.0
        assert summary.max_ms == 100.0
        assert summary.p99_ms > summary.median_ms

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1.0)

    def test_summary_of_empty_recorder_raises(self):
        with pytest.raises(ValueError):
            LatencyRecorder(label="empty").summary()


class TestFormatTable:
    def test_renders_headers_rows_and_title(self):
        text = format_table(["a", "bb"], [[1, 2], [3, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_column_widths_accommodate_long_values(self):
        text = format_table(["col"], [["averyverylongvalue"]])
        assert "averyverylongvalue" in text
