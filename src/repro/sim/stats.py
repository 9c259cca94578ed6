"""Latency and throughput statistics shared by tests and benchmark harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (pct in [0, 100])."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sequence")
    return _sorted_percentile(sorted(values), pct)


def _sorted_percentile(ordered: Sequence[float], pct: float) -> float:
    """:func:`percentile` of a non-empty, already sorted sequence."""
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    interpolated = ordered[low] * (1.0 - fraction) + ordered[high] * fraction
    # Clamp: floating-point rounding must never push the result outside the
    # two samples it interpolates between.
    return min(max(interpolated, ordered[low]), ordered[high])


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("cannot take the mean of an empty sequence")
    return sum(values) / len(values)


@dataclass
class LatencySummary:
    """Summary statistics for one experimental configuration."""

    label: str
    count: int
    mean_ms: float
    median_ms: float
    p95_ms: float
    p99_ms: float
    min_ms: float
    max_ms: float


@dataclass
class LatencyRecorder:
    """Accumulates per-request latencies for one labelled configuration.

    Every sample is kept, so each percentile is exact (:func:`percentile`).
    """

    label: str = "unnamed"
    samples_ms: List[float] = field(default_factory=list)

    def record(self, latency_ms: float) -> None:
        if latency_ms < 0:
            raise ValueError("latency cannot be negative")
        self.samples_ms.append(float(latency_ms))

    def summary(self) -> LatencySummary:
        if not self.samples_ms:
            raise ValueError(f"no samples recorded for {self.label!r}")
        ordered = sorted(self.samples_ms)
        return LatencySummary(
            label=self.label,
            count=len(self.samples_ms),
            mean_ms=mean(self.samples_ms),
            median_ms=_sorted_percentile(ordered, 50.0),
            p95_ms=_sorted_percentile(ordered, 95.0),
            p99_ms=_sorted_percentile(ordered, 99.0),
            min_ms=ordered[0],
            max_ms=ordered[-1],
        )


@dataclass
class ThroughputPoint:
    """One point on a throughput-over-time curve (Figure 7)."""

    time_s: float
    requests_per_s: float
    allocated_threads: int


def capacity_at(capacity_timeline: Sequence[tuple], at_ms: float) -> int:
    """Evaluate a step-function capacity timeline ``[(time_ms, value), ...]``."""
    if not capacity_timeline:
        return 0
    value = capacity_timeline[0][1]
    for timestamp, capacity in capacity_timeline:
        if timestamp <= at_ms:
            value = capacity
        else:
            break
    return value


def build_throughput_curve(completion_buckets: Dict[int, int],
                           capacity_timeline: Sequence[tuple],
                           bucket_ms: float, end_ms: float) -> List[ThroughputPoint]:
    """Assemble the throughput-over-time curve shared by every load driver.

    ``completion_buckets`` maps ``int(completion_time // bucket_ms)`` to a
    completion count; capacity is attributed at each bucket's end.
    """
    curve: List[ThroughputPoint] = []
    if end_ms <= 0:
        return curve
    for bucket in range(int(end_ms // bucket_ms) + 1):
        completions = completion_buckets.get(bucket, 0)
        capacity = capacity_at(capacity_timeline, (bucket + 1) * bucket_ms)
        curve.append(ThroughputPoint(
            time_s=(bucket * bucket_ms) / 1000.0,
            requests_per_s=completions / (bucket_ms / 1000.0),
            allocated_threads=capacity,
        ))
    return curve


@dataclass
class SimulationResult:
    """Everything a throughput experiment needs to report."""

    latencies: LatencyRecorder
    throughput_curve: List[ThroughputPoint]
    completed_requests: int
    duration_ms: float
    capacity_timeline: List[Tuple[float, int]]

    @property
    def overall_throughput_per_s(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return self.completed_requests / (self.duration_ms / 1000.0)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render a plain-text table for benchmark output."""
    columns = [list(map(str, column)) for column in zip(*([headers] + [list(r) for r in rows]))]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
