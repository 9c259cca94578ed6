"""Latency and throughput statistics shared by tests and benchmark harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (pct in [0, 100])."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(values)
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

    ``keep_samples=False`` switches to a fixed-bucket log-scale histogram
    (:class:`repro.obs.LatencyHistogram`) instead of the flat sample list:
    O(1) memory at any request volume, exact count/mean/min/max, and
    bucket-interpolated p50/p95/p99 (relative error bounded by the ~10%
    bucket growth).  The large scaling sweeps use it — they only ever read
    ``summary()``, so there is no reason to retain millions of floats.
    """

    label: str = "unnamed"
    samples_ms: List[float] = field(default_factory=list)
    keep_samples: bool = True
    _histogram: Optional[object] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.keep_samples:
            from ..obs.metrics import LatencyHistogram

            self._histogram = LatencyHistogram(label=self.label)

    def record(self, latency_ms: float) -> None:
        if latency_ms < 0:
            raise ValueError("latency cannot be negative")
        if self._histogram is not None:
            self._histogram.record(float(latency_ms))
        else:
            self.samples_ms.append(float(latency_ms))

    def extend(self, latencies_ms: Iterable[float]) -> None:
        for value in latencies_ms:
            self.record(value)

    def __len__(self) -> int:
        if self._histogram is not None:
            return self._histogram.count
        return len(self.samples_ms)

    def summary(self) -> LatencySummary:
        if self._histogram is not None:
            histogram = self._histogram
            if histogram.count == 0:
                raise ValueError(f"no samples recorded for {self.label!r}")
            return LatencySummary(
                label=self.label,
                count=histogram.count,
                mean_ms=histogram.mean_ms,
                median_ms=histogram.percentile(50.0),
                p95_ms=histogram.percentile(95.0),
                p99_ms=histogram.percentile(99.0),
                min_ms=histogram.min_ms,
                max_ms=histogram.max_ms,
            )
        if not self.samples_ms:
            raise ValueError(f"no samples recorded for {self.label!r}")
        return LatencySummary(
            label=self.label,
            count=len(self.samples_ms),
            mean_ms=mean(self.samples_ms),
            median_ms=median(self.samples_ms),
            p95_ms=percentile(self.samples_ms, 95.0),
            p99_ms=percentile(self.samples_ms, 99.0),
            min_ms=min(self.samples_ms),
            max_ms=max(self.samples_ms),
        )


@dataclass
class ThroughputPoint:
    """One point on a throughput-over-time curve (Figure 7)."""

    time_s: float
    requests_per_s: float
    allocated_threads: int
    allocated_nodes: int


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
                           bucket_ms: float, end_ms: float,
                           threads_per_node: int = 3) -> List[ThroughputPoint]:
    """Assemble the throughput-over-time curve shared by every load driver.

    ``completion_buckets`` maps ``int(completion_time // bucket_ms)`` to a
    completion count; capacity is attributed at each bucket's end.
    """
    curve: List[ThroughputPoint] = []
    if end_ms <= 0:
        return curve
    per_node = max(1, threads_per_node)
    for bucket in range(int(end_ms // bucket_ms) + 1):
        completions = completion_buckets.get(bucket, 0)
        capacity = capacity_at(capacity_timeline, (bucket + 1) * bucket_ms)
        curve.append(ThroughputPoint(
            time_s=(bucket * bucket_ms) / 1000.0,
            requests_per_s=completions / (bucket_ms / 1000.0),
            allocated_threads=capacity,
            allocated_nodes=max(1, math.ceil(capacity / per_node)),
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
