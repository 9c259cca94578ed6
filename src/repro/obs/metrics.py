"""The log-scale latency histogram behind compact latency recorders.

Keeping every request latency in a flat list and re-sorting it per
percentile query costs memory at paper-scale sweep volumes.
:class:`LatencyHistogram` replaces that: fixed log-spaced buckets give
O(1) recording and O(buckets) percentile readout at any request volume, with
``count``/``sum``/``min``/``max`` tracked exactly and quantiles interpolated
inside the owning bucket (clamped to the exact min/max, so p0 and p100 are
exact).  At its resolution (24 buckets per decade) the relative
quantile error is bounded by the bucket growth factor, about 10%.

Like everything under ``repro.obs``, recording never touches a clock or an
RNG: histograms are pure bookkeeping over virtual-time latencies, safe to
leave enabled in seeded benchmark runs.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional

__all__ = ["LatencyHistogram"]


#: Histogram geometry: first bucket upper bound (ms) and per-bucket growth.
#: ``1.1`` ~= 24 buckets/decade; 180 buckets span 0.01 ms .. ~300 s, wider
#: than any latency this simulation produces.
FIRST_BOUND_MS = 0.01
GROWTH = 1.1
BUCKETS = 180


class LatencyHistogram:
    """Fixed-bucket log-scale latency histogram with percentile readouts.

    Bucket ``i`` counts samples in ``(bounds[i-1], bounds[i]]`` (the first
    bucket starts at 0); samples beyond the last bound land in an unbounded
    overflow bucket whose percentile estimate is clamped to the exact max.
    """

    __slots__ = ("label", "bounds", "counts", "overflow", "count",
                 "sum_ms", "min_ms", "max_ms")

    def __init__(self, label: str = ""):
        self.label = label
        self.bounds: List[float] = []
        bound = FIRST_BOUND_MS
        for _ in range(BUCKETS):
            self.bounds.append(bound)
            bound *= GROWTH
        self.counts = [0] * BUCKETS
        self.overflow = 0
        self.count = 0
        self.sum_ms = 0.0
        self.min_ms: Optional[float] = None
        self.max_ms: Optional[float] = None

    # -- recording --------------------------------------------------------------
    def record(self, latency_ms: float) -> None:
        if latency_ms < 0:
            raise ValueError(f"negative latency sample {latency_ms}")
        self.count += 1
        self.sum_ms += latency_ms
        if self.min_ms is None or latency_ms < self.min_ms:
            self.min_ms = latency_ms
        if self.max_ms is None or latency_ms > self.max_ms:
            self.max_ms = latency_ms
        index = bisect_right(self.bounds, latency_ms)
        if index >= len(self.counts):
            self.overflow += 1
        else:
            self.counts[index] += 1

    # -- readouts ---------------------------------------------------------------
    @property
    def mean_ms(self) -> float:
        return self.sum_ms / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Latency at percentile ``pct`` (0..100), bucket-interpolated.

        Exact at the extremes (p<=0 returns the true min, p>=100 the true
        max); in between, the target rank's bucket is located by cumulative
        count and the value interpolated linearly between that bucket's
        bounds, then clamped into ``[min, max]``.
        """
        if self.count == 0:
            return 0.0
        assert self.min_ms is not None and self.max_ms is not None
        if pct <= 0:
            return self.min_ms
        if pct >= 100:
            return self.max_ms
        target = pct / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                fraction = (target - previous) / bucket_count
                value = lower + (upper - lower) * fraction
                return min(max(value, self.min_ms), self.max_ms)
        # Rank lands in the overflow bucket: everything there is <= max.
        return self.max_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LatencyHistogram({self.label!r}, count={self.count}, "
                f"p99={self.percentile(99):.3f}ms)")
