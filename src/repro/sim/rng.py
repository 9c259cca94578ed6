"""Deterministic random sources used throughout the reproduction.

All stochastic behaviour (latency jitter, Zipfian key draws, random DAG
topologies, scheduler tie-breaking) flows through :class:`RandomSource` so a
single integer seed makes an entire experiment reproducible.
"""

from __future__ import annotations

import math
import random
import zlib
from bisect import bisect_left
from typing import List, Optional, Sequence, TypeVar

T = TypeVar("T")


class RandomSource:
    """A seeded wrapper around :mod:`random` with convenience distributions."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def spawn(self, namespace: str) -> "RandomSource":
        """Derive an independent child source; same seed + namespace is stable.

        Uses CRC32 rather than ``hash()`` so the derived seed is identical
        across processes (``hash()`` of a str is salted per interpreter run,
        which would make "same seed, same results" hold only within one
        process).
        """
        child_seed = zlib.crc32(f"{self.seed}/{namespace}".encode("utf-8")) & 0x7FFFFFFF
        return RandomSource(child_seed)

    # -- primitive draws -------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def random(self) -> float:
        return self._rng.random()

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._rng.choice(list(items))

    def shuffle(self, items: List[T]) -> List[T]:
        shuffled = list(items)
        self._rng.shuffle(shuffled)
        return shuffled

    def lognormal(self, median: float, sigma: float) -> float:
        """Log-normal draw parameterised by its median (not its mu)."""
        if median <= 0:
            raise ValueError("median of a lognormal must be positive")
        return math.exp(self._rng.gauss(math.log(median), sigma))

    def exponential(self, mean: float) -> float:
        if mean <= 0:
            raise ValueError("mean of an exponential must be positive")
        return self._rng.expovariate(1.0 / mean)


class ZipfGenerator:
    """Zipfian integer generator over ``{0, ..., n_items - 1}``.

    Uses the inverse-CDF method over precomputed cumulative weights, matching
    the skewed key-access patterns used in the paper's §6.1.4, §6.2 and §6.3
    experiments (coefficients 1.0 and 1.5).
    """

    def __init__(self, n_items: int, coefficient: float = 1.0,
                 rng: Optional[RandomSource] = None):
        if n_items <= 0:
            raise ValueError("n_items must be positive")
        if coefficient < 0:
            raise ValueError("zipf coefficient must be non-negative")
        self.n_items = int(n_items)
        self.coefficient = float(coefficient)
        self._rng = rng or RandomSource(0)
        weights = [1.0 / ((rank + 1) ** self.coefficient) for rank in range(self.n_items)]
        total = sum(weights)
        cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        cumulative[-1] = 1.0
        self._cumulative = cumulative

    def next(self) -> int:
        """Draw one item index; rank 0 is the hottest item."""
        point = self._rng.random()
        return self._bisect(point)

    def draw(self, count: int) -> List[int]:
        return [self.next() for _ in range(count)]

    def _bisect(self, point: float) -> int:
        """First index whose cumulative weight reaches ``point``."""
        return min(bisect_left(self._cumulative, point), self.n_items - 1)
