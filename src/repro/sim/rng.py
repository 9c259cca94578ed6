"""Deterministic random sources used throughout the reproduction.

All stochastic behaviour (latency jitter, Zipfian key draws, random DAG
topologies, scheduler tie-breaking) flows through :class:`RandomSource` so a
single integer seed makes an entire experiment reproducible.
"""

from __future__ import annotations

import math
import random
import zlib
from array import array
from bisect import bisect_left
from itertools import repeat
from typing import List, Optional, Sequence, TypeVar

import numpy as np

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
        """One uniform pick; a list or tuple is indexed as it is, not copied
        (``random.Random.choice`` draws an index, so the pick is the same)."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        if not isinstance(items, (list, tuple)):
            items = list(items)
        return self._rng.choice(items)

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

    The table is built in one vectorised pass that equals the scalar loop
    ``1.0 / (rank + 1) ** coefficient``, ``+=`` bit for bit (DESIGN.md
    DR-28): each power is Python's own ``pow`` (numpy's ``power`` can differ
    in the last bit), numpy's division rounds as Python's does, and both the
    total and the running sum are ``np.add.accumulate``, which adds left to
    right as the loop did (``np.sum`` adds pairwise).  The table is kept as
    packed doubles, 8 bytes an entry.
    """

    def __init__(self, n_items: int, coefficient: float = 1.0,
                 rng: Optional[RandomSource] = None):
        if n_items <= 0:
            raise ValueError("n_items must be positive")
        if not coefficient >= 0:  # also rejects NaN
            raise ValueError("zipf coefficient must be non-negative")
        self.n_items = int(n_items)
        self.coefficient = float(coefficient)
        self._rng = rng or RandomSource(0)
        weights = np.fromiter(
            map(pow, range(1, self.n_items + 1), repeat(self.coefficient)),
            np.float64, self.n_items)
        np.divide(1.0, weights, out=weights)
        # The running sums are built in the table's own buffer: no second
        # array, and no copy of one.
        self._cumulative = array("d", bytes(8 * self.n_items))
        running = np.frombuffer(self._cumulative, np.float64)
        np.add.accumulate(weights, out=running)
        np.divide(weights, running[-1], out=weights)  # running[-1]: the total
        np.add.accumulate(weights, out=running)
        running[-1] = 1.0

    def next(self) -> int:
        """Draw one item index; rank 0 is the hottest item."""
        point = self._rng.random()
        return self._bisect(point)

    def draw(self, count: int) -> List[int]:
        return [self.next() for _ in range(count)]

    def _bisect(self, point: float) -> int:
        """First index whose cumulative weight reaches ``point``."""
        return min(bisect_left(self._cumulative, point), self.n_items - 1)
