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


# The Zipf CDF's layout and build chunk (DESIGN.md DR-37).  The build
# assumes the head fits in the first chunk and both are whole runs.
HEAD_RANKS = 4_096
MARK_EVERY = 16
CHUNK_RANKS = 65_536


class ZipfGenerator:
    """Zipfian integer generator over ``{0, ..., n_items - 1}``.

    Uses the inverse-CDF method over cumulative weights, matching the skewed
    key-access patterns used in the paper's §6.1.4, §6.2 and §6.3
    experiments (coefficients 1.0 and 1.5).

    The CDF is the scalar loop's ``1.0 / (rank + 1) ** coefficient``,
    ``/ total``, ``+=`` bit for bit (DESIGN.md DR-28), but no table of it is
    kept (DR-37).  The generator holds the first ``HEAD_RANKS`` running sums
    as a list (the whole CDF of a table that small), then only the running
    sum at the last rank of each ``MARK_EVERY``-rank run, as packed doubles,
    and the total.  A draw past the head bisects the marks for its run and
    re-adds that run's weights from the previous mark with the build's own
    operations, so it returns the index ``bisect_left`` over the full table
    returns.

    The build makes two left-to-right passes of ``CHUNK_RANKS`` ranks, one
    for the total and one for the running sums, each chunk's first weight
    adding the carry before ``np.add.accumulate``, so no array larger than
    one chunk is allocated.  Each power is Python's own ``pow`` (numpy's
    float ``power`` can differ in the last bit), numpy's division rounds as
    Python's does, and ``np.add.accumulate`` adds left to right as the loop
    did (``np.sum`` adds pairwise).  An integral coefficient whose largest
    power stays within 2**53 takes integer powers instead (DR-35): each is
    exact, so it is the value ``pow`` returns.
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
        # Integer powers where every one is exact (DESIGN.md DR-35).
        self._exponent = int(self.coefficient) if (
            self.coefficient.is_integer() and self.coefficient <= 53
            and self.n_items ** int(self.coefficient) <= 2 ** 53) else None
        total = 0.0
        for start in range(0, self.n_items, CHUNK_RANKS):
            sums = self._weights(start)
            sums[0] += total
            np.add.accumulate(sums, out=sums)
            total = float(sums[-1])
        self._total = total
        head_len = min(HEAD_RANKS, self.n_items)
        # One mark per run past the head; the last run may be short.
        self._marks = array("d", bytes(
            8 * -(-(self.n_items - head_len) // MARK_EVERY)))
        marks = np.frombuffer(self._marks, np.float64)
        running, filled = 0.0, 0
        for start in range(0, self.n_items, CHUNK_RANKS):
            sums = self._weights(start)
            np.divide(sums, total, out=sums)
            sums[0] += running
            np.add.accumulate(sums, out=sums)
            running = float(sums[-1])
            if start == 0:
                self._head = sums[:head_len].tolist()
            # Chunks and the head end on run boundaries, so a chunk's marks
            # are every MARK_EVERY-th sum past the head.
            ends = sums[max(head_len - start, 0) + MARK_EVERY - 1::MARK_EVERY]
            marks[filled:filled + len(ends)] = ends
            filled += len(ends)
        if len(marks):
            marks[-1] = 1.0
        else:
            self._head[-1] = 1.0

    def _weights(self, start: int) -> np.ndarray:
        """The weights ``1.0 / rank ** coefficient`` of the chunk's ranks,
        ``start + 1`` up to ``start + CHUNK_RANKS`` or the last rank."""
        stop = min(start + CHUNK_RANKS, self.n_items)
        if self._exponent is not None:
            powers = np.arange(start + 1, stop + 1, dtype=np.int64)
            np.power(powers, self._exponent, out=powers)
            # Cast in the integers' own buffer: ``astype`` would add a
            # chunk-sized array to the build's peak.
            weights = powers.view(np.float64)
            np.copyto(weights, powers, casting="unsafe")
        else:
            weights = np.fromiter(
                map(pow, range(start + 1, stop + 1), repeat(self.coefficient)),
                np.float64, stop - start)
        return np.divide(1.0, weights, out=weights)

    def next(self) -> int:
        """Draw one item index; rank 0 is the hottest item."""
        point = self._rng.random()
        return self._bisect(point)

    def _bisect(self, point: float) -> int:
        """First index whose cumulative weight reaches ``point`` (the last
        index for a point past 1.0)."""
        head = self._head
        index = bisect_left(head, point)
        if index < len(head):
            return index
        run = bisect_left(self._marks, point)
        if run == len(self._marks):
            return self.n_items - 1
        first = len(head) + MARK_EVERY * run
        last = min(first + MARK_EVERY, self.n_items) - 1
        running = self._marks[run - 1] if run else head[-1]
        total, exponent = self._total, self._exponent
        # The run's mark reaches ``point``, so only the ranks before its
        # last are re-added; index ``i`` is rank ``i + 1``.
        for rank in range(first + 1, last + 1):
            if exponent is None:
                running += 1.0 / pow(rank, self.coefficient) / total
            else:
                running += 1.0 / float(rank ** exponent) / total
            if running >= point:
                return rank - 1
        return last
