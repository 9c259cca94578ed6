"""Key-to-cache index (§4.2).

An index that maps every key to the set of Cloudburst caches holding it.
The caches' own writes keep it: a cache adds an entry as it stores a key and
removes one as it evicts, clears or closes, so the index always equals the
open caches' key sets.  It serves two purposes:

* Anna uses it to propagate key updates to the caches that store the key, so
  caches stay fresh without polling.
* The schedulers read it to make locality-aware placement decisions (§4.3).

The index is partitioned across storage nodes using the same consistent-hash
scheme as the key space itself; this module tracks the per-key overhead that
§6.1.4 reports (median 24 bytes, 99th percentile 1.3 KB in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set


@dataclass
class IndexOverhead:
    """Per-key index size statistics (the §6.1.4 measurement)."""

    median_bytes: float
    p99_bytes: float
    max_bytes: float
    total_bytes: int
    tracked_keys: int


class KeyCacheIndex:
    """Maps each key to the set of cache ids that currently store it."""

    #: Approximate serialized size of one cache address in the index.
    BYTES_PER_CACHE_ENTRY = 24

    def __init__(self):
        self._key_to_caches: Dict[str, Set[str]] = {}

    # -- maintenance (the caches' own writes) ------------------------------------
    def add_entry(self, cache_id: str, key: str) -> None:
        """Record that ``cache_id`` now holds ``key``."""
        self._key_to_caches.setdefault(key, set()).add(cache_id)

    def remove_entry(self, cache_id: str, key: str) -> None:
        """Record that ``cache_id`` no longer holds ``key``."""
        holders = self._key_to_caches.get(key)
        if holders is not None:
            holders.discard(cache_id)
            if not holders:
                del self._key_to_caches[key]

    # -- lookups -------------------------------------------------------------------
    def caches_for(self, key: str) -> FrozenSet[str]:
        return frozenset(self._key_to_caches.get(key, frozenset()))

    # -- update propagation targets ---------------------------------------------
    def propagation_targets(self, key: str, exclude: str = "") -> FrozenSet[str]:
        """Caches that should receive an update for ``key``.

        ``exclude`` is typically the cache that originated the write (it
        already has the new value locally).
        """
        holders = self._key_to_caches.get(key, set())
        return frozenset(cache for cache in holders if cache != exclude)

    # -- overhead accounting (§6.1.4) ----------------------------------------------
    def key_overhead_bytes(self, key: str) -> int:
        return self.BYTES_PER_CACHE_ENTRY * len(self._key_to_caches.get(key, ()))

    def overhead(self) -> IndexOverhead:
        from ..sim.stats import median, percentile

        sizes = [self.key_overhead_bytes(key) for key in self._key_to_caches]
        if not sizes:
            return IndexOverhead(0.0, 0.0, 0.0, 0, 0)
        return IndexOverhead(
            median_bytes=median(sizes),
            p99_bytes=percentile(sizes, 99.0),
            max_bytes=float(max(sizes)),
            total_bytes=int(sum(sizes)),
            tracked_keys=len(sizes),
        )
