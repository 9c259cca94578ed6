"""Reads of internal state that only tests make.

The system serves requests; tests also ask where Anna keeps a key, what it
has yet to propagate, and what a cache still holds.  These helpers read that
state for assertions, so the classes carry no methods only tests would call.
"""

from typing import Dict, FrozenSet, Iterable, List

from repro.anna import AnnaCluster
from repro.cloudburst.cache import ExecutorCache


def replicas_of(anna: AnnaCluster, key: str) -> List[str]:
    """The nodes responsible for ``key`` that hold a copy, primary first."""
    return [owner for owner in anna._owners(key) if anna.node(owner).contains(key)]


def dirty_key_count(anna: AnnaCluster) -> int:
    """Writes accepted by one replica but not yet gossiped to the rest."""
    return sum(len(keys) for keys in anna._dirty.values())


def pending_update_count(anna: AnnaCluster) -> int:
    """Keys waiting for the next periodic cache-update flush."""
    return len(anna._pending_updates)


def snapshot_count(cache: ExecutorCache) -> int:
    """Version snapshots the cache still holds for running DAGs."""
    return len(cache._snapshots)


def index_holders(anna: AnnaCluster) -> Dict[str, FrozenSet[str]]:
    """Every key the key-to-cache index tracks -> the caches it lists."""
    return {key: frozenset(caches)
            for key, caches in anna.cache_index._key_to_caches.items()}


def holders_implied_by(caches: Iterable[ExecutorCache]) -> Dict[str, FrozenSet[str]]:
    """The index the open caches' own key sets imply: key -> the caches holding it."""
    holders: Dict[str, set] = {}
    for cache in caches:
        if not cache.closed:
            for key in cache._data:
                holders.setdefault(key, set()).add(cache.cache_id)
    return {key: frozenset(caches) for key, caches in holders.items()}
