"""A single Anna storage node.

Each node owns a shard of the key space (assigned by the consistent-hash
ring) and stores lattice values in two tiers: a memory tier for hot data and
a disk tier for cold data (Anna's tiered autoscaling, [86]).  Puts merge the
incoming lattice into whatever the node already stores, which is what makes
Anna multi-master and coordination free.

Every node also carries a bounded FIFO
:class:`~repro.sim.engine.ReservationQueue`, consulted only for *charged*
client requests; background traffic — replica gossip, asynchronous cache
write-backs — never occupies it, matching the paper's treatment of
replication as free for the caller.  How long one operation occupies the
node's server (memory tier vs the much slower disk tier) is
:class:`StorageServiceModel`, which the cluster charges.

The disk tier is a :class:`ColdTier`: the default keeps its lattices in
process, and :class:`~repro.durable.SqliteColdTier` writes every change
through to a WAL-mode SQLite table that survives node crashes.  Either way
the *timing* of disk operations comes solely from
:class:`StorageServiceModel`, so a durable tier never perturbs the virtual
timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional

from ..errors import KeyNotFoundError
from ..lattices import Lattice
from ..sim.engine import ReservationQueue

#: Bound on a storage node's work queue.  Large enough that the benchmark
#: workloads queue (latency) before they reject (errors); small enough that
#: a hot node saturates instead of buffering work forever.
NODE_QUEUE_BOUND = 128

#: Keys a memory tier holds before a fresh key demotes the least recently
#: used one to disk (large enough that only a capped run ever demotes).
MEMORY_CAPACITY_KEYS = 1_000_000


class ColdTier(dict):
    """A storage node's disk tier: key -> lattice, read as a plain dict.

    A node changes it only through :meth:`write` and :meth:`remove`, which
    report each change to :meth:`_persist`.  This class is the default tier:
    it persists nothing, so its lattices live and die with the process.
    :class:`~repro.durable.SqliteColdTier` overrides :meth:`_persist` to
    write each change through to SQLite, and fills itself from the table
    when it opens.
    """

    #: Last-access times of the keys found when the tier opened (a durable
    #: tier's recovered cold set); none for an in-process tier.
    recovered_access_ms: Mapping[str, float] = MappingProxyType({})

    def write(self, key: str, value: Lattice, last_access_ms: float = 0.0) -> None:
        self[key] = value
        self._persist(key, value, last_access_ms)

    def remove(self, key: str) -> Optional[Lattice]:
        value = self.pop(key, None)
        if value is not None:
            self._persist(key, None)
        return value

    def _persist(self, key: str, value: Optional[Lattice],
                 last_access_ms: float = 0.0) -> None:
        """Record one change (``value`` None: ``key`` was removed)."""

    def close(self) -> None:
        """Release the backing store (an in-process tier holds none)."""


@dataclass(frozen=True)
class StorageServiceModel:
    """Deterministic per-operation service time at one storage node.

    ``latency = base + size_bytes / bandwidth`` for the tier holding the key.
    Deliberately jitter-free: all randomness stays in the network-latency
    model, so a node's queue placements depend on arrival order alone.
    """

    memory_base_ms: float = 0.02
    memory_bandwidth_bytes_per_ms: float = 2_400_000.0  # ~2.4 GB/s DRAM path
    disk_base_ms: float = 2.0
    disk_bandwidth_bytes_per_ms: float = 150_000.0      # ~150 MB/s flash tier

    def service_ms(self, tier: str, size_bytes: int = 0) -> float:
        if tier == StorageNode.DISK_TIER:
            return self.disk_base_ms + size_bytes / self.disk_bandwidth_bytes_per_ms
        return self.memory_base_ms + size_bytes / self.memory_bandwidth_bytes_per_ms


@dataclass
class KeyStats:
    """Per-key access statistics used for hot-key replication and tiering."""

    reads: int = 0
    writes: int = 0
    last_access_ms: float = 0.0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes


class StorageNode:
    """One Anna storage server with a memory tier and a disk tier."""

    MEMORY_TIER = "memory"
    DISK_TIER = "disk"

    def __init__(self, node_id: str, memory_capacity_keys: int = MEMORY_CAPACITY_KEYS,
                 cold_tier: Optional[ColdTier] = None):
        self.node_id = node_id
        self.memory_capacity_keys = memory_capacity_keys
        #: The disk tier (in process unless the cluster has a durable path).
        self.cold_tier = ColdTier() if cold_tier is None else cold_tier
        #: Bounded single-server queue serialising charged client operations
        #: when the cluster runs on a discrete-event engine.  Storage ops
        #: arrive at private request-clock times that interleave across
        #: callbacks, so the queue backfills idle gaps instead of assuming
        #: timestamp-ordered arrivals (see :class:`ReservationQueue`).
        self.work_queue = ReservationQueue(bound=NODE_QUEUE_BOUND, label=node_id)
        self._memory: Dict[str, Lattice] = {}
        self._stats: Dict[str, KeyStats] = {}
        #: Keys pushed from memory to disk (autoscaler cold-data demotion or
        #: capacity pressure on insert).
        self.demotions = 0
        #: Charged puts this node's bounded queue genuinely turned away.
        self.rejections = 0
        #: Charged reads that skipped this node's full queue for a less-loaded
        #: replica (the read still succeeded elsewhere — not a rejection).
        self.read_redirects = 0
        #: Lattice merges received from peers (write fan-out / anti-entropy).
        self.replica_merges = 0
        #: Fault injection: while True, anti-entropy gossip to and from this
        #: node is deferred (dirty keys stay queued) — the replica is cut off
        #: from its peers, though clients can still reach it directly.  Set
        #: through :meth:`~repro.anna.cluster.AnnaCluster.partition_node`.
        self.partitioned = False

    # -- storage operations ----------------------------------------------------
    def put(self, key: str, value: Lattice, now_ms: float = 0.0,
            count_access: bool = True) -> Lattice:
        """Merge ``value`` into the node's copy of ``key``; returns the result.

        A *fresh* key landing in the memory tier while the tier is at
        ``memory_capacity_keys`` first demotes the coldest resident key to
        disk, so a burst of new keys can no longer overfill memory between
        autoscaler ticks.  ``count_access=False`` applies the merge without
        touching access statistics (replica gossip must not look like client
        load to the hot-key and autoscaling policies).
        """
        existing = self._memory.get(key)
        tier = self.MEMORY_TIER
        if existing is None:
            on_disk = self.cold_tier.get(key)
            if on_disk is not None:
                existing = on_disk
                tier = self.DISK_TIER
        if existing is None:
            # Fresh key: make room in the memory tier before inserting, with
            # an O(n) min scan — this runs on every fresh put once at capacity.
            while self._memory and len(self._memory) >= self.memory_capacity_keys:
                self.demote(min(self._memory, key=self._last_access_ms))
        merged = value if existing is None else existing.merge(value)
        if tier == self.DISK_TIER:
            self.cold_tier.write(key, merged, now_ms)
        else:
            self._memory[key] = merged
        if count_access:
            stats = self._stats.setdefault(key, KeyStats())
            stats.writes += 1
            stats.last_access_ms = now_ms
        else:
            self.replica_merges += 1
        return merged

    def get(self, key: str, now_ms: float = 0.0) -> Lattice:
        value = self._memory.get(key)
        if value is None:
            value = self.cold_tier.get(key)
        if value is None:
            raise KeyNotFoundError(key)
        stats = self._stats.setdefault(key, KeyStats())
        stats.reads += 1
        stats.last_access_ms = now_ms
        return value

    def peek(self, key: str) -> Optional[Lattice]:
        """Read without access accounting (rebalancing, gossip, system reads)."""
        value = self._memory.get(key)
        if value is None:
            value = self.cold_tier.get(key)
        return value

    def delete(self, key: str) -> bool:
        removed = self._memory.pop(key, None) is not None
        removed = self.cold_tier.remove(key) is not None or removed
        self._stats.pop(key, None)
        return removed

    def contains(self, key: str) -> bool:
        return key in self._memory or key in self.cold_tier

    def tier_of(self, key: str) -> Optional[str]:
        if key in self._memory:
            return self.MEMORY_TIER
        if key in self.cold_tier:
            return self.DISK_TIER
        return None

    # -- tier management ---------------------------------------------------------
    def demote(self, key: str) -> bool:
        """Move a key from the memory tier to the disk tier.

        A key lives in one tier at a time (a put merges into whichever holds
        it), so the value moves as it is.
        """
        if key not in self._memory:
            return False
        self.cold_tier.write(key, self._memory.pop(key), self._last_access_ms(key))
        self.demotions += 1
        return True

    def _last_access_ms(self, key: str) -> float:
        stats = self._stats.get(key)
        return stats.last_access_ms if stats is not None else 0.0

    # -- introspection ------------------------------------------------------------
    def keys(self) -> Iterable[str]:
        yield from self._memory
        yield from self.cold_tier

    def key_count(self) -> int:
        return len(self._memory) + len(self.cold_tier)

    def memory_keys(self) -> Iterable[str]:
        """Keys currently resident in the memory tier (demotion candidates)."""
        yield from self._memory

    def disk_key_count(self) -> int:
        return len(self.cold_tier)

    def stats(self, key: str) -> KeyStats:
        return self._stats.setdefault(key, KeyStats())

    def hot_keys(self, min_accesses: int) -> List[str]:
        return [key for key, stats in self._stats.items()
                if stats.accesses >= min_accesses and self.contains(key)]

    def drain(self) -> Dict[str, Lattice]:
        """Return and clear all stored data (graceful node removal).

        A drain empties the cold tier too, durable or not: the node is being
        decommissioned and its data re-homed, so leaving rows behind would
        leak them into a later node reusing the same id.  Crashes go through
        :meth:`forget_volatile` instead, which is the path that *keeps* a
        durable cold set on disk.
        """
        everything = dict(self._memory)
        for key in list(self.cold_tier):
            everything[key] = self.cold_tier.remove(key)
        self._memory.clear()
        self._stats.clear()
        return everything

    # -- crash/restart ------------------------------------------------------------
    def forget_volatile(self) -> None:
        """Crash semantics: lose the memory tier and access statistics.

        The cold tier is left to its own persistence: a durable one keeps its
        rows on disk under this node's table for a restarted node to recover.
        """
        self._memory.clear()
        self._stats.clear()

    def recover_cold_set(self) -> int:
        """Restore the access times of the cold set the tier found on disk.

        The cold *data* never left the database; what a crash loses is the
        in-memory access bookkeeping the autoscaler's cold-age policy reads.
        Returns the number of keys found (0 for an in-process tier).
        """
        for key, last_access in self.cold_tier.recovered_access_ms.items():
            self.stats(key).last_access_ms = last_access
        return len(self.cold_tier.recovered_access_ms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StorageNode({self.node_id!r}, memory={len(self._memory)}, "
                f"disk={self.disk_key_count()})")
