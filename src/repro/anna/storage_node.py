"""A single Anna storage node.

Each node owns a shard of the key space (assigned by the consistent-hash
ring) and stores lattice values in two tiers: a memory tier for hot data and
a disk tier for cold data (Anna's tiered autoscaling, [86]).  Puts merge the
incoming lattice into whatever the node already stores, which is what makes
Anna multi-master and coordination free.

Every node also carries a bounded FIFO
:class:`~repro.sim.engine.ReservationQueue` and a
:class:`StorageServiceModel` describing how long one operation occupies the
node's server (memory tier vs the much slower disk tier).  The queue is only
consulted for *charged* client requests; background traffic — replica gossip,
asynchronous cache write-backs — never occupies it, matching the paper's
treatment of replication as free for the caller.

The disk tier has two implementations: the default in-process dict, and —
when a :class:`~repro.durable.SqliteColdTier` is attached — a real WAL-mode
SQLite table that survives node crashes.  Either way the *timing* of disk
operations comes solely from :class:`StorageServiceModel`, so attaching a
durable tier never perturbs the virtual timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..errors import KeyNotFoundError
from ..lattices import Lattice
from ..sim.engine import ReservationQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..durable import SqliteColdTier

#: Default bound on a storage node's work queue.  Large enough that the
#: benchmark workloads queue (latency) before they reject (errors); small
#: enough that a hot node saturates instead of buffering work forever.
DEFAULT_NODE_QUEUE_BOUND = 128


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

    def __init__(self, node_id: str, memory_capacity_keys: int = 1_000_000,
                 service_model: Optional[StorageServiceModel] = None,
                 queue_bound: Optional[int] = DEFAULT_NODE_QUEUE_BOUND,
                 cold_tier: Optional["SqliteColdTier"] = None):
        self.node_id = node_id
        self.memory_capacity_keys = memory_capacity_keys
        self.service_model = service_model or StorageServiceModel()
        #: Optional durable backend for the disk tier.  When set, demotions
        #: serialise into SQLite and the in-process ``_disk`` dict stays
        #: empty; when None, the disk tier is the plain dict as before.
        self.cold_tier = cold_tier
        #: Bounded single-server queue serialising charged client operations
        #: when the cluster runs on a discrete-event engine.  Storage ops
        #: arrive at private request-clock times that interleave across
        #: callbacks, so the queue backfills idle gaps instead of assuming
        #: timestamp-ordered arrivals (see :class:`ReservationQueue`).
        self.work_queue = ReservationQueue(bound=queue_bound, label=node_id)
        self._memory: Dict[str, Lattice] = {}
        self._disk: Dict[str, Lattice] = {}
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
            on_disk = self._disk_peek(key)
            if on_disk is not None:
                existing = on_disk
                tier = self.DISK_TIER
        if existing is None:
            # Fresh key: make room in the memory tier before inserting.
            # O(n) min scan, not coldest_memory_keys (which copies + sorts the
            # whole tier) — this runs on every fresh put once at capacity.
            while self._memory and len(self._memory) >= self.memory_capacity_keys:
                self.demote(min(self._memory, key=self._last_access_ms))
        merged = value if existing is None else existing.merge(value)
        if tier == self.DISK_TIER:
            self._disk_store(key, merged, now_ms)
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
            value = self._disk_peek(key)
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
            value = self._disk_peek(key)
        return value

    def delete(self, key: str) -> bool:
        removed = self._memory.pop(key, None) is not None
        if self.cold_tier is not None:
            removed = self.cold_tier.delete(key) or removed
        else:
            removed = (self._disk.pop(key, None) is not None) or removed
        self._stats.pop(key, None)
        return removed

    def contains(self, key: str) -> bool:
        return key in self._memory or self._disk_contains(key)

    def tier_of(self, key: str) -> Optional[str]:
        if key in self._memory:
            return self.MEMORY_TIER
        if self._disk_contains(key):
            return self.DISK_TIER
        return None

    # -- the disk tier's two backends (in-process dict vs durable SQLite) --------
    def _disk_peek(self, key: str) -> Optional[Lattice]:
        if self.cold_tier is not None:
            return self.cold_tier.get(key)
        return self._disk.get(key)

    def _disk_contains(self, key: str) -> bool:
        if self.cold_tier is not None:
            return self.cold_tier.contains(key)
        return key in self._disk

    def _disk_store(self, key: str, value: Lattice, now_ms: float = 0.0) -> None:
        if self.cold_tier is not None:
            self.cold_tier.put(key, value, last_access_ms=now_ms)
        else:
            self._disk[key] = value

    def _disk_pop(self, key: str) -> Optional[Lattice]:
        if self.cold_tier is not None:
            return self.cold_tier.pop(key)
        return self._disk.pop(key, None)

    # -- tier management ---------------------------------------------------------
    def demote(self, key: str) -> bool:
        """Move a key from the memory tier to the disk tier.

        With a durable cold tier attached the value is *merged* into any
        existing on-disk copy (after a crash/restart the table may already
        hold an older version of the key) and committed before this returns.
        """
        if key not in self._memory:
            return False
        value = self._memory.pop(key)
        if self.cold_tier is not None:
            self.cold_tier.merge(key, value,
                                 last_access_ms=self._last_access_ms(key))
        else:
            self._disk[key] = value
        self.demotions += 1
        return True

    def promote(self, key: str) -> bool:
        """Move a key from the disk tier to the memory tier.

        The disk copy is merged into any memory-resident copy by the normal
        lattice rules — for causal values a vector-clock merge — so a write
        that raced the demotion is never clobbered by the promotion.
        """
        value = self._disk_pop(key)
        if value is None:
            return False
        existing = self._memory.get(key)
        self._memory[key] = value if existing is None else existing.merge(value)
        return True

    def over_memory_capacity(self) -> bool:
        return len(self._memory) > self.memory_capacity_keys

    def _last_access_ms(self, key: str) -> float:
        stats = self._stats.get(key)
        return stats.last_access_ms if stats is not None else 0.0

    def coldest_memory_keys(self, count: int) -> List[str]:
        """The ``count`` least-recently-accessed keys in the memory tier."""
        in_memory = [key for key in self._memory]
        in_memory.sort(key=self._last_access_ms)
        return in_memory[:count]

    # -- introspection ------------------------------------------------------------
    def keys(self) -> Iterable[str]:
        yield from self._memory
        if self.cold_tier is not None:
            yield from self.cold_tier.keys()
        else:
            yield from self._disk

    def key_count(self) -> int:
        return len(self._memory) + self.disk_key_count()

    def memory_key_count(self) -> int:
        return len(self._memory)

    def memory_keys(self) -> Iterable[str]:
        """Keys currently resident in the memory tier (demotion candidates)."""
        yield from self._memory

    def disk_key_count(self) -> int:
        if self.cold_tier is not None:
            return self.cold_tier.key_count()
        return len(self._disk)

    def stats(self, key: str) -> KeyStats:
        return self._stats.setdefault(key, KeyStats())

    def hot_keys(self, min_accesses: int) -> List[str]:
        return [key for key, stats in self._stats.items()
                if stats.accesses >= min_accesses and self.contains(key)]

    def drain(self) -> Dict[str, Lattice]:
        """Return and clear all stored data (graceful node removal).

        A drain empties the durable cold tier too: the node is being
        decommissioned and its data re-homed, so leaving rows behind would
        leak them into a later node reusing the same id.  Crashes go through
        :meth:`forget_volatile` instead, which is the path that *keeps* the
        cold set on disk.
        """
        everything = dict(self._memory)
        if self.cold_tier is not None:
            for key, value in self.cold_tier.items():
                existing = everything.get(key)
                everything[key] = (value if existing is None
                                   else existing.merge(value))
            self.cold_tier.clear()
        else:
            everything.update(self._disk)
            self._disk.clear()
        self._memory.clear()
        self._stats.clear()
        return everything

    # -- crash/restart (durable tier only) ----------------------------------------
    def forget_volatile(self) -> None:
        """Crash semantics: lose the memory tier and access statistics.

        The durable cold tier is deliberately untouched — its rows stay on
        disk under this node's table for a restarted node to recover.
        """
        self._memory.clear()
        self._stats.clear()

    def recover_cold_set(self) -> int:
        """Restore per-key statistics for the durable cold set after a restart.

        The cold *data* never left the database; what a crash loses is the
        in-memory access bookkeeping the autoscaler's cold-age policy reads.
        Returns the number of durable keys found (0 without a cold tier).
        """
        if self.cold_tier is None:
            return 0
        recovered = 0
        for key, last_access in self.cold_tier.access_times().items():
            stats = self._stats.setdefault(key, KeyStats())
            stats.last_access_ms = max(stats.last_access_ms, last_access)
            recovered += 1
        return recovered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StorageNode({self.node_id!r}, memory={len(self._memory)}, "
                f"disk={self.disk_key_count()})")
