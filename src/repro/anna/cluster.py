"""The Anna key-value store cluster.

Anna [85, 86] is the autoscaling, coordination-free KVS Cloudburst uses for
persistent state, system metadata and overlay routing.  This module provides
a laptop-scale reimplementation with the properties Cloudburst relies on:

* values are lattices, merged on every put (multi-master, coordination free);
* keys are partitioned across storage nodes with consistent hashing and
  replicated ``replication_factor`` ways for k-fault tolerance;
* the cluster holds the key-to-cache index, kept by the Cloudburst caches'
  own stores and evictions, used for update propagation and
  locality-aware scheduling (§4.2);
* nodes can be added and removed at runtime (storage autoscaling), moving
  only the affected shard of the key space.

Latency: every remote ``get``/``put`` issued with a request context charges
one Anna round trip (network model), the target node's deterministic service
time for the tier holding the key, and the time it waits in that node's
bounded FIFO work queue: storage nodes are first-class participants of the
cluster's discrete-event engine.  A put lands on *one* replica (the first
whose queue has room: multi-master, quorum-of-1) and reaches the rest through
periodic anti-entropy gossip on virtual time; a put that finds every
replica's queue full fails fast with ``StorageOverloadError``.  Background
traffic (gossip, rebalancing, and the ``background_*`` calls of cache
write-backs) never occupies the work queues and charges nothing, matching
the paper's treatment of replication as asynchronous and free for the caller.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from ..errors import KeyNotFoundError, StorageOverloadError
from ..lattices import Lattice, LWWLattice, TimestampGenerator
from ..sim import Engine, LatencyModel, RequestContext, run_overlapped
from .hash_ring import HashRing
from .index import KeyCacheIndex
from .storage_node import MEMORY_CAPACITY_KEYS, StorageNode, StorageServiceModel

#: Callback signature for asynchronous update propagation to caches.
UpdateListener = Callable[[str, Lattice], None]

#: Virtual-time period of the anti-entropy gossip round that carries writes
#: from the replica that accepted them to the rest of the replica set.
GOSSIP_INTERVAL_MS = 25.0

#: How long one operation occupies a storage node's server, per tier.
STORAGE_SERVICE = StorageServiceModel()


class AnnaCluster:
    """A cluster of Anna storage nodes behind a consistent-hash ring."""

    #: Update propagation modes: "immediate" pushes key updates to caches on
    #: every put; "periodic" queues them until the next ``flush_updates``
    #: round (every ``propagation_interval_ms`` of virtual time), which is how
    #: the real Anna behaves (§4.2) and is what lets caches serve stale data
    #: between propagation rounds.
    PROPAGATE_IMMEDIATE = "immediate"
    PROPAGATE_PERIODIC = "periodic"

    def __init__(self, node_count: int = 4, replication_factor: int = 2,
                 latency_model: Optional[LatencyModel] = None,
                 memory_capacity_keys: int = MEMORY_CAPACITY_KEYS,
                 propagation_mode: str = PROPAGATE_IMMEDIATE,
                 propagation_interval_ms: float = 0.0,
                 durable_path: Optional[Union[str, Path]] = None,
                 tracer=None):
        if node_count <= 0:
            raise ValueError("node_count must be positive")
        if replication_factor <= 0:
            raise ValueError("replication_factor must be positive")
        if propagation_mode not in (self.PROPAGATE_IMMEDIATE, self.PROPAGATE_PERIODIC):
            raise ValueError(f"unknown propagation mode: {propagation_mode!r}")
        if propagation_interval_ms < 0:
            raise ValueError("propagation_interval_ms cannot be negative")
        self.latency_model = latency_model or LatencyModel()
        #: Observability tracer (``repro.obs.Tracer``) used for background
        #: spans (gossip rounds); request spans ride on ``ctx.span`` and need
        #: no cluster-level handle.  None disables background spans.
        self.tracer = tracer
        self.replication_factor = replication_factor
        self.memory_capacity_keys = memory_capacity_keys
        self.propagation_mode = propagation_mode
        #: Virtual-time period of the propagation round in periodic mode
        #: (zero: only explicit ``flush_updates`` calls propagate).
        self.propagation_interval_ms = float(propagation_interval_ms)
        #: The discrete-event engine the storage nodes live on, for the
        #: cluster's whole lifetime (a ``CloudburstCluster`` runs on it too).
        self.engine = Engine()
        if (propagation_mode == self.PROPAGATE_PERIODIC
                and self.propagation_interval_ms > 0):
            self.engine.every(self.propagation_interval_ms, self.flush_updates)
        self.engine.every(GOSSIP_INTERVAL_MS, self.run_gossip_round)
        self._autoscaler = None
        self._pending_updates: List[str] = []
        #: Keys written at a node but not yet gossiped to its peer replicas.
        self._dirty: Dict[str, set] = {}
        self.gossip_rounds = 0
        self.gossip_key_exchanges = 0
        # Lifetime counters carried over from retired nodes, so scale-downs
        # don't erase their storage costs.
        self._retired_queue_busy_ms = 0.0
        self._retired_rejections = 0
        self._retired_read_redirects = 0
        self._retired_demotions = 0
        #: When set, every storage node gets a :class:`SqliteColdTier` in this
        #: shared WAL database file — demotions become real durable writes and
        #: :meth:`crash_node`/:meth:`restart_node` model a node crash that
        #: keeps its cold set on disk.  None keeps the in-process disk tier.
        self.durable_path = Path(durable_path) if durable_path is not None else None
        #: Crash/restart accounting for the durable tier (§4.5 fault oracle):
        #: how many cold keys were on disk at each crash, and how many a
        #: restart recovered.  Equal totals mean no demoted key was lost.
        self.cold_crashes = 0
        self.cold_keys_at_crash = 0
        self.cold_keys_recovered = 0
        self._ring = HashRing()
        self._nodes: Dict[str, StorageNode] = {}
        self._node_sequence = 0
        self._cache_index = KeyCacheIndex()
        self._update_listeners: Dict[str, UpdateListener] = {}
        self._timestamps = TimestampGenerator("anna-cluster")
        self._hot_key_extra_replicas: Dict[str, int] = {}
        self._wall_clock_ms = 0.0
        for _ in range(node_count):
            self.add_node()

    def wall_clock_ms(self) -> float:
        """A cluster-wide monotonically increasing clock.

        Stands in for the (roughly synchronised) local system clocks the paper
        concatenates into LWW timestamps; every call returns a strictly larger
        value, so writes issued later in real execution order carry larger
        timestamps regardless of which node issued them.
        """
        self._wall_clock_ms += 0.001
        return self._wall_clock_ms

    # -- membership -------------------------------------------------------------
    def add_node(self, node_id: Optional[str] = None) -> str:
        """Add a storage node and migrate the shard it now owns.

        Migration reads peers with ``peek`` and merges with
        ``count_access=False``: rebalancing is system traffic and must not
        register as client load with the hot-key or autoscaling policies.

        With a durable path configured, the node opens (or re-opens) its
        per-node table in the shared SQLite file *before* migration: a node
        rejoining after :meth:`crash_node` recovers its cold set from disk
        first, and the migration below then merges the peers' copies into
        those durable rows by the normal lattice rules.
        """
        if node_id is None:
            node_id = f"anna-node-{self._node_sequence}"
            self._node_sequence += 1
        cold_tier = None
        if self.durable_path is not None:
            from ..durable import SqliteColdTier

            cold_tier = SqliteColdTier(self.durable_path, node_id)
        node = StorageNode(node_id, memory_capacity_keys=self.memory_capacity_keys,
                           cold_tier=cold_tier)
        self.cold_keys_recovered += node.recover_cold_set()
        all_keys = set()
        for other in self._nodes.values():
            all_keys.update(other.keys())
        self._nodes[node_id] = node
        self._ring.add_node(node_id)
        # Copy over only the keys whose replica set now includes the new node
        # (boosted hot keys have wider replica sets than the base factor),
        # merging *every* replica's copy of each: an ex-owner may still hold a
        # stale version of a key whose ownership moved away from it, and
        # first-copy-wins would seed the new node from that stale copy.
        moving = set(self._ring.owned_by(sorted(all_keys), node_id,
                                         self.replication_factor))
        moving.update(key for key in self._hot_key_extra_replicas
                      if key in all_keys and node_id in self._owners(key))
        for key in sorted(moving):
            merged: Optional[Lattice] = None
            for other in self._nodes.values():
                if other is node:
                    continue
                value = other.peek(key)
                if value is not None:
                    merged = value if merged is None else merged.merge(value)
            if merged is not None:
                node.put(key, merged, count_access=False)
        return node_id

    def _retire(self, node_id: str, verb: str) -> StorageNode:
        """Take a node off the ring, keeping its counters in the cluster totals."""
        if node_id not in self._nodes:
            raise KeyError(f"unknown storage node: {node_id!r}")
        if len(self._nodes) == 1:
            raise ValueError(f"cannot {verb} the last storage node")
        departing = self._nodes.pop(node_id)
        self._ring.remove_node(node_id)
        self._retired_queue_busy_ms += departing.work_queue.busy_ms
        self._retired_rejections += departing.rejections
        self._retired_read_redirects += departing.read_redirects
        self._retired_demotions += departing.demotions
        return departing

    def remove_node(self, node_id: str) -> None:
        """Remove a node, re-homing its data onto the remaining replicas."""
        departing = self._retire(node_id, "remove")
        # The departing node's copies reach every current replica directly,
        # so its not-yet-gossiped writes cannot be lost.
        self._dirty.pop(node_id, None)
        for key, value in departing.drain().items():
            for owner in self._owners(key):
                self._nodes[owner].put(key, value, count_access=False)
        # Graceful decommission: drain() already emptied the cold tier, so a
        # later node reusing this id starts from a clean cold set.
        departing.cold_tier.close()

    def crash_node(self, node_id: str) -> int:
        """Kill a storage node without the graceful drain (fault injection).

        The node's volatile memory tier and access statistics are lost with
        it.  So is the in-process cold tier; a durable one stays on disk
        under the same node id, so :meth:`restart_node` recovers the cold set
        from the database instead of refetching it.  Writes the node had
        accepted but not yet gossiped are delivered to the surviving
        replicas: the repro models anti-entropy pushes as already emitted
        when the write was acknowledged (see ``DESIGN.md``, DR-5), so a crash
        costs a replica, never acknowledged data.  Returns the number of
        cold keys the node held when it crashed.
        """
        departing = self._retire(node_id, "crash")
        for key in sorted(self._dirty.pop(node_id, set())):
            value = departing.peek(key)
            if value is None:
                continue
            for owner in self._owners(key):
                survivor = self._nodes.get(owner)
                if survivor is not None:
                    survivor.put(key, value, count_access=False)
        cold_left = departing.disk_key_count()
        departing.forget_volatile()
        departing.cold_tier.close()
        self.cold_crashes += 1
        self.cold_keys_at_crash += cold_left
        return cold_left

    def restart_node(self, node_id: str) -> int:
        """Rejoin a crashed node under its old id, recovering its cold set.

        The restarted node re-opens its per-node SQLite table (recovering
        every demoted key straight from disk) and then receives the normal
        add-node migration, which merges the peers' copies into the durable
        rows by vector clock.  Returns how many keys came back from disk.
        """
        if node_id in self._nodes:
            raise ValueError(f"storage node {node_id!r} is still alive")
        before = self.cold_keys_recovered
        self.add_node(node_id=node_id)
        return self.cold_keys_recovered - before

    def has_durable_tier(self) -> bool:
        """True when storage nodes persist their cold tier in SQLite."""
        return self.durable_path is not None

    def durable_stats(self) -> Dict[str, Any]:
        """Durable-tier accounting for the bench sections and the §4.5 oracle."""
        return {
            "enabled": self.durable_path is not None,
            # The file name only: the directory is the host's, and the
            # section must not depend on it.
            "path": self.durable_path.name if self.durable_path else None,
            "crashes": self.cold_crashes,
            "cold_keys_at_crash": self.cold_keys_at_crash,
            "cold_keys_recovered": self.cold_keys_recovered,
            "cold_keys_now": sum(node.disk_key_count()
                                 for node in self._nodes.values()),
            "demotions": self.total_demotions(),
        }

    @property
    def node_ids(self) -> List[str]:
        return sorted(self._nodes)

    def node(self, node_id: str) -> StorageNode:
        return self._nodes[node_id]

    def node_count(self) -> int:
        return len(self._nodes)

    # -- data path -----------------------------------------------------------------
    def put(self, key: str, value: Lattice, ctx: RequestContext) -> Lattice:
        """Merge ``value`` into ``key``'s replica set for a request.

        The put lands on the *first replica whose work queue has room*
        (multi-master, quorum-of-1), waits out that node's queue, and is
        marked dirty so the periodic anti-entropy gossip carries it to the
        remaining replicas on virtual time.  If every replica's queue is full
        the put fails with :class:`~repro.errors.StorageOverloadError`.
        """
        self.latency_model.charge(ctx, "anna", "put", size_bytes=value.size_bytes())
        target = self._first_available(key, self._owners(key), ctx.clock.now_ms)
        node = self._nodes[target]
        self._serve(node, key, ctx, size_bytes=value.size_bytes(),
                    fresh=not node.contains(key))
        return self._merge(target, key, value, ctx.clock.now_ms)

    def background_put(self, key: str, value: Lattice, originating_cache: str = "",
                       count_access: bool = True) -> Lattice:
        """A write no request waits for (a cache write-back, a registration):
        it lands on the primary at the engine's time, uncharged and unqueued.
        ``count_access=False`` keeps system traffic (metric publishes) out of
        the hot-key and storage-autoscaling load statistics."""
        return self._merge(self._owners(key)[0], key, value, self.engine.now_ms,
                           originating_cache, count_access)

    def _merge(self, target: str, key: str, value: Lattice, now_ms: float,
               originating_cache: str = "", count_access: bool = True) -> Lattice:
        if not isinstance(value, Lattice):
            raise TypeError("Anna stores lattices; wrap plain values first "
                            "(see repro.cloudburst.serialization)")
        merged = self._nodes[target].put(key, value, now_ms=now_ms,
                                         count_access=count_access)
        self._dirty.setdefault(target, set()).add(key)
        self._propagate_update(key, merged, exclude=originating_cache)
        return merged

    def _first_available(self, key: str, owners: List[str], at_ms: float) -> str:
        """The first replica whose queue has room, or reject the whole put.

        Skipped-but-not-rejecting replicas are *not* counted as rejections —
        the put still succeeds elsewhere (the same rule the read path applies
        to redirects).  Only a put that finds every replica saturated fails,
        and then every replica records the turn-away.
        """
        for owner in owners:
            if not self._nodes[owner].work_queue.is_full(at_ms):
                return owner
        for owner in owners:
            self._nodes[owner].rejections += 1
        raise StorageOverloadError(key, owners)

    def get(self, key: str, ctx: RequestContext) -> Lattice:
        """Read ``key`` from its replica set (one charged round trip).

        The read is served by the first replica in ring order that holds the
        key; a replica whose work queue is full is skipped in favour of a
        less-loaded one (reads redirect, writes reject), and the chosen
        node's queueing delay is charged to the caller.
        """
        holders = [owner for owner in self._owners(key)
                   if self._nodes[owner].contains(key)]
        if not holders:
            self.latency_model.charge(ctx, "anna", "get", size_bytes=0)
            ctx.charge("anna", "service",
                       STORAGE_SERVICE.service_ms(StorageNode.MEMORY_TIER))
            raise KeyNotFoundError(key)
        target = holders[0]
        at_ms = ctx.clock.now_ms
        skipped = []
        for owner in holders:
            if not self._nodes[owner].work_queue.is_full(at_ms):
                target = owner
                break
            skipped.append(owner)
        else:
            skipped = []  # every holder full: fall back to ring order
        # A skipped holder is a redirect, not a rejection — the read still
        # succeeds at the chosen replica (writes reject, reads redirect).
        for owner in skipped:
            self._nodes[owner].read_redirects += 1
        node = self._nodes[target]
        value = node.peek(key)
        assert value is not None
        self.latency_model.charge(ctx, "anna", "get", size_bytes=value.size_bytes())
        self._serve(node, key, ctx, size_bytes=value.size_bytes())
        return node.get(key, now_ms=ctx.clock.now_ms)

    def background_get(self, key: str) -> Optional[Lattice]:
        """An uncharged, unqueued read at the engine's time (None if absent);
        unlike :meth:`peek` it counts as an access to the key."""
        for owner in self._owners(key):
            node = self._nodes[owner]
            if node.contains(key):
                return node.get(key, now_ms=self.engine.now_ms)
        return None

    def _serve(self, node: StorageNode, key: str, ctx: RequestContext,
               size_bytes: int = 0, fresh: bool = False) -> None:
        """Charge one operation's queueing delay and service time at ``node``."""
        tier = node.tier_of(key) or StorageNode.MEMORY_TIER
        if fresh:
            tier = StorageNode.MEMORY_TIER
        service_ms = STORAGE_SERVICE.service_ms(tier, size_bytes)
        traced = ctx.span is not None
        arrival_ms = ctx.clock.now_ms
        wait_ms = node.work_queue.reserve(arrival_ms, service_ms) - arrival_ms
        if wait_ms > 0:
            ctx.charge("anna", "queue", wait_ms)
            if traced:
                ctx.record_span("kvs_queue", "anna", arrival_ms,
                                node=node.node_id)
        service_start = ctx.clock.now_ms
        ctx.charge("anna", "service", service_ms)
        if traced:
            ctx.record_span("kvs_service", "anna", service_start,
                            node=node.node_id, storage_tier=tier)

    def get_or_none(self, key: str, ctx: RequestContext) -> Optional[Lattice]:
        try:
            return self.get(key, ctx)
        except KeyNotFoundError:
            return None

    def multi_get(self, keys: Iterable[str],
                  ctx: RequestContext) -> Dict[str, Optional[Lattice]]:
        """Read a batch of keys with overlapped charging (§4.2 async fetches).

        Every sub-read goes through the exact single-key :meth:`get` path —
        same replica choice, read-redirect, queue reservation and per-node
        service accounting — but on a forked context, so the caller's clock
        advances by ``(N-1) * dispatch + max(per-key round trips)`` instead of
        the sum (see :func:`repro.sim.run_overlapped`).  Concurrent fetches
        that land on the same :class:`StorageNode` still serialise honestly
        at its :class:`~repro.sim.ReservationQueue`.

        Returns ``{key: lattice-or-None}`` in input order (duplicates
        collapsed); a missing key charges its not-found round trip exactly
        like :meth:`get` and maps to None rather than raising.
        """
        unique = list(dict.fromkeys(keys))

        def run_one(key: str, branch: RequestContext) -> Optional[Lattice]:
            if branch is ctx or branch.span is None:
                # Batch of one (or untraced): the single-key path.
                return self.get_or_none(key, branch)
            branch.open_span("fetch", "anna", key=key)
            try:
                return self.get_or_none(key, branch)
            finally:
                branch.close_span()

        values = run_overlapped(
            ctx, unique, run_one, self.latency_model,
            "anna", "multi_get_dispatch", "anna",
            lambda value: 0 if value is None else value.size_bytes())
        return dict(zip(unique, values))

    def peek(self, key: str) -> Optional[Lattice]:
        """Read without charges or access accounting (system/background paths)."""
        for owner in self._owners(key):
            value = self._nodes[owner].peek(key)
            if value is not None:
                return value
        return None

    def delete(self, key: str, ctx: RequestContext) -> bool:
        self.latency_model.charge(ctx, "anna", "put", size_bytes=0)
        return self.background_delete(key)

    def background_delete(self, key: str) -> bool:
        deleted = False
        for node in self._nodes.values():
            deleted = node.delete(key) or deleted
        for dirty in self._dirty.values():
            dirty.discard(key)
        self._hot_key_extra_replicas.pop(key, None)
        return deleted

    def contains(self, key: str) -> bool:
        return any(node.contains(key) for node in self._nodes.values())

    def keys(self) -> List[str]:
        seen = set()
        for node in self._nodes.values():
            seen.update(node.keys())
        return sorted(seen)

    # -- convenience: plain-value metadata stored as LWW lattices --------------------
    def plain(self, value) -> LWWLattice:
        """Wrap a bare Python value in an LWW lattice stamped now.

        Cloudburst system metadata (function bodies, DAG topologies, executor
        statistics) uses this; user data goes through the lattice
        encapsulation layer in :mod:`repro.cloudburst.serialization`.
        """
        return LWWLattice(self._timestamps.next(self.wall_clock_ms()), value)

    def get_plain(self, key: str, ctx: RequestContext):
        return self.get(key, ctx).reveal()

    # -- replica placement ----------------------------------------------------------
    def _owners(self, key: str) -> List[str]:
        extra = self._hot_key_extra_replicas.get(key, 0)
        return self._ring.owners(key, self.replication_factor + extra)

    def boost_replication(self, key: str, extra_replicas: int) -> None:
        """Selectively replicate a hot key to more storage nodes (Anna [86])."""
        if extra_replicas < 0:
            raise ValueError("extra_replicas must be non-negative")
        self._hot_key_extra_replicas[key] = extra_replicas
        value = self.peek(key)
        if value is not None:
            for owner in self._owners(key):
                if not self._nodes[owner].contains(key):
                    self._nodes[owner].put(key, value, count_access=False)

    def hot_keys(self, min_accesses: int = 100) -> List[str]:
        hot = set()
        for node in self._nodes.values():
            hot.update(node.hot_keys(min_accesses))
        return sorted(hot)

    # -- cache index and update propagation (§4.2) ------------------------------------
    @property
    def cache_index(self) -> KeyCacheIndex:
        return self._cache_index

    def register_update_listener(self, cache_id: str, listener: UpdateListener) -> None:
        """Register a cache's callback for asynchronous key-update propagation."""
        self._update_listeners[cache_id] = listener

    def unregister_update_listener(self, cache_id: str) -> None:
        self._update_listeners.pop(cache_id, None)

    def _propagate_update(self, key: str, value: Lattice, exclude: str = "") -> None:
        if self.propagation_mode == self.PROPAGATE_PERIODIC:
            self._pending_updates.append(key)
            return
        self._push_update(key, value, exclude=exclude)

    def _push_update(self, key: str, value: Lattice, exclude: str = "") -> None:
        for cache_id in self._cache_index.propagation_targets(key, exclude=exclude):
            listener = self._update_listeners.get(cache_id)
            if listener is not None:
                listener(key, value)

    # -- storage autoscaling ------------------------------------------------------------
    def set_autoscaler(self, autoscaler, interval_ms: float = 5_000.0) -> None:
        """Run a storage autoscaler's policy tick every ``interval_ms``."""
        self.clear_autoscaler()
        autoscaler.start(interval_ms)
        self._autoscaler = autoscaler

    def clear_autoscaler(self) -> None:
        if self._autoscaler is not None:
            self._autoscaler.stop()
        self._autoscaler = None

    # -- anti-entropy gossip ------------------------------------------------------------
    def run_gossip_round(self) -> int:
        """Push every not-yet-replicated write to its peer replicas.

        One round makes every dirty key fully replicated (each accepting node
        pushes its merged copy to all current owners), so concurrent writes
        accepted by different replicas converge after a single exchange.
        Gossip merges bypass the work queues and access statistics: replica
        maintenance is not client load.  Returns the number of key pushes.

        Partitioned replicas (fault injection, :meth:`partition_node`) are
        unreachable for anti-entropy in both directions: their own dirty keys
        stay queued, and pushes *toward* them are requeued at the source —
        nothing is dropped, so healing the partition converges the replicas
        on the next round.
        """
        dirty, self._dirty = self._dirty, {}
        exchanged = 0
        for node_id in sorted(dirty):
            node = self._nodes.get(node_id)
            if node is None:
                continue
            if node.partitioned:
                self._dirty.setdefault(node_id, set()).update(dirty[node_id])
                continue
            for key in sorted(dirty[node_id]):
                value = node.peek(key)
                if value is None:
                    continue
                for owner in self._owners(key):
                    if owner == node_id:
                        continue
                    target = self._nodes[owner]
                    if target.partitioned:
                        self._dirty.setdefault(node_id, set()).add(key)
                        continue
                    target.put(key, value, count_access=False)
                    exchanged += 1
        self.gossip_rounds += 1
        self.gossip_key_exchanges += exchanged
        if self.tracer is not None:
            # A round takes no virtual time, and nothing in it traces.
            now_ms = self.engine.now_ms
            self.tracer.record_background("gossip_round", "anna", now_ms, now_ms,
                                          key_exchanges=exchanged)
        return exchanged

    def partition_node(self, node_id: str) -> None:
        """Cut one replica off from anti-entropy gossip (fault injection).

        Models a network partition between storage peers: clients can still
        reach the node directly, but replica maintenance to and from it is
        deferred until :meth:`heal_partition`.  Stale reads served from the
        partitioned replica during the window are exactly the §6.2 anomaly
        surface the fault bench measures.
        """
        if node_id not in self._nodes:
            raise KeyError(f"unknown storage node: {node_id!r}")
        self._nodes[node_id].partitioned = True

    def heal_partition(self, node_id: str) -> None:
        """Reconnect a partitioned replica; queued gossip flows again."""
        if node_id not in self._nodes:
            raise KeyError(f"unknown storage node: {node_id!r}")
        self._nodes[node_id].partitioned = False

    def partitioned_nodes(self) -> List[str]:
        return sorted(node_id for node_id, node in self._nodes.items()
                      if node.partitioned)

    def flush_updates(self) -> int:
        """Run one periodic propagation round (no-op in immediate mode).

        Returns the number of distinct keys propagated.  Caches that hold a
        pending key receive its latest merged value; between flushes they may
        serve stale versions, which is exactly the window in which the LWW
        anomalies of §6.2.2 and §6.3.2 arise.
        """
        pending = sorted(set(self._pending_updates))
        self._pending_updates.clear()
        for key in pending:
            value = self.peek(key)
            if value is not None:
                self._push_update(key, value)
        return len(pending)

    # -- introspection ------------------------------------------------------------------
    def total_access_count(self) -> int:
        total = 0
        for node in self._nodes.values():
            for key in node.keys():
                total += node.stats(key).accesses
        return total

    def total_demotions(self) -> int:
        return self._retired_demotions + \
            sum(node.demotions for node in self._nodes.values())

    def total_rejections(self) -> int:
        return self._retired_rejections + \
            sum(node.rejections for node in self._nodes.values())

    def total_read_redirects(self) -> int:
        return self._retired_read_redirects + \
            sum(node.read_redirects for node in self._nodes.values())

    def total_queue_busy_ms(self) -> float:
        """Cumulative work-queue service time, surviving node removals."""
        return self._retired_queue_busy_ms + \
            sum(node.work_queue.busy_ms for node in self._nodes.values())
