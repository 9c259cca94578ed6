"""Executor-colocated caches (§4.2).

Every function-execution VM runs one cache.  Executors talk to the cache over
IPC, never directly to Anna; the cache fetches misses from Anna, absorbs
writes locally and pushes them to Anna asynchronously, and periodically
publishes its cached key set so Anna's key-to-cache index can propagate
updates back to it.

The cache also provides the building blocks the distributed-session
consistency protocols need (§5.3):

* *version snapshots* — on first read within a DAG the cache pins the exact
  version it returned, for the lifetime of the DAG, so downstream executors
  can fetch precisely that version ("fetch from upstream");
* *causal-cut maintenance* — in the causal modes the cache implements the
  bolt-on protocol: before exposing a causally wrapped key it makes sure every
  dependency is present locally at a concurrent-or-newer version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..anna import AnnaCluster
from ..errors import ConsistencyError, KeyNotFoundError
from ..lattices import CausalLattice, Lattice
from ..sim import RequestContext, run_overlapped


@dataclass
class CacheStats:
    """Hit/miss and traffic counters for one cache."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    upstream_fetches: int = 0
    update_pushes_received: int = 0
    snapshots_created: int = 0
    #: Dependencies fetched from Anna while repairing the causal cut.
    causal_dep_fetches: int = 0
    #: Dependencies the cut maintenance could not resolve (absent from the
    #: KVS).  These used to be skipped silently — together with the old
    #: depth-8 recursion cap — which hid holes in the causal cut.
    causal_deps_unresolved: int = 0
    #: Scheduler-driven reference prefetches started (§4.2: the scheduler
    #: ships DAG reference metadata ahead so caches warm before the invoke).
    prefetches_issued: int = 0
    #: Reads that found their key warm (or in flight) thanks to a prefetch.
    prefetch_hits: int = 0
    #: Prefetched values never read before :meth:`settle_prefetch_accounting`
    #: (mispredicted references — wasted background bandwidth).
    prefetch_wasted: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ExecutorCache:
    """The VM-local mutable cache colocated with function executors."""

    def __init__(self, cache_id: str, kvs: AnnaCluster,
                 peer_registry: Optional[Dict[str, "ExecutorCache"]] = None):
        self.cache_id = cache_id
        self.kvs = kvs
        self.latency_model = kvs.latency_model
        self.closed = False
        self._data: Dict[str, Lattice] = {}
        # Scheduler-driven reference prefetches that have not landed yet:
        # key -> (virtual time the background fetch completes, value,
        # issuing execution id).
        self._prefetch_inflight: Dict[
            str, Tuple[float, Lattice, Optional[str]]] = {}
        # Prefetched keys that landed in _data but were never read (candidates
        # for the wasted-prefetch counter at settle time).
        self._prefetched_unread: Set[str] = set()
        # Virtual time until which this VM's ingress link is busy streaming
        # the current execution's earlier prefetched values (transfers
        # serialize; round trips don't), and that execution's id.
        self._prefetch_link_free_ms: float = 0.0
        self._prefetch_last_epoch: Optional[str] = None
        # Snapshots pinned for in-flight DAGs: (execution_id, key) -> lattice.
        self._snapshots: Dict[Tuple[str, str], Lattice] = {}
        self._snapshot_keys_by_execution: Dict[str, Set[str]] = {}
        self.stats = CacheStats()
        # Shared registry so caches can serve upstream-version fetches to peers.
        self._peers = peer_registry if peer_registry is not None else {}
        self._peers[cache_id] = self
        # Register for asynchronous update propagation from Anna (§4.2).
        self.kvs.register_update_listener(cache_id, self.receive_update)

    # -- basic data path ---------------------------------------------------------
    def get_local(self, key: str) -> Optional[Lattice]:
        """The locally cached lattice for ``key`` (no fetch, no charge)."""
        return self._data.get(key)

    def get_metadata(self, key: str):
        """The version (timestamp or vector clock) of the local copy, if any."""
        from .serialization import LatticeEncapsulator

        local = self._data.get(key)
        if local is None:
            return None
        return LatticeEncapsulator.version_of(local)

    def get_or_fetch(self, key: str, ctx: RequestContext) -> Lattice:
        """Single-key :meth:`multi_get` without cut repair; raises when absent."""
        value = self.multi_get((key,), ctx, repair_cut=False)[key]
        if value is None:
            raise KeyNotFoundError(key)
        return value

    def multi_get(self, keys, ctx: RequestContext,
                  repair_cut: bool = True) -> Dict[str, Optional[Lattice]]:
        """The cache's one read: hits in one IPC round trip, misses overlapped.

        The paper's caches serve a whole argument list's references without
        serialising a network round trip per key (§4.2).  This call:

        * partitions ``keys`` (duplicates collapsed, input order kept) into
          local hits and misses, promoting in-flight prefetches;
        * charges the hits as *one* ``cache.multi_get`` IPC round trip
          carrying the batch;
        * fetches every miss from Anna concurrently in virtual time — per-key
          queue/service charges still land on each storage node, but the
          caller pays ``(N-1) * dispatch + max(fetch latencies)``, not the
          sum (see :func:`repro.sim.run_overlapped`);
        * with ``repair_cut``, repairs the causal cut over the whole batch
          (:meth:`ensure_causal_cut`).  The consistency protocol decides
          this per read: levels that maintain no cut, and reads of a version
          the session already pinned, pass False.

        Missing keys map to ``None`` (they still pay the not-found round
        trip).  A batch of one forks nothing and pays no dispatch: it is the
        single-key read.
        """
        results: Dict[str, Optional[Lattice]] = {}
        missing: List[str] = []
        hits: List[Lattice] = []
        for key in keys:
            if key in results:
                continue
            local = self._data.get(key)
            if local is None:
                local = self._from_prefetch(key, ctx)
            else:
                self._note_prefetch_hit(key)
            results[key] = local
            if local is None:
                missing.append(key)
            else:
                hits.append(local)
        if hits:
            self.stats.hits += len(hits)
            traced = ctx.span is not None
            if traced:
                ctx.open_span("cache_hit", "cache", self.cache_id,
                              batch=len(hits))
            self.latency_model.charge(
                ctx, "cache", "multi_get",
                size_bytes=sum(value.size_bytes() for value in hits))
            if len(hits) > 1:
                # One IPC round trip amortises the per-get protocol
                # overhead, but the cache still looks up and marshals
                # every entry (deterministic per-key service time).
                ctx.charge("cache", "multi_get_key",
                           (len(hits) - 1) * self.latency_model.cost(
                               "cache", "multi_get_key").base_ms)
            if traced:
                ctx.close_span()
        if missing:
            results.update(self._fetch_misses(missing, ctx))
        if repair_cut:
            self.ensure_causal_cut(
                [value for value in results.values() if value is not None], ctx)
            # The repair may have merged a newer copy of a batch member into
            # the cache (a fellow member depended on it): return those.
            for key, value in results.items():
                if value is not None:
                    results[key] = self._data[key]
        return results

    def _fetch_misses(self, keys: List[str], ctx: RequestContext
                      ) -> Dict[str, Optional[Lattice]]:
        """Fetch cache misses from Anna with overlapped charging.

        A batch of one runs directly on ``ctx`` (no fork, no dispatch
        charge); larger batches fork a context per key under a ``multi_get``
        parent span, paying the serial per-key dispatch cost plus the max
        fetch latency, and the VM's ingress link the bytes beyond the
        largest response.
        """
        batched = len(keys) > 1 and ctx.span is not None
        if batched:
            ctx.open_span("multi_get", "cache", self.cache_id, misses=len(keys))
        try:
            values = run_overlapped(
                ctx, keys, self._fetch_one_miss, self.latency_model,
                "anna", "multi_get_dispatch", "cache",
                lambda value: 0 if value is None else value.size_bytes())
        finally:
            if batched:
                ctx.close_span()
        return dict(zip(keys, values))

    def _fetch_one_miss(self, key: str,
                        ctx: RequestContext) -> Optional[Lattice]:
        """One cold read from Anna; a key Anna does not hold maps to None."""
        self.stats.misses += 1
        # On a miss the storage fetch nests under a cache_miss span, so trace
        # trees show exactly which Anna node (and how much queueing) each cold
        # read paid for.
        traced = ctx.span is not None
        if traced:
            ctx.open_span("cache_miss", "cache", self.cache_id, key=key)
        try:
            value = self.kvs.get(key, ctx)
        except Exception as exc:
            if traced:
                ctx.close_span(error=True)
            if not isinstance(exc, KeyNotFoundError):
                raise
            return None
        self.latency_model.charge(ctx, "cache", "get", size_bytes=value.size_bytes())
        self._store(key, value)
        if traced:
            ctx.close_span()
        return value

    def put(self, key: str, value: Lattice, ctx: RequestContext) -> Lattice:
        """Apply an executor's write.

        The cache updates its local copy, acknowledges the request (one IPC
        charge) and pushes the update to Anna asynchronously — the Anna merge
        happens but costs the caller nothing, matching §4.2.
        """
        self.latency_model.charge(ctx, "cache", "put", size_bytes=value.size_bytes())
        merged = self._store(key, value)
        self.stats.puts += 1
        # Asynchronous write-back to the KVS (not charged to the request).
        self.kvs.background_put(key, value, originating_cache=self.cache_id)
        return merged

    def contains(self, key: str) -> bool:
        return key in self._data

    def cached_keys(self) -> List[str]:
        return sorted(self._data)

    def evict(self, key: str) -> bool:
        removed = self._data.pop(key, None) is not None
        if removed:
            self.kvs.cache_index.remove_entry(self.cache_id, key)
        return removed

    def clear(self) -> None:
        self.settle_prefetch_accounting()
        for key in list(self._data):
            self.kvs.cache_index.remove_entry(self.cache_id, key)
        self._data.clear()
        self._snapshots.clear()
        self._snapshot_keys_by_execution.clear()

    def close(self) -> None:
        """Tear the cache down when its VM leaves the cluster (scale-down).

        Deregisters the Anna update listener (so a drained VM stops receiving
        pushes), drops this cache's entries from the key-to-cache index,
        removes it from the shared peer registry so no in-flight session
        tries to fetch snapshots from it, and frees local state.  Idempotent;
        ``stats`` survive for post-run reporting.
        """
        if self.closed:
            return
        self.settle_prefetch_accounting()
        self.closed = True
        self.kvs.unregister_update_listener(self.cache_id)
        if self._peers.get(self.cache_id) is self:
            self._peers.pop(self.cache_id)
        self._data.clear()
        self._snapshots.clear()
        self._snapshot_keys_by_execution.clear()

    def _store(self, key: str, value: Lattice) -> Lattice:
        existing = self._data.get(key)
        merged = value if existing is None else existing.merge(value)
        self._data[key] = merged
        # Keep the key-to-cache index's view of this cache reasonably fresh
        # (full snapshots still go out via publish_cached_keys).
        self.kvs.cache_index.add_entry(self.cache_id, key)
        return merged

    # -- freshness: keyset publication and update propagation (§4.2) ---------------
    def publish_cached_keys(self) -> None:
        """Periodically publish a snapshot of cached keys to Anna's index."""
        self.kvs.ingest_cached_keys(self.cache_id, self.cached_keys())

    def receive_update(self, key: str, value: Lattice) -> None:
        """Anna pushes an update for a key this cache holds; merge it in."""
        if self.closed:
            return
        if key in self._data:
            self._data[key] = self._data[key].merge(value)
            self.stats.update_pushes_received += 1

    # -- scheduler-driven reference prefetch (§4.2) ---------------------------------
    def prefetch(self, keys, now_ms: float,
                 epoch: Optional[str] = None) -> int:
        """Start background fetches for the scheduler's DAG-reference hints.

        The scheduler ships each placed function's ``CloudburstReference``
        keys to the chosen VM's cache at placement time; the cache starts
        asynchronous fetches so the invoke — which arrives one executor hop
        later — finds warm entries.  Like gossip and write-backs, prefetch is
        *background* traffic: it charges nothing to any request and bypasses
        the storage work queues (``kvs.peek``).  A read that arrives before
        the fetch's modelled completion time pays only the residual
        ``prefetch_wait``, never the full round trip.

        The completion time is the *deterministic mean* Anna round trip for
        the value's size — no RNG is drawn, so enabling prefetch perturbs no
        request's jitter stream.  Transfers serialize on the VM's ingress
        link (a monotone per-cache cursor): prefetching ten large arrays is
        bandwidth-bound exactly like fetching them on demand, so prefetch
        can hide round trips and scheduling hops but never invents ingress
        bandwidth.  The landing is also a real (background) engine event, so
        entries become locally visible at the right virtual time even if no
        read ever claims them.  Returns the number of fetches started.
        """
        if self.closed:
            return 0
        if epoch != self._prefetch_last_epoch:
            # The link cursor serialises transfers within one issuing
            # execution's placement burst; a new execution starts from its
            # own "link idle" state.  (Cross-execution link contention is
            # deliberately not modelled — see DESIGN.md DR-8.)
            self._prefetch_link_free_ms = now_ms
        self._prefetch_last_epoch = epoch
        started = 0
        cost = self.latency_model.cost("anna", "get")
        for key in dict.fromkeys(keys):
            if key in self._data or key in self._prefetch_inflight:
                continue
            value = self.kvs.peek(key)
            if value is None:
                continue
            transfer_start = max(now_ms, self._prefetch_link_free_ms)
            transfer_ms = cost.mean_ms(value.size_bytes()) - cost.base_ms
            self._prefetch_link_free_ms = transfer_start + transfer_ms
            ready_ms = transfer_start + cost.base_ms + transfer_ms
            self._prefetch_inflight[key] = (ready_ms, value, epoch)
            self.stats.prefetches_issued += 1
            started += 1
            if self.kvs.tracer is not None:
                self.kvs.tracer.record_background(
                    "prefetch", "cache", now_ms, ready_ms, self.cache_id, key=key)
            self.kvs.engine.at(ready_ms, lambda key=key: self._land_prefetch(key),
                               background=True)
        return started

    def _land_prefetch(self, key: str) -> None:
        """Engine event: a background fetch completes and enters the cache."""
        entry = self._prefetch_inflight.pop(key, None)
        if entry is None or self.closed:
            return  # already promoted by a read, or the VM left the cluster
        _ready_ms, value, _epoch = entry
        self._store(key, value)
        self._prefetched_unread.add(key)

    def _from_prefetch(self, key: str,
                       ctx: RequestContext) -> Optional[Lattice]:
        """Promote an in-flight prefetched value on first read, if any.

        A read that beats the modelled completion time is charged only the
        residual wait (``cache.prefetch_wait``) — the overlap between the
        background fetch and the executor hop is the §4.2 win.
        """
        entry = self._prefetch_inflight.pop(key, None)
        if entry is None:
            return None
        ready_ms, value, epoch = entry
        # Only the issuing execution pays the residual wait; an unrelated
        # reader observes the entry as already landed (cross-execution
        # contention is not modelled, see :meth:`prefetch`).
        if (epoch is not None and ctx.prefetch_epoch == epoch
                and ready_ms > ctx.clock.now_ms):
            ctx.charge("cache", "prefetch_wait", ready_ms - ctx.clock.now_ms)
        self.stats.prefetch_hits += 1
        return self._store(key, value)

    def _note_prefetch_hit(self, key: str) -> None:
        """Credit a read of a landed-but-unread prefetched entry."""
        if key in self._prefetched_unread:
            self._prefetched_unread.discard(key)
            self.stats.prefetch_hits += 1

    def settle_prefetch_accounting(self) -> int:
        """Count never-read prefetches as wasted and reset the tracking sets.

        Benchmarks call this at the end of a run so ``prefetch_hits`` /
        ``prefetch_wasted`` describe the whole run; it also runs on
        :meth:`clear` and :meth:`close`.  Returns the newly wasted count.
        """
        wasted = len(self._prefetch_inflight) + len(self._prefetched_unread)
        self.stats.prefetch_wasted += wasted
        self._prefetch_inflight.clear()
        self._prefetched_unread.clear()
        return wasted

    # -- version snapshots for the distributed-session protocols (§5.3) -------------
    def create_snapshot(self, execution_id: str, key: str, value: Lattice,
                        overwrite: bool = False) -> bool:
        """Pin the exact version returned to a DAG's first read of ``key``.

        ``overwrite`` replaces an existing snapshot; the session protocols use
        it when the DAG itself writes the key, so later functions see the
        DAG's most recent update rather than the originally pinned version.
        Returns whether a snapshot was pinned; the caller whose request pays
        for it charges ``cache.snapshot``.
        """
        snapshot_key = (execution_id, key)
        if snapshot_key in self._snapshots and not overwrite:
            return False
        self._snapshots[snapshot_key] = value
        self._snapshot_keys_by_execution.setdefault(execution_id, set()).add(key)
        self.stats.snapshots_created += 1
        return True

    def get_snapshot(self, execution_id: str, key: str) -> Optional[Lattice]:
        return self._snapshots.get((execution_id, key))

    def evict_snapshots(self, execution_id: str) -> int:
        """Called by the DAG sink on completion so snapshots can be reclaimed."""
        keys = self._snapshot_keys_by_execution.pop(execution_id, set())
        for key in keys:
            self._snapshots.pop((execution_id, key), None)
        return len(keys)

    def snapshot_count(self) -> int:
        return len(self._snapshots)

    def fetch_from_upstream(self, upstream_cache_id: str, execution_id: str, key: str,
                            ctx: RequestContext,
                            expected_version=None) -> Lattice:
        """Fetch the exact version snapshot held by an upstream cache.

        Used when the local copy's version does not satisfy the session's
        read-set or dependency constraints (Algorithm 1 line 5, Algorithm 2
        lines 8 and 14).  Costs one cache-to-cache network round trip.

        When ``expected_version`` is given and the pinned snapshot is gone,
        the fall-back to the upstream's live copy only succeeds if the live
        version still matches: with many sessions in flight on the same
        cache, the live copy may have been advanced by a *different* session,
        and silently returning it would break the exact-version guarantee.
        """
        upstream = self._peers.get(upstream_cache_id)
        if upstream is None:
            raise ConsistencyError(
                f"upstream cache {upstream_cache_id!r} is unknown to {self.cache_id!r}"
            )
        value = upstream.get_snapshot(execution_id, key)
        if value is None:
            value = upstream.get_local(key)
            if value is not None and expected_version is not None:
                from .serialization import LatticeEncapsulator

                if LatticeEncapsulator.version_of(value) != expected_version:
                    raise ConsistencyError(
                        f"upstream cache {upstream_cache_id!r} no longer holds the "
                        f"pinned version of {key!r} for execution {execution_id!r}"
                    )
        if value is None:
            raise ConsistencyError(
                f"upstream cache {upstream_cache_id!r} no longer holds {key!r} "
                f"for execution {execution_id!r}"
            )
        fetch_start = ctx.clock.now_ms
        self.latency_model.charge(ctx, "cache", "fetch_from_upstream",
                                  size_bytes=value.size_bytes())
        if ctx.span is not None:
            ctx.record_span("fetch_from_upstream", "cache", fetch_start,
                            node=self.cache_id, key=key,
                            upstream=upstream_cache_id)
        self.stats.upstream_fetches += 1
        # Cache the fetched version locally so repeated reads within this DAG hit.
        self._store(key, value)
        return value

    # -- bolt-on causal cut maintenance (§5.3) ----------------------------------------
    def ensure_causal_cut(self, lattices: List[Lattice],
                          ctx: RequestContext) -> None:
        """Make the local cache a causal cut that includes ``lattices``.

        For every dependency ``l -> k`` of the given causally wrapped values,
        the cache must hold a version of ``l`` that is concurrent with or
        newer than the dependency's vector clock; otherwise it fetches a fresh
        version from Anna.  This is the bolt-on causal consistency protocol
        ([9]) run at the cache layer.

        The traversal is a worklist with a visited set keyed by dependency
        name: chains of any depth are repaired and cyclic dependency graphs
        terminate.  Each round collects every demanded dependency across the
        batch and fetches them through :meth:`AnnaCluster.multi_get`, so
        dependency repair overlaps in virtual time exactly like the primary
        reads.  Dependencies that cannot be resolved from the KVS are counted
        in ``stats.causal_deps_unresolved`` instead of being dropped silently.
        """
        # Each round walks the dependency dicts themselves (immutable, in
        # insertion order): the order of ``needed`` is the order of the
        # KVS's latency draws.
        round_deps = [lattice.dependencies for lattice in lattices
                      if isinstance(lattice, CausalLattice)]
        visited: Set[str] = set()
        while round_deps:
            needed: List[str] = []
            for dependencies in round_deps:
                for dep_key, dep_clock in dependencies.items():
                    if dep_key in visited:
                        continue
                    visited.add(dep_key)
                    local = self._data.get(dep_key)
                    if isinstance(local, CausalLattice):
                        # Concurrent-or-newer: anything but strictly older
                        # (usually the very clock object the value recorded).
                        local_clock = local.vector_clock
                        if local_clock is dep_clock or \
                                not dep_clock.dominates(local_clock):
                            continue
                    needed.append(dep_key)
            round_deps = []
            if not needed:
                break
            fetched = self.kvs.multi_get(needed, ctx)
            for dep_key in needed:
                value = fetched.get(dep_key)
                if value is None:
                    self.stats.causal_deps_unresolved += 1
                    continue
                self.stats.causal_dep_fetches += 1
                self._store(dep_key, value)
                if isinstance(value, CausalLattice):
                    round_deps.append(value.dependencies)

    def violates_causal_cut(self) -> List[Tuple[str, str]]:
        """Pairs (key, dependency) where the cut property does not hold.

        Used by tests and by the anomaly accounting: an empty list means the
        cache currently stores a causal cut.  A causal cut requires *every*
        dependency to be present at a concurrent-or-newer version, so a
        missing dependency (or one held without version metadata) is a
        violation — the old code skipped those pairs, reporting holes in the
        cut as if the property held.
        """
        violations: List[Tuple[str, str]] = []
        for key, lattice in self._data.items():
            if not isinstance(lattice, CausalLattice):
                continue
            for dep_key, dep_clock in lattice.dependencies.items():
                local = self._data.get(dep_key)
                if local is None or not isinstance(local, CausalLattice):
                    violations.append((key, dep_key))
                    continue
                local_clock = local.vector_clock
                if not (local_clock is dep_clock
                        or not dep_clock.dominates(local_clock)):
                    violations.append((key, dep_key))
        return violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutorCache({self.cache_id!r}, keys={len(self._data)})"
