"""Distributed session consistency protocols (§5.3).

A DAG ("session") may execute its functions on different executor VMs, each
with its own cache.  These protocols guarantee that the reads and writes of
the whole session observe the chosen consistency level even though they hit
different caches:

* :class:`RepeatableReadProtocol` implements Algorithm 1: the cache pins a
  version snapshot on a DAG's first read of each key; downstream executors
  ship the read-set metadata and fetch the exact snapshot from the upstream
  cache whenever their local copy has a different version.
* :class:`DistributedSessionCausalProtocol` implements Algorithm 2: in
  addition to the read set, executors ship the causal dependency set of all
  keys read so far; downstream caches serve a local version only if it is
  concurrent with or newer than the shipped version, otherwise they fetch the
  snapshot from upstream.  Caches maintain causal cuts via the bolt-on
  protocol.
* :class:`SingleKeyCausalProtocol` and :class:`MultiKeyCausalProtocol` are the
  weaker levels measured in §6.2 for comparison.
* :class:`LWWProtocol` is the last-writer-wins default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Set

from ...errors import ConsistencyError, KeyNotFoundError
from ...lattices import CausalLattice, Lattice, VectorClock
from ...sim import RequestContext
from ..cache import ExecutorCache
from ..serialization import LatticeEncapsulator
from .levels import ConsistencyLevel


@dataclass
class ReadSetEntry:
    """One key the session has read: its pinned version and snapshot holder."""

    key: str
    version: Any  # Timestamp (LWW/RR) or VectorClock (causal levels)
    cache_id: str
    #: :func:`_shipped_bytes`, set on the instance once asked (the entry is
    #: never changed).  Not a field: a session that never leaves its first
    #: executor never asks, and its entries are built without it.
    _shipped: ClassVar[Optional[int]] = None


@dataclass
class DependencyEntry:
    """One causal dependency shipped down the DAG (Algorithm 2)."""

    key: str
    clock: VectorClock
    cache_id: str
    #: As on :class:`ReadSetEntry`; whoever replaces ``clock`` resets it.
    _shipped: ClassVar[Optional[int]] = None


def _shipped_bytes(entry, version) -> int:
    """Bytes ``entry`` adds to the metadata shipped downstream, remembered on
    it: the walk below runs at every hop, over mostly the same entries."""
    size = entry._shipped
    if size is None:
        size = entry._shipped = len(entry.key.encode("utf-8")) + 16 + (
            version.size_bytes() if isinstance(version, VectorClock) else 8)
    return size


@dataclass
class SessionState:
    """Consistency metadata carried along a DAG execution.

    ``execution_id`` is the journal's id of the attempt this state belongs to
    (its ``begin`` event, :func:`~repro.cloudburst.journal.advance`);
    ``protocol`` is the attempt's: every read and write goes through it, and
    it closes the attempt (:meth:`ConsistencyProtocol.finalize`).
    """

    execution_id: str
    protocol: "ConsistencyProtocol" = field(compare=False)
    read_set: Dict[str, ReadSetEntry] = field(default_factory=dict)
    dependencies: Dict[str, DependencyEntry] = field(default_factory=dict)
    caches_involved: Set[str] = field(default_factory=set)
    reads: int = 0
    writes: int = 0
    upstream_fetches: int = 0

    @property
    def level(self) -> ConsistencyLevel:
        return self.protocol.level

    def metadata_bytes(self) -> int:
        """Approximate size of the metadata shipped to a downstream executor.

        Repeatable read ships only the read-set versions; the distributed
        session causal level additionally ships the dependency set, which is
        what makes its tail latency higher (§6.2.1).
        """
        if not self.level.ships_read_set:
            return 0
        total = sum(_shipped_bytes(entry, entry.version)
                    for entry in self.read_set.values())
        if self.level == ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL:
            total += sum(_shipped_bytes(dep, dep.clock)
                         for dep in self.dependencies.values())
        return total


class ConsistencyProtocol:
    """Base class: how a session reads and writes keys through a cache.

    Every read is a :meth:`read_many`; :meth:`read` is the batch of one.
    """

    level = ConsistencyLevel.LWW

    def read(self, cache: ExecutorCache, key: str, ctx: RequestContext,
             state: SessionState) -> Lattice:
        """Read one key; raises :class:`KeyNotFoundError` when it is absent."""
        found = self.read_many(cache, (key,), ctx, state)
        if key not in found:
            raise KeyNotFoundError(key)
        return found[key]

    def read_many(self, cache: ExecutorCache, keys,
                  ctx: RequestContext,
                  state: SessionState) -> Dict[str, Lattice]:
        """Read a batch of keys; missing keys are omitted from the result."""
        raise NotImplementedError

    def write(self, cache: ExecutorCache, key: str, lattice: Lattice,
              ctx: RequestContext, state: SessionState) -> Lattice:
        raise NotImplementedError

    def finalize(self, state: SessionState, caches: Dict[str, ExecutorCache],
                 completed: bool) -> None:
        """Close an attempt, ``completed`` or abandoned: evict its snapshots."""
        for cache_id in state.caches_involved:
            cache = caches.get(cache_id)
            if cache is not None:
                cache.evict_snapshots(state.execution_id)

    # -- shared helpers ------------------------------------------------------------
    @staticmethod
    def _pin_version(state: SessionState, cache: ExecutorCache, key: str,
                     value: Lattice) -> None:
        """Record the version of ``key`` the session now holds on ``cache``."""
        state.caches_involved.add(cache.cache_id)
        state.read_set[key] = ReadSetEntry(
            key, LatticeEncapsulator.version_of(value), cache.cache_id)

    @staticmethod
    def _track_dependencies(state: SessionState, cache: ExecutorCache,
                            value: CausalLattice) -> None:
        """Merge a causally wrapped value's dependency set into the session's.

        The session owns its entries, so a known dependency is updated in
        place; ``cache_id`` is always rewritten — it names the upstream a
        later constrained read fetches from.
        """
        dependencies = state.dependencies
        cache_id = cache.cache_id
        for dep_key, dep_clock in value.dependencies.items():
            existing = dependencies.get(dep_key)
            if existing is None:
                dependencies[dep_key] = DependencyEntry(dep_key, dep_clock, cache_id)
                continue
            if existing.clock is not dep_clock:
                existing.clock = existing.clock.merge(dep_clock)
                existing._shipped = None
            existing.cache_id = cache_id


class LWWProtocol(ConsistencyProtocol):
    """Last-writer-wins: plain cache reads and writes, no session metadata.

    No causal cut is maintained at this level, so reads never repair one.
    """

    level = ConsistencyLevel.LWW

    def read_many(self, cache, keys, ctx, state):
        found = {key: value for key, value
                 in cache.multi_get(keys, ctx, repair_cut=False).items()
                 if value is not None}
        if found:
            state.reads += len(found)
            state.caches_involved.add(cache.cache_id)
        return found

    def write(self, cache, key, lattice, ctx, state):
        state.writes += 1
        state.caches_involved.add(cache.cache_id)
        return cache.put(key, lattice, ctx)


class RepeatableReadProtocol(ConsistencyProtocol):
    """Algorithm 1: distributed session repeatable read."""

    level = ConsistencyLevel.DISTRIBUTED_SESSION_RR

    def read_many(self, cache, keys, ctx, state):
        """One key at a time: each read pins, or must match, its own version."""
        found = {}
        for key in dict.fromkeys(keys):
            entry = state.read_set.get(key)
            try:
                if entry is None:
                    # First read of this key in the DAG: any available
                    # version is fine (Algorithm 1, line 9); pin it as the
                    # session's snapshot.
                    value = cache.get_or_fetch(key, ctx)
                    if cache.create_snapshot(state.execution_id, key, value):
                        cache.latency_model.charge(ctx, "cache", "snapshot")
                    self._pin_version(state, cache, key, value)
                else:
                    value = self._read_pinned(cache, entry, ctx, state)
                    # The local cache now also holds the snapshot for later
                    # functions.
                    cache.create_snapshot(state.execution_id, key, value)
                    state.caches_involved.add(cache.cache_id)
            except KeyNotFoundError:
                continue
            state.reads += 1
            found[key] = value
        return found

    @staticmethod
    def _read_pinned(cache, entry: ReadSetEntry, ctx, state) -> Lattice:
        """Serve the exact version the session pinned (Algorithm 1, line 5)."""
        key = entry.key
        cache_version = cache.get_metadata(key)
        if cache_version is not None and cache_version == entry.version:
            return cache.get_or_fetch(key, ctx)
        # Version mismatch: query the upstream cache that pinned the snapshot.
        # ``expected_version`` keeps the exact-version guarantee honest under
        # concurrency: if the snapshot is gone, the upstream's live copy is
        # only accepted when another session has not advanced it.
        state.upstream_fetches += 1
        try:
            return cache.fetch_from_upstream(
                entry.cache_id, state.execution_id, key, ctx,
                expected_version=entry.version)
        except ConsistencyError:
            # The upstream cache was drained (scale-down) or no longer holds
            # the pinned version.  The local cache re-pins every constrained
            # read, so its own snapshot — the exact version — usually
            # survives; only fall back to a live read when that is gone too,
            # rather than failing the whole session mid-flight.
            value = cache.get_snapshot(state.execution_id, key)
            return value if value is not None else cache.get_or_fetch(key, ctx)

    def write(self, cache, key, lattice, ctx, state):
        merged = cache.put(key, lattice, ctx)
        # Later reads in the DAG must see this update (the RR invariant).
        cache.create_snapshot(state.execution_id, key, merged, overwrite=True)
        state.writes += 1
        self._pin_version(state, cache, key, merged)
        return merged


class SingleKeyCausalProtocol(LWWProtocol):
    """Causal ordering per key (vector clocks), no cross-key dependencies.

    The per-key ordering lives in the lattice merge; the session protocol is
    LWW's.
    """

    level = ConsistencyLevel.SINGLE_KEY_CAUSAL


class MultiKeyCausalProtocol(ConsistencyProtocol):
    """Bolt-on causal consistency within each cache (no cross-cache session)."""

    level = ConsistencyLevel.MULTI_KEY_CAUSAL

    def read_many(self, cache, keys, ctx, state):
        # multi_get maintains the causal-cut property of the local cache ([9]).
        found = {}
        for key, value in cache.multi_get(keys, ctx).items():
            if value is None:
                continue
            state.reads += 1
            state.caches_involved.add(cache.cache_id)
            if isinstance(value, CausalLattice):
                self._pin_version(state, cache, key, value)
                self._track_dependencies(state, cache, value)
            found[key] = value
        return found

    def write(self, cache, key, lattice, ctx, state):
        merged = cache.put(key, lattice, ctx)
        state.writes += 1
        self._pin_version(state, cache, key, merged)
        return merged


class DistributedSessionCausalProtocol(ConsistencyProtocol):
    """Algorithm 2: causal consistency across every cache a DAG touches."""

    level = ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL

    def read_many(self, cache, keys, ctx, state):
        """Session read: unconstrained keys in one overlapped batch.

        Keys the session already constrains (read earlier in the DAG or
        present in the shipped dependency set) take the one-at-a-time
        Algorithm 2 path — each needs its own upstream-version resolution.
        Everything else goes through :meth:`ExecutorCache.multi_get`, whose
        causal-cut repair covers the whole batch.  The batch is read as of
        one logical instant: a dependency *discovered inside it* does not
        retroactively constrain its fellow batch members (they were already
        on the wire), which is exactly the semantics of the paper's
        asynchronous reference fetches.
        """
        unique = list(dict.fromkeys(keys))
        unconstrained = [key for key in unique
                         if key not in state.read_set
                         and key not in state.dependencies]
        batch = cache.multi_get(unconstrained, ctx) if unconstrained else {}
        found = {}
        for key in unique:
            if key in batch:
                value = batch[key]
                if value is None:
                    continue
            else:
                try:
                    value = self._read_constrained(cache, key, ctx, state)
                except KeyNotFoundError:
                    continue
            cache.create_snapshot(state.execution_id, key, value)
            state.reads += 1
            self._pin_version(state, cache, key, value)
            if isinstance(value, CausalLattice):
                self._track_dependencies(state, cache, value)
            found[key] = value
        return found

    @staticmethod
    def _read_constrained(cache: ExecutorCache, key: str, ctx,
                          state: SessionState) -> Lattice:
        """Lines 2-14 of Algorithm 2: serve locally only if causally valid.

        The session constrains valid versions of ``key``: it must be
        concurrent with or newer than both the version read earlier in the
        DAG and any version the read set causally depends on.  These reads
        never repair the cut — the version is dictated by the session.
        """
        required = None
        upstream_cache_id = cache.cache_id
        if key in state.read_set:
            entry = state.read_set[key]
            required = entry.version
            upstream_cache_id = entry.cache_id
        if key in state.dependencies:
            dep = state.dependencies[key]
            if required is None:
                required, upstream_cache_id = dep.clock, dep.cache_id
            elif isinstance(required, VectorClock) and isinstance(dep.clock, VectorClock):
                required = required.merge(dep.clock)
        if _causally_valid(cache.get_metadata(key), required):
            return cache.get_or_fetch(key, ctx)
        state.upstream_fetches += 1
        value: Optional[Lattice] = None
        try:
            value = cache.fetch_from_upstream(upstream_cache_id, state.execution_id,
                                              key, ctx)
        except ConsistencyError:
            # The upstream cache never held this key (the constraint came from
            # a shipped dependency rather than a read snapshot).
            value = None
        if value is not None and _causally_valid(
                LatticeEncapsulator.version_of(value), required):
            return value
        # Neither the local cache nor the upstream snapshot satisfies the
        # constraint (e.g. the constraint came from a freshly shipped
        # dependency); fall back to the KVS, which holds the merged truth.
        fresh = cache.kvs.get_or_none(key, ctx)
        if fresh is not None:
            cache.receive_update(key, fresh)
            local = cache.get_local(key)
            if local is None:
                local = cache.get_or_fetch(key, ctx)
            return local
        if value is not None:
            return value
        return cache.get_or_fetch(key, ctx)

    def write(self, cache, key, lattice, ctx, state):
        merged = cache.put(key, lattice, ctx)
        cache.create_snapshot(state.execution_id, key, merged, overwrite=True)
        state.writes += 1
        self._pin_version(state, cache, key, merged)
        return merged


def _causally_valid(cache_version, required) -> bool:
    """True when a locally cached version may be served (Algorithm 2's valid()).

    The local version must be concurrent with or dominate the version required
    by the session (the snapshot read upstream or a shipped dependency) —
    of the four clock relations only "older" fails.
    """
    if cache_version is None:
        return False
    if not isinstance(cache_version, VectorClock) or not isinstance(required, VectorClock):
        return cache_version == required
    return cache_version is required or not required.dominates(cache_version)


class ObservingProtocol(ConsistencyProtocol):
    """Decorator protocol that reports reads and writes to an anomaly tracker.

    Used by the Table 2 experiment: the system runs under one level (usually
    LWW) while the tracker records what stricter levels would have flagged.
    """

    def __init__(self, inner: ConsistencyProtocol, tracker) -> None:
        self.inner = inner
        self.tracker = tracker
        self.level = inner.level

    def read_many(self, cache, keys, ctx, state):
        found = self.inner.read_many(cache, keys, ctx, state)
        for key, value in found.items():
            self.tracker.observe_read(state.execution_id, cache.cache_id, key, value)
        return found

    def write(self, cache, key, lattice, ctx, state):
        merged = self.inner.write(cache, key, lattice, ctx, state)
        self.tracker.observe_write(state.execution_id, cache.cache_id, key, lattice)
        return merged

    def finalize(self, state, caches, completed):
        self.inner.finalize(state, caches, completed)
        if completed:
            self.tracker.complete_execution(state.execution_id)
        else:
            self.tracker.abandon_execution(state.execution_id)


_PROTOCOLS = {
    ConsistencyLevel.LWW: LWWProtocol,
    ConsistencyLevel.DISTRIBUTED_SESSION_RR: RepeatableReadProtocol,
    ConsistencyLevel.SINGLE_KEY_CAUSAL: SingleKeyCausalProtocol,
    ConsistencyLevel.MULTI_KEY_CAUSAL: MultiKeyCausalProtocol,
    ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL: DistributedSessionCausalProtocol,
}


def make_protocol(level: ConsistencyLevel) -> ConsistencyProtocol:
    """Instantiate the protocol object for a consistency level."""
    try:
        return _PROTOCOLS[level]()
    except KeyError:
        raise ValueError(f"no protocol registered for {level!r}") from None
