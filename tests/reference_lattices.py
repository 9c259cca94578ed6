"""The slow implementations the DR-11 fast paths replaced, kept as references.

The vector-clock and causal-lattice joins now return an operand whenever the
result is value-equal to it, dominance is one pass, "concurrent or newer" is
``local is dep or not dep.dominates(local)``, and sizes are carried through
``merge``.  All of that is host-only: results, dependency order, sizes and
the seeded virtual timeline must be exactly what these bodies — copied from
the parent commit — produce.  ``tests/property/test_merge_fast_paths.py`` compares value by value;
``tests/integration/test_host_only_fast_paths.py`` patches them in with
:func:`patch_in` and compares a whole seeded run.
"""

from typing import List, Set, Tuple

from repro.cloudburst import ConsistencyLevel, ExecutorCache
from repro.cloudburst.consistency import protocols
from repro.cloudburst.consistency.protocols import DependencyEntry
from repro.lattices import CausalLattice, VectorClock


# -- lattices ----------------------------------------------------------------
def clock_merge(self: VectorClock, other: VectorClock) -> VectorClock:
    """``VectorClock.merge``: a fresh clock unless an operand is empty."""
    other = self._check_type(other)
    if len(other) == 0:
        return self
    if len(self) == 0:
        return other
    merged = self.reveal()
    for node, clock in other._entries.items():
        if merged.get(node, 0) < clock:
            merged[node] = clock
    return VectorClock(merged)


def dominates(self: VectorClock, other: VectorClock) -> bool:
    """``VectorClock.dominates``: the two-expression form."""
    at_least_equal = all(self._entries.get(node, 0) >= clock
                         for node, clock in other._entries.items())
    strictly_greater = any(
        self._entries.get(node, 0) > other._entries.get(node, 0)
        for node in set(self.reveal()) | set(other.reveal()))
    return at_least_equal and strictly_greater


def causal_merge(self: CausalLattice, other: CausalLattice) -> CausalLattice:
    """``CausalLattice.merge``: always through the constructor and ``_prune``."""
    other = self._check_type(other)
    merged_deps = dict(self.dependencies)
    for key, clock in other.dependencies.items():
        merged_deps[key] = (clock_merge(merged_deps[key], clock)
                            if key in merged_deps else clock)
    return CausalLattice(dependencies=merged_deps,
                         siblings=list(self._siblings) + list(other._siblings))


# -- the old spellings of "concurrent or newer" (three sites, two forms) --------
def _concurrent(a: VectorClock, b: VectorClock) -> bool:
    return a != b and not dominates(a, b) and not dominates(b, a)


def cut_holds(local: VectorClock, dep: VectorClock) -> bool:
    """``ensure_causal_cut`` and (negated) ``violates_causal_cut``:
    dominates_or_equal(dep) or concurrent_with(dep)."""
    return (local == dep or dominates(local, dep)) or _concurrent(local, dep)


def causally_valid(cache_version, required) -> bool:
    """``protocols._causally_valid``: the three-way ``or``."""
    if cache_version is None:
        return False
    if not isinstance(cache_version, VectorClock) or not isinstance(required, VectorClock):
        return cache_version == required
    return (cache_version == required
            or dominates(cache_version, required)
            or _concurrent(cache_version, required))


# -- the callers that were rewritten around them --------------------------------
def track_dependencies(state, cache, value) -> None:
    """``ConsistencyProtocol._track_dependencies``: merge + fresh entry per dep."""
    for dep_key, dep_clock in value.dependencies.items():
        existing = state.dependencies.get(dep_key)
        merged_clock = dep_clock if existing is None else existing.clock.merge(dep_clock)
        state.dependencies[dep_key] = DependencyEntry(dep_key, merged_clock,
                                                      cache.cache_id)


def session_metadata_bytes(state) -> int:
    """``SessionState.metadata_bytes`` before DR-14: every key re-encoded and
    every clock re-asked at each hop, nothing kept on the entries."""
    if not state.level.ships_read_set:
        return 0
    total = 0
    for entry in state.read_set.values():
        total += len(entry.key.encode("utf-8")) + 16
        if isinstance(entry.version, VectorClock):
            total += entry.version.size_bytes()
        else:
            total += 8
    if state.level == ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL:
        for dep in state.dependencies.values():
            total += len(dep.key.encode("utf-8")) + 16 + dep.clock.size_bytes()
    return total


def ensure_causal_cut(self: ExecutorCache, lattices, ctx=None) -> None:
    """``ExecutorCache.ensure_causal_cut``: the copied ``(key, clock)`` worklist."""
    worklist: List[Tuple[str, object]] = []
    for lattice in lattices:
        if isinstance(lattice, CausalLattice):
            worklist.extend(lattice.dependencies.items())
    visited: Set[str] = set()
    while worklist:
        needed: List[str] = []
        for dep_key, dep_clock in worklist:
            if dep_key in visited:
                continue
            visited.add(dep_key)
            local = self._data.get(dep_key)
            if local is not None and isinstance(local, CausalLattice):
                if cut_holds(local.vector_clock, dep_clock):
                    continue
            needed.append(dep_key)
        worklist = []
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
                worklist.extend(value.dependencies.items())


def patch_in(monkeypatch) -> None:
    """Run the system on the reference implementations until the test ends."""
    monkeypatch.setattr(VectorClock, "merge", clock_merge)
    monkeypatch.setattr(VectorClock, "dominates", dominates)
    monkeypatch.setattr(CausalLattice, "merge", causal_merge)
    monkeypatch.setattr(protocols, "_causally_valid", causally_valid)
    monkeypatch.setattr(protocols.ConsistencyProtocol, "_track_dependencies",
                        staticmethod(track_dependencies))
    monkeypatch.setattr(ExecutorCache, "ensure_causal_cut", ensure_causal_cut)
    monkeypatch.setattr(protocols.SessionState, "metadata_bytes", session_metadata_bytes)
