"""Causal lattice: vector clock + dependency set + value (§5.2).

In causal-consistency mode, Cloudburst encapsulates each key ``k`` in the
composition of

* an Anna-provided :class:`~repro.lattices.vector_clock.VectorClock`
  identifying ``k``'s version,
* a *dependency set* mapping each key version that ``k`` causally depends on
  to its vector clock, and
* the value itself.

Merge keeps the version whose vector clock dominates; concurrent versions are
both retained.  Internally the lattice is a *multi-value register*: an
antichain of ``(vector clock, value)`` siblings.  Merge unions the siblings
and discards any sibling dominated by another — this construction is
associative, commutative and idempotent (property-tested), which is exactly
the contract Anna requires.  The user-visible ``reveal`` presents one version
chosen by a deterministic tie break; all concurrent versions remain available
to the consistency protocols and to applications that resolve conflicts
manually.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from .base import Lattice, estimate_size
from .vector_clock import VectorClock

#: One concurrent version of a key: (vector clock, payload).
Sibling = Tuple[VectorClock, Any]


class CausalLattice(Lattice):
    """A causally versioned value (multi-value register plus dependency set).

    ``dependencies`` is insertion-ordered and never mutated after
    construction (lattices may share one dict).  The order is part of the
    simulated timeline: the cache's cut repair walks it to build the key list
    of its KVS ``multi_get``, which is the order of the latency model's
    random draws.  A join therefore keeps "mine, in my order, then the other
    side's new keys in its order", and :meth:`merge` returns ``self`` when
    nothing changed but never ``other`` merely because it is value-equal
    (equality sorts the dependencies, iteration does not).
    """

    __slots__ = ("dependencies", "_siblings", "_clock", "_meta_bytes",
                 "_total_bytes")

    def __init__(self, vector_clock: Optional[VectorClock] = None, value: Any = None,
                 dependencies: Optional[Mapping[str, VectorClock]] = None,
                 siblings: Optional[Iterable[Sibling]] = None):
        self.dependencies: Dict[str, VectorClock] = dict(dependencies or {})
        if siblings is not None:
            candidate = list(siblings)
        else:
            candidate = [(vector_clock or VectorClock(), value)]
        self._siblings: Tuple[Sibling, ...] = _prune(candidate)
        # Derived quantities, computed on first use (merge's fast path fills
        # them in from its operands).  Safe to cache: the lattice is
        # immutable (no API, merge included, writes to an existing
        # instance) and nothing may mutate ``dependencies`` in place.  The
        # causal protocols consult vector_clock/metadata_bytes/size_bytes on
        # every read, which made re-deriving them the single hottest path in
        # a fig12 profile.
        self._clock: Optional[VectorClock] = None
        self._meta_bytes: Optional[int] = None
        self._total_bytes: Optional[int] = None

    # -- lattice interface ---------------------------------------------------
    def merge(self, other: "CausalLattice") -> "CausalLattice":
        if other is self:
            return self
        other = self._check_type(other)
        # Dependencies: mine in my order, then the other side's new keys in
        # its order (see the class docstring); copied on the first change.
        mine = self.dependencies
        merged_deps = mine
        added_bytes = 0
        for key, clock in other.dependencies.items():
            existing = mine.get(key)
            if existing is clock:
                continue
            if existing is None:
                joined = clock
                added_bytes += len(key.encode("utf-8")) + clock.size_bytes()
            else:
                joined = existing.merge(clock)
                if joined is existing:
                    continue
                added_bytes += joined.size_bytes() - existing.size_bytes()
            if merged_deps is mine:
                merged_deps = dict(mine)
            merged_deps[key] = joined
        winner = self._sole_surviving_side(other)
        if winner is None:
            return CausalLattice(dependencies=merged_deps,
                                 siblings=self._siblings + other._siblings)
        if winner is self and merged_deps is mine:
            return self
        # (Returning ``other`` when it is value-equal would reorder the
        # dependency dict, so the join is built in my order instead.)
        winner_clock = winner._siblings[0][0]
        merged = object.__new__(CausalLattice)
        merged.dependencies = merged_deps
        merged._siblings = winner._siblings
        merged._clock = winner_clock
        # Sizes carry through instead of re-walking the payload: the winner's
        # clock and payload bytes as they are, my dependency bytes plus what
        # the loop above added or raised.
        my_deps_bytes = self.metadata_bytes() - self._siblings[0][0].size_bytes()
        merged._meta_bytes = winner_clock.size_bytes() + my_deps_bytes + added_bytes
        merged._total_bytes = merged._meta_bytes + (
            winner.size_bytes() - winner.metadata_bytes())
        return merged

    def _sole_surviving_side(self, other: "CausalLattice") -> Optional["CausalLattice"]:
        """The operand whose single version survives the join by itself.

        ``None`` sends :meth:`merge` to the general :func:`_prune` sweep:
        several siblings on either side, concurrent clocks, or equal clocks
        with unequal payloads (the tie break orders those by ``repr``).
        """
        if len(self._siblings) != 1 or len(other._siblings) != 1:
            return None
        (my_clock, my_value), (their_clock, their_value) = (
            self._siblings[0], other._siblings[0])
        if my_clock is their_clock or my_clock == their_clock:
            same = my_value is their_value or _values_equal(my_value, their_value)
            return self if same else None
        if my_clock.dominates(their_clock):
            return self
        if their_clock.dominates(my_clock):
            return other
        return None

    def reveal(self) -> Any:
        """Return one version via a deterministic tie break (§5.2)."""
        if len(self._siblings) == 1:
            return self._siblings[0][1]
        return min((value for _, value in self._siblings), key=_tie_break_key)

    # -- accessors -------------------------------------------------------------
    @property
    def vector_clock(self) -> VectorClock:
        """The key's version: the join of all concurrent siblings' clocks."""
        clock = self._clock
        if clock is None:
            siblings = self._siblings
            clock = siblings[0][0] if siblings else VectorClock()
            for sibling_clock, _ in siblings[1:]:
                clock = clock.merge(sibling_clock)
            self._clock = clock
        return clock

    @property
    def concurrent_values(self) -> Tuple[Any, ...]:
        """Every concurrent version retained by the lattice."""
        return tuple(value for _, value in self._siblings)

    @property
    def is_conflicted(self) -> bool:
        return len(self._siblings) > 1

    def metadata_bytes(self) -> int:
        """Size of the causal metadata (vector clocks + dependency set).

        This is the quantity reported in §6.2.1 (median 624 B, p99 7.1 KB in
        the paper's deployment).
        """
        meta = self._meta_bytes
        if meta is None:
            deps_bytes = sum(
                len(key.encode("utf-8")) + clock.size_bytes()
                for key, clock in self.dependencies.items()
            )
            clock_bytes = sum(clock.size_bytes() for clock, _ in self._siblings)
            meta = self._meta_bytes = clock_bytes + deps_bytes
        return meta

    def size_bytes(self) -> int:
        total = self._total_bytes
        if total is None:
            total = self._total_bytes = self.metadata_bytes() + sum(
                estimate_size(v) for _, v in self._siblings)
        return total

    def _identity(self) -> Any:
        return (
            tuple(sorted(self.dependencies.items())),
            tuple(sorted(((clock, _tie_break_key(value)) for clock, value in self._siblings),
                         key=lambda pair: (pair[0]._identity(), pair[1]))),
        )


def _prune(siblings: Iterable[Sibling]) -> Tuple[Sibling, ...]:
    """Reduce a set of versions to its antichain (drop dominated/duplicate ones)."""
    siblings = list(siblings)
    if len(siblings) == 1:
        # A single version is trivially an antichain; skip the domination
        # sweep and — more importantly — the repr-based tie-break sort key,
        # which is O(payload) and dominated causal writes of large values.
        return (siblings[0],)
    unique: list = []
    for clock, value in siblings:
        if not any(c == clock and _values_equal(v, value) for c, v in unique):
            unique.append((clock, value))
    kept = []
    for index, (clock, value) in enumerate(unique):
        dominated = False
        for other_index, (other_clock, other_value) in enumerate(unique):
            if index == other_index:
                continue
            if other_clock.dominates(clock):
                dominated = True
                break
            if other_clock == clock:
                # Same clock, different payload: keep only the deterministically
                # smallest payload (ties broken by list position).
                other_key, self_key = _tie_break_key(other_value), _tie_break_key(value)
                if other_key < self_key or (other_key == self_key and other_index < index):
                    dominated = True
                    break
        if not dominated:
            kept.append((clock, value))
    kept.sort(key=lambda pair: (pair[0]._identity(), _tie_break_key(pair[1])))
    return tuple(kept)


def _values_equal(a: Any, b: Any) -> bool:
    try:
        return bool(a == b)
    except Exception:  # e.g. numpy arrays with ambiguous truth values
        return a is b


def _tie_break_key(value: Any) -> str:
    """Arbitrary but deterministic ordering over opaque Python values."""
    return f"{type(value).__name__}:{value!r}"
