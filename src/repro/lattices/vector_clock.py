"""Vector clocks.

Cloudburst's causal mode versions each key with a vector clock: a set of
``(executor id, logical clock)`` pairs (§5.2).  Merge takes the pairwise
maximum.  Two clocks are comparable when one dominates the other (greater or
equal in every entry and strictly greater in at least one); otherwise they are
concurrent.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from .base import Lattice


class VectorClock(Lattice):
    """An immutable vector clock mapping node ids to logical clock values.

    Causal-mode runs create and merge these at every read and write, which
    made clock construction/merge the top of the fig12 profile.  Hence the
    internal fast paths: a trusted constructor for entries that are already
    validated (merge/increment outputs can only contain positive ints);
    ``merge`` returns an operand whenever the join is value-equal to it
    (same object, empty operand, nothing raised, or everything raised to the
    other side — safe because clocks are immutable) and allocates only when
    an entry is actually raised; ``dominates`` is one pass over the other
    clock's entries with a length check first; and the derived quantities
    (``size_bytes``, the sorted identity tuple) are computed once per
    instance.
    """

    __slots__ = ("_entries", "_size", "_ident")

    def __init__(self, entries: Mapping[str, int] = None):
        cleaned: Dict[str, int] = {}
        for node, clock in dict(entries or {}).items():
            clock = int(clock)
            if clock < 0:
                raise ValueError(f"vector clock entries must be non-negative, got {clock}")
            if clock > 0:
                cleaned[str(node)] = clock
        self._entries = cleaned
        self._size = None
        self._ident = None

    @classmethod
    def _trusted(cls, entries: Dict[str, int]) -> "VectorClock":
        """Wrap an already-validated entry dict without copying it.

        Only for internal callers that guarantee string keys and positive int
        values; the dict must not be mutated after being handed over.
        """
        clock = object.__new__(cls)
        clock._entries = entries
        clock._size = None
        clock._ident = None
        return clock

    # -- lattice interface -------------------------------------------------
    def merge(self, other: "VectorClock") -> "VectorClock":
        if other is self:
            return self
        other = self._check_type(other)
        mine = self._entries
        theirs = other._entries
        # Merging with an empty clock is the common case on first writes;
        # immutability makes returning the non-empty operand safe.
        if not theirs:
            return self
        if not mine:
            return other
        # Almost every join in a causal run is value-equal to an operand, so
        # the merged dict is allocated only once an entry is actually raised.
        merged = None
        covers_mine = True  # theirs >= mine on every node theirs names
        get = mine.get
        for node, clock in theirs.items():
            held = get(node, 0)
            if held < clock:
                if merged is None:
                    merged = dict(mine)
                merged[node] = clock
            elif held > clock:
                covers_mine = False
        if merged is None:
            return self
        if covers_mine and len(merged) == len(theirs):
            return other
        return VectorClock._trusted(merged)

    def reveal(self) -> Dict[str, int]:
        return dict(self._entries)

    # -- ordering ------------------------------------------------------------
    def increment(self, node_id: str) -> "VectorClock":
        node_id = str(node_id)
        entries = dict(self._entries)
        entries[node_id] = entries.get(node_id, 0) + 1
        return VectorClock._trusted(entries)

    def dominates(self, other: "VectorClock") -> bool:
        """True when ``self`` >= ``other`` in every entry and > in at least one."""
        mine = self._entries
        theirs = other._entries
        # Entries are strictly positive, so a longer clock names a node the
        # shorter one lacks: it cannot be dominated, and a shorter clock
        # whose every entry is matched is strictly below.
        if len(theirs) > len(mine):
            return False
        strictly_greater = len(mine) > len(theirs)
        get = mine.get
        for node, clock in theirs.items():
            held = get(node, 0)
            if held < clock:
                return False
            if held > clock:
                strictly_greater = True
        return strictly_greater

    def happened_before(self, other: "VectorClock") -> bool:
        """True when ``self`` -> ``other`` in Lamport's happens-before order."""
        return other.dominates(self)

    # -- sizing ----------------------------------------------------------------
    def size_bytes(self) -> int:
        # Each entry is a node-id string plus an 8-byte counter.
        size = self._size
        if size is None:
            size = self._size = sum(
                len(node.encode("utf-8")) + 8 for node in self._entries)
        return size

    def _identity(self) -> Tuple[Tuple[str, int], ...]:
        ident = self._ident
        if ident is None:
            ident = self._ident = tuple(sorted(self._entries.items()))
        return ident

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{node}:{clock}" for node, clock in sorted(self._entries.items()))
        return f"VectorClock({{{inner}}})"
