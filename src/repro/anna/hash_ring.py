"""Consistent hashing ring used to partition Anna's key space.

Anna partitions keys across storage nodes with consistent hashing so nodes
can join and leave (the storage tier autoscales) while moving only a small
fraction of the key space.  Virtual nodes smooth out the load distribution.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple


def stable_hash(value: str) -> int:
    """A deterministic 64-bit hash (Python's builtin ``hash`` is salted)."""
    digest = hashlib.md5(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring with virtual nodes."""

    def __init__(self, virtual_nodes: int = 64):
        if virtual_nodes <= 0:
            raise ValueError("virtual_nodes must be positive")
        self.virtual_nodes = virtual_nodes
        self._ring: List[int] = []
        self._owners: Dict[int, str] = {}
        self._members: Dict[str, List[int]] = {}
        #: ``(key, count) -> owners`` for the current membership.
        self._owners_memo: Dict[Tuple[str, int], Tuple[str, ...]] = {}

    # -- membership ---------------------------------------------------------
    def add_node(self, node_id: str) -> None:
        if node_id in self._members:
            raise ValueError(f"node already on ring: {node_id!r}")
        self._owners_memo.clear()
        points = []
        for replica in range(self.virtual_nodes):
            point = stable_hash(f"{node_id}#{replica}")
            # Extremely unlikely collision: probe linearly until free.
            while point in self._owners:
                point = (point + 1) % (1 << 64)
            self._owners[point] = node_id
            bisect.insort(self._ring, point)
            points.append(point)
        self._members[node_id] = points

    def remove_node(self, node_id: str) -> None:
        points = self._members.pop(node_id, None)
        if points is None:
            raise KeyError(f"node not on ring: {node_id!r}")
        self._owners_memo.clear()
        for point in points:
            del self._owners[point]
            index = bisect.bisect_left(self._ring, point)
            self._ring.pop(index)

    @property
    def nodes(self) -> List[str]:
        return sorted(self._members)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    # -- lookups ---------------------------------------------------------------
    def owners(self, key: str, count: int = 1) -> List[str]:
        """Return the ``count`` distinct nodes responsible for ``key``.

        The first element is the primary replica; the rest are the successors
        on the ring (Anna's replication scheme for k-fault tolerance).

        Every Anna operation asks this, so the answer is remembered until the
        membership next changes (the caller gets its own list each time).  The
        memo holds one entry per distinct ``(key, count)`` asked about, which
        is bounded by the keys the store has ever been asked for.
        """
        memo_key = (key, count)
        found = self._owners_memo.get(memo_key)
        if found is None:
            found = self._owners_memo[memo_key] = tuple(self._walk(key, count))
        return list(found)

    def _walk(self, key: str, count: int) -> List[str]:
        if not self._members:
            raise ValueError("hash ring has no nodes")
        count = min(count, len(self._members))
        point = stable_hash(key)
        start = bisect.bisect_right(self._ring, point) % len(self._ring)
        found: List[str] = []
        index = start
        while len(found) < count:
            owner = self._owners[self._ring[index]]
            if owner not in found:
                found.append(owner)
            index = (index + 1) % len(self._ring)
            if index == start:
                break
        return found

    def primary(self, key: str) -> str:
        return self.owners(key, 1)[0]

    def owned_by(self, keys: Sequence[str], node_id: str, count: int = 1) -> List[str]:
        """The subset of ``keys`` whose ``count``-way replica set includes ``node_id``.

        Used by the cluster's rebalance path after membership changes: only
        the keys that actually moved onto a node need their lattice state
        copied there, not the whole key space.
        """
        if node_id not in self._members:
            raise KeyError(f"node not on ring: {node_id!r}")
        return [key for key in keys if node_id in self.owners(key, count)]
