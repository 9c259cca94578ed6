"""Unit tests for the consistent-hash ring."""

from collections import Counter

import pytest

from repro.anna import HashRing, stable_hash


class TestStableHash:
    def test_is_deterministic(self):
        assert stable_hash("key") == stable_hash("key")

    def test_differs_between_keys(self):
        assert stable_hash("key-1") != stable_hash("key-2")


class TestHashRingMembership:
    def test_rejects_nonpositive_virtual_nodes(self):
        with pytest.raises(ValueError):
            HashRing(virtual_nodes=0)

    def test_add_and_contains(self):
        ring = HashRing()
        ring.add_node("n1")
        assert "n1" in ring
        assert len(ring) == 1
        assert ring.nodes == ["n1"]

    def test_duplicate_add_raises(self):
        ring = HashRing()
        ring.add_node("n1")
        with pytest.raises(ValueError):
            ring.add_node("n1")

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            HashRing().remove_node("ghost")

    def test_remove_restores_empty_ring(self):
        ring = HashRing()
        ring.add_node("n1")
        ring.remove_node("n1")
        assert len(ring) == 0
        with pytest.raises(ValueError):
            ring.owners("key")


class TestHashRingPlacement:
    def setup_method(self):
        self.ring = HashRing(virtual_nodes=64)
        for index in range(4):
            self.ring.add_node(f"node-{index}")

    def test_owner_is_deterministic(self):
        assert self.ring.primary("some-key") == self.ring.primary("some-key")

    def test_owners_are_distinct(self):
        owners = self.ring.owners("some-key", count=3)
        assert len(owners) == len(set(owners)) == 3

    def test_owner_count_capped_at_membership(self):
        assert len(self.ring.owners("k", count=10)) == 4

    def test_keys_spread_across_nodes(self):
        keys = [f"key-{i}" for i in range(2_000)]
        counts = Counter(self.ring.primary(key) for key in keys)
        assert len(counts) == 4
        assert min(counts.values()) > 200

    def test_node_addition_moves_limited_keys(self):
        keys = [f"key-{i}" for i in range(1_000)]
        before = {key: self.ring.primary(key) for key in keys}
        self.ring.add_node("node-new")
        moved = sum(1 for key in keys if self.ring.primary(key) != before[key])
        # Consistent hashing: roughly 1/5 of keys move to the new node, and
        # keys that move must move to the new node only.
        assert moved < 500
        for key in keys:
            if self.ring.primary(key) != before[key]:
                assert self.ring.primary(key) == "node-new"

    def test_node_removal_reassigns_only_its_keys(self):
        keys = [f"key-{i}" for i in range(1_000)]
        before = {key: self.ring.primary(key) for key in keys}
        self.ring.remove_node("node-0")
        for key in keys:
            if before[key] != "node-0":
                assert self.ring.primary(key) == before[key]
            else:
                assert self.ring.primary(key) != "node-0"

    def test_remembered_owners_are_dropped_when_a_node_joins(self):
        keys = [f"key-{i}" for i in range(300)]
        for key in keys:
            self.ring.owners(key, 2)  # remembered under four nodes
        self.ring.add_node("node-new")
        fresh = HashRing(virtual_nodes=64)
        for node in self.ring.nodes:
            fresh.add_node(node)
        assert [self.ring.owners(k, 2) for k in keys] == [fresh.owners(k, 2) for k in keys]
        assert any("node-new" in self.ring.owners(k, 2) for k in keys)

    def test_remembered_owners_are_dropped_when_a_node_leaves(self):
        keys = [f"key-{i}" for i in range(300)]
        assert any("node-2" in self.ring.owners(k, 2) for k in keys)
        self.ring.remove_node("node-2")
        assert not any("node-2" in self.ring.owners(k, 2) for k in keys)
        assert all(len(self.ring.owners(k, 10)) == 3 for k in keys)

    def test_callers_may_mutate_the_list_they_get(self):
        owners = self.ring.owners("some-key", 3)
        expected = list(owners)
        owners.reverse()
        owners.append("ghost")
        again = self.ring.owners("some-key", 3)
        assert again == expected and again is not owners
        assert self.ring.owners("some-key", 1) == expected[:1]


class TestOwnedBy:
    def setup_method(self):
        self.ring = HashRing(virtual_nodes=64)
        for index in range(4):
            self.ring.add_node(f"node-{index}")
        self.keys = [f"key-{i}" for i in range(500)]

    def test_matches_owner_computation(self):
        for node in (f"node-{i}" for i in range(4)):
            owned = set(self.ring.owned_by(self.keys, node, count=2))
            expected = {key for key in self.keys
                        if node in self.ring.owners(key, 2)}
            assert owned == expected

    def test_every_key_owned_by_exactly_replication_factor_nodes(self):
        total = sum(len(self.ring.owned_by(self.keys, f"node-{i}", count=2))
                    for i in range(4))
        assert total == 2 * len(self.keys)

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            self.ring.owned_by(self.keys, "ghost")
