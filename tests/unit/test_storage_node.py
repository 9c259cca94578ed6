"""Unit tests for a single Anna storage node (tiers, stats, merge-on-put)."""

import pytest

from repro.errors import KeyNotFoundError
from repro.lattices import LWWLattice, MaxIntLattice, Timestamp
from repro.anna import ColdTier, StorageNode


def lww(value, clock=1.0, node="n"):
    return LWWLattice(Timestamp(clock, node), value)


class TestStorageNodeBasics:
    def test_put_then_get(self):
        node = StorageNode("s1")
        node.put("k", lww("v"))
        assert node.get("k").reveal() == "v"
        assert node.contains("k")

    def test_get_missing_raises(self):
        with pytest.raises(KeyNotFoundError):
            StorageNode("s1").get("ghost")

    def test_put_merges_with_existing(self):
        node = StorageNode("s1")
        node.put("counter", MaxIntLattice(3))
        node.put("counter", MaxIntLattice(1))
        assert node.get("counter").reveal() == 3

    def test_delete(self):
        node = StorageNode("s1")
        node.put("k", lww("v"))
        assert node.delete("k")
        assert not node.contains("k")
        assert not node.delete("k")

    def test_key_counts(self):
        node = StorageNode("s1")
        node.put("a", lww(1))
        node.put("b", lww(2))
        assert len(list(node.keys())) == 2
        assert sorted(node.keys()) == ["a", "b"]

    def test_drain_clears_everything(self):
        node = StorageNode("s1")
        node.put("a", lww(1))
        drained = node.drain()
        assert set(drained) == {"a"}
        assert len(list(node.keys())) == 0


class TestTiering:
    def test_new_keys_land_in_memory(self):
        node = StorageNode("s1")
        node.put("k", lww("v"))
        assert node.tier_of("k") == StorageNode.MEMORY_TIER

    def test_demote_moves_key_to_disk(self):
        node = StorageNode("s1")
        node.put("k", lww("v"))
        assert node.demote("k")
        assert node.tier_of("k") == StorageNode.DISK_TIER
        assert node.get("k").reveal() == "v"
        assert list(node.memory_keys()) == []

    def test_in_process_cold_tier_is_a_dict_behind_write_and_remove(self):
        tier = ColdTier()
        node = StorageNode("s1", cold_tier=tier)
        node.put("k", lww("v"), now_ms=4.0)
        node.demote("k")
        assert dict(tier) == {"k": node.peek("k")}
        assert node.delete("k")
        assert tier == {} and tier.remove("k") is None
        assert not tier.recovered_access_ms

    def test_demote_missing_key_is_false(self):
        assert not StorageNode("s1").demote("ghost")

    def test_put_to_demoted_key_stays_on_disk(self):
        node = StorageNode("s1")
        node.put("k", MaxIntLattice(1))
        node.demote("k")
        node.put("k", MaxIntLattice(5))
        assert node.tier_of("k") == StorageNode.DISK_TIER
        assert node.get("k").reveal() == 5

    def test_memory_capacity_enforced_on_insert(self):
        # Regression: a burst of fresh keys used to overfill the memory tier
        # until the next autoscaler tick.  Now the coldest resident key is
        # demoted to disk on insert, and the demotion is counted.
        node = StorageNode("s1", memory_capacity_keys=2)
        node.put("k0", lww(0), now_ms=1.0)
        node.put("k1", lww(1), now_ms=2.0)
        node.put("k2", lww(2), now_ms=3.0)
        assert len(list(node.memory_keys())) == 2
        assert node.demotions == 1
        # The coldest key moved to disk; nothing was lost.
        assert node.tier_of("k0") == StorageNode.DISK_TIER
        for index in range(3):
            assert node.get(f"k{index}").reveal() == index

    def test_capacity_pressure_never_drops_data(self):
        node = StorageNode("s1", memory_capacity_keys=3)
        for index in range(20):
            node.put(f"k{index}", lww(index), now_ms=float(index))
        assert len(list(node.memory_keys())) == 3
        assert len(list(node.keys())) == 20
        assert node.demotions == 17

    def test_merge_to_existing_key_does_not_demote(self):
        from repro.lattices import MaxIntLattice

        node = StorageNode("s1", memory_capacity_keys=2)
        node.put("a", MaxIntLattice(1), now_ms=1.0)
        node.put("b", MaxIntLattice(1), now_ms=2.0)
        node.put("a", MaxIntLattice(5), now_ms=3.0)  # merge, not a fresh insert
        assert node.demotions == 0
        assert len(list(node.memory_keys())) == 2

    def test_capacity_demotes_the_least_recently_accessed_key(self):
        node = StorageNode("s1", memory_capacity_keys=2)
        node.put("old", lww(1), now_ms=1.0)
        node.put("new", lww(2), now_ms=100.0)
        node.get("old", now_ms=500.0)
        node.put("fresh", lww(3), now_ms=600.0)
        assert node.tier_of("new") == StorageNode.DISK_TIER
        assert node.tier_of("old") == StorageNode.MEMORY_TIER


class TestStats:
    def test_reads_and_writes_counted(self):
        node = StorageNode("s1")
        node.put("k", lww(1))
        node.get("k")
        node.get("k")
        stats = node.stats("k")
        assert stats.writes == 1
        assert stats.reads == 2
        assert stats.accesses == 3

    def test_hot_keys_threshold(self):
        node = StorageNode("s1")
        node.put("hot", lww(1))
        for _ in range(10):
            node.get("hot")
        node.put("cold", lww(2))
        assert node.hot_keys(min_accesses=5) == ["hot"]
