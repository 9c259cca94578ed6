"""Unit tests for the key-to-cache index."""

from repro.anna import KeyCacheIndex


class TestMembership:
    def test_add_entry_sets_membership(self):
        index = KeyCacheIndex()
        index.add_entry("c1", "a")
        index.add_entry("c1", "b")
        assert index.caches_for("a") == frozenset({"c1"})
        assert index.caches_for("b") == frozenset({"c1"})

    def test_removing_one_key_keeps_the_cache_s_others(self):
        index = KeyCacheIndex()
        index.add_entry("c1", "a")
        index.add_entry("c1", "b")
        index.remove_entry("c1", "a")
        assert index.caches_for("a") == frozenset()
        assert index.caches_for("b") == frozenset({"c1"})

    def test_multiple_caches_tracked(self):
        index = KeyCacheIndex()
        index.add_entry("c1", "a")
        index.add_entry("c2", "a")
        assert index.caches_for("a") == frozenset({"c1", "c2"})

    def test_removing_one_holder_keeps_the_others(self):
        index = KeyCacheIndex()
        index.add_entry("c1", "a")
        index.add_entry("c2", "a")
        index.remove_entry("c1", "a")
        assert index.caches_for("a") == frozenset({"c2"})


class TestIncrementalEntries:
    def test_add_and_remove_entry(self):
        index = KeyCacheIndex()
        index.add_entry("c1", "k")
        assert index.caches_for("k") == frozenset({"c1"})
        index.remove_entry("c1", "k")
        assert index.caches_for("k") == frozenset()

    def test_remove_unknown_entry_is_noop(self):
        index = KeyCacheIndex()
        index.remove_entry("c1", "k")
        assert index.overhead().tracked_keys == 0


class TestPropagationTargets:
    def test_excludes_writer(self):
        index = KeyCacheIndex()
        index.add_entry("c1", "k")
        index.add_entry("c2", "k")
        assert index.propagation_targets("k", exclude="c1") == frozenset({"c2"})

    def test_untracked_key_has_no_targets(self):
        assert KeyCacheIndex().propagation_targets("ghost") == frozenset()


class TestOverheadAccounting:
    def test_empty_index_overhead(self):
        overhead = KeyCacheIndex().overhead()
        assert overhead.tracked_keys == 0
        assert overhead.total_bytes == 0

    def test_overhead_scales_with_replication(self):
        index = KeyCacheIndex()
        for cache in range(10):
            index.add_entry(f"c{cache}", "hot")
        index.add_entry("c0", "cold")
        assert index.key_overhead_bytes("hot") == 10 * KeyCacheIndex.BYTES_PER_CACHE_ENTRY
        assert index.key_overhead_bytes("cold") == KeyCacheIndex.BYTES_PER_CACHE_ENTRY
        overhead = index.overhead()
        assert overhead.p99_bytes >= overhead.median_bytes
        assert overhead.max_bytes == 10 * KeyCacheIndex.BYTES_PER_CACHE_ENTRY
