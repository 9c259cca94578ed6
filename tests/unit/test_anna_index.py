"""Unit tests for the key-to-cache index."""

from repro.anna import KeyCacheIndex


class TestSnapshots:
    def test_ingest_snapshot_sets_membership(self):
        index = KeyCacheIndex()
        index.ingest_snapshot("c1", ["a", "b"])
        assert index.caches_for("a") == frozenset({"c1"})
        assert index.caches_for("b") == frozenset({"c1"})

    def test_new_snapshot_replaces_old(self):
        index = KeyCacheIndex()
        index.ingest_snapshot("c1", ["a", "b"])
        index.ingest_snapshot("c1", ["b", "c"])
        assert index.caches_for("a") == frozenset()
        assert index.caches_for("c") == frozenset({"c1"})

    def test_multiple_caches_tracked(self):
        index = KeyCacheIndex()
        index.ingest_snapshot("c1", ["a"])
        index.ingest_snapshot("c2", ["a"])
        assert index.caches_for("a") == frozenset({"c1", "c2"})

    def test_drop_cache(self):
        index = KeyCacheIndex()
        index.ingest_snapshot("c1", ["a"])
        index.drop_cache("c1")
        assert index.caches_for("a") == frozenset()
        assert index._cache_to_keys == {}


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
        index.ingest_snapshot("c1", ["k"])
        index.ingest_snapshot("c2", ["k"])
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
            index.ingest_snapshot(f"c{cache}", ["hot"])
        index.ingest_snapshot("c0", ["hot", "cold"])
        assert index.key_overhead_bytes("hot") == 10 * KeyCacheIndex.BYTES_PER_CACHE_ENTRY
        assert index.key_overhead_bytes("cold") == KeyCacheIndex.BYTES_PER_CACHE_ENTRY
        overhead = index.overhead()
        assert overhead.p99_bytes >= overhead.median_bytes
        assert overhead.max_bytes == 10 * KeyCacheIndex.BYTES_PER_CACHE_ENTRY
