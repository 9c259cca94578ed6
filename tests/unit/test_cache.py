"""Unit tests for the executor-colocated cache."""

import pytest

from repro.anna import AnnaCluster
from repro.cloudburst import ExecutorCache
from repro.errors import ConsistencyError, KeyNotFoundError
from repro.lattices import CausalLattice, LWWLattice, Timestamp, VectorClock
from repro.sim import LatencyModel, RequestContext


@pytest.fixture
def anna():
    return AnnaCluster(node_count=2, replication_factor=1,
                       latency_model=LatencyModel(jitter_enabled=False))


@pytest.fixture
def peers():
    return {}


@pytest.fixture
def cache(anna, peers):
    return ExecutorCache("cache-a", anna, peer_registry=peers)


def lww(value, clock=1.0, node="n"):
    return LWWLattice(Timestamp(clock, node), value)


class TestBasicDataPath:
    def test_get_or_fetch_missing_raises(self, cache):
        with pytest.raises(KeyNotFoundError):
            cache.get_or_fetch("ghost", RequestContext())

    def test_get_or_fetch_miss_goes_to_anna(self, cache, anna):
        anna.background_put("k", lww("v"))
        ctx = RequestContext()
        value = cache.get_or_fetch("k", ctx)
        assert value.reveal() == "v"
        assert ctx.count("anna", "get") == 1
        assert cache.stats.misses == 1
        assert cache.contains("k")

    def test_get_or_fetch_hit_stays_local(self, cache, anna):
        anna.background_put("k", lww("v"))
        cache.get_or_fetch("k", RequestContext())
        ctx = RequestContext()
        cache.get_or_fetch("k", ctx)
        assert ctx.count("anna", "get") == 0
        assert ctx.count("cache", "multi_get") == 1
        assert cache.stats.hits == 1

    def test_put_updates_local_and_writes_back_to_anna(self, cache, anna):
        ctx = RequestContext()
        cache.put("k", lww("v"), ctx)
        assert cache.get_local("k").reveal() == "v"
        assert anna.background_get("k").reveal() == "v"
        # Write-back is asynchronous: only the IPC put is charged.
        assert ctx.count("cache", "put") == 1
        assert ctx.count("anna", "put") == 0

    def test_put_merges_with_existing(self, cache):
        cache.put("k", lww("old", clock=1.0), RequestContext())
        cache.put("k", lww("new", clock=2.0), RequestContext())
        assert cache.get_local("k").reveal() == "new"

    def test_evict_and_clear_update_index(self, cache, anna):
        cache.put("k", lww("v"), RequestContext())
        assert "cache-a" in anna.cache_index.caches_for("k")
        cache.evict("k")
        assert "cache-a" not in anna.cache_index.caches_for("k")
        cache.put("x", lww(1), RequestContext())
        cache.clear()
        assert cache.cached_keys() == []

    def test_hit_rate(self, cache, anna):
        anna.background_put("k", lww("v"))
        cache.get_or_fetch("k", RequestContext())
        cache.get_or_fetch("k", RequestContext())
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_not_found_read_is_counted_as_a_miss(self, cache, anna):
        # Regression: a failed lookup used to raise without touching
        # stats.misses, inflating hit_rate.
        anna.background_put("k", lww("v"))
        cache.get_or_fetch("k", RequestContext())   # miss (fetched), then...
        cache.get_or_fetch("k", RequestContext())   # ...hit
        with pytest.raises(KeyNotFoundError):
            cache.get_or_fetch("ghost", RequestContext())
        assert cache.stats.misses == 2
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(1 / 3)


class TestFreshness:
    def test_publish_cached_keys_feeds_index(self, cache, anna):
        cache.put("a", lww(1), RequestContext())
        cache.publish_cached_keys()
        assert "cache-a" in anna.cache_index.caches_for("a")

    def test_receive_update_merges_newer_value(self, cache):
        cache.put("k", lww("old", clock=1.0), RequestContext())
        cache.receive_update("k", lww("new", clock=5.0))
        assert cache.get_local("k").reveal() == "new"
        assert cache.stats.update_pushes_received == 1

    def test_receive_update_ignores_unknown_keys(self, cache):
        cache.receive_update("ghost", lww("x"))
        assert not cache.contains("ghost")

    def test_anna_propagates_updates_to_holding_cache(self, cache, anna):
        cache.put("k", lww("v1", clock=1.0), RequestContext())
        other = ExecutorCache("cache-b", anna, peer_registry={})
        other.put("k", lww("v2", clock=9.0), RequestContext())
        # cache-a held "k", so Anna pushed the newer version to it.
        assert cache.get_local("k").reveal() == "v2"


class TestSnapshotsAndUpstreamFetch:
    def test_snapshot_roundtrip_and_eviction(self, cache):
        value = lww("v")
        cache.create_snapshot("exec-1", "k", value)
        assert cache.get_snapshot("exec-1", "k") is value
        assert cache.snapshot_count() == 1
        assert cache.evict_snapshots("exec-1") == 1
        assert cache.get_snapshot("exec-1", "k") is None

    def test_duplicate_snapshot_is_ignored(self, cache):
        cache.create_snapshot("exec-1", "k", lww("v1"))
        cache.create_snapshot("exec-1", "k", lww("v2"))
        assert cache.get_snapshot("exec-1", "k").reveal() == "v1"

    def test_fetch_from_upstream_returns_snapshot(self, anna, peers):
        upstream = ExecutorCache("up", anna, peer_registry=peers)
        downstream = ExecutorCache("down", anna, peer_registry=peers)
        pinned = lww("pinned", clock=1.0)
        upstream.create_snapshot("exec-1", "k", pinned)
        ctx = RequestContext()
        value = downstream.fetch_from_upstream("up", "exec-1", "k", ctx)
        assert value.reveal() == "pinned"
        assert ctx.count("cache", "fetch_from_upstream") == 1
        assert downstream.contains("k")

    def test_fetch_from_upstream_falls_back_to_live_copy(self, anna, peers):
        upstream = ExecutorCache("up", anna, peer_registry=peers)
        downstream = ExecutorCache("down", anna, peer_registry=peers)
        upstream.put("k", lww("live"), RequestContext())
        value = downstream.fetch_from_upstream("up", "exec-1", "k", RequestContext())
        assert value.reveal() == "live"

    def test_fetch_from_unknown_upstream_raises(self, cache):
        with pytest.raises(ConsistencyError):
            cache.fetch_from_upstream("ghost-cache", "exec-1", "k",
                                      RequestContext())

    def test_fetch_missing_key_raises(self, anna, peers):
        ExecutorCache("up", anna, peer_registry=peers)
        downstream = ExecutorCache("down", anna, peer_registry=peers)
        with pytest.raises(ConsistencyError):
            downstream.fetch_from_upstream("up", "exec-1", "missing",
                                           RequestContext())


class TestCausalCut:
    def test_ensure_causal_cut_fetches_missing_dependency(self, cache, anna):
        dep = CausalLattice(VectorClock({"w": 1}), "dep-value")
        anna.background_put("dep", dep)
        value = CausalLattice(VectorClock({"w": 2}), "value",
                              dependencies={"dep": VectorClock({"w": 1})})
        cache.ensure_causal_cut([value], RequestContext())
        assert cache.contains("dep")
        assert cache.violates_causal_cut() == []

    def test_ensure_causal_cut_refreshes_stale_dependency(self, cache, anna):
        stale = CausalLattice(VectorClock({"w": 1}), "stale")
        cache.put("dep", stale, RequestContext())
        fresh = CausalLattice(VectorClock({"w": 5}), "fresh")
        anna.background_put("dep", fresh)
        value = CausalLattice(VectorClock({"x": 1}), "v",
                              dependencies={"dep": VectorClock({"w": 5})})
        cache.ensure_causal_cut([value], RequestContext())
        held = cache.get_local("dep").vector_clock
        assert held == VectorClock({"w": 5}) or held.dominates(VectorClock({"w": 5}))

    def test_violates_causal_cut_detects_stale_dependency(self, cache):
        cache._data["dep"] = CausalLattice(VectorClock({"w": 1}), "stale")
        cache._data["k"] = CausalLattice(VectorClock({"x": 1}), "v",
                                         dependencies={"dep": VectorClock({"w": 5})})
        assert ("k", "dep") in cache.violates_causal_cut()

    def test_non_causal_values_are_ignored(self, cache):
        cache.ensure_causal_cut([lww("x")], RequestContext())
        assert cache.violates_causal_cut() == []

    def test_violates_causal_cut_reports_missing_dependency(self, cache):
        # Regression: a *missing* dependency used to be skipped as if the cut
        # held.  A causal cut requires every dependency present at a
        # concurrent-or-newer version, so a hole in the cache is a violation.
        cache._data["k"] = CausalLattice(VectorClock({"x": 1}), "v",
                                         dependencies={"ghost": VectorClock({"w": 1})})
        assert ("k", "ghost") in cache.violates_causal_cut()

    def test_violates_causal_cut_reports_versionless_dependency(self, cache):
        # A dependency present only as a non-causal lattice has no vector
        # clock to compare against, so the cut property cannot hold either.
        cache._data["dep"] = lww("plain")
        cache._data["k"] = CausalLattice(VectorClock({"x": 1}), "v",
                                         dependencies={"dep": VectorClock({"w": 1})})
        assert ("k", "dep") in cache.violates_causal_cut()

    def test_ensure_causal_cut_walks_chains_deeper_than_old_cap(self, cache, anna):
        # Regression: the recursive implementation silently stopped after 8
        # hops, leaving the tail of long dependency chains unrepaired.
        depth = 12
        clocks = {i: VectorClock({"w": i + 1}) for i in range(depth)}
        anna.background_put("dep-0", CausalLattice(clocks[0], "v0"))
        for i in range(1, depth):
            anna.background_put(f"dep-{i}", CausalLattice(
                clocks[i], f"v{i}",
                dependencies={f"dep-{i - 1}": clocks[i - 1]}))
        head = CausalLattice(VectorClock({"h": 1}), "head",
                             dependencies={f"dep-{depth - 1}": clocks[depth - 1]})
        cache.ensure_causal_cut([head], RequestContext())
        assert all(cache.contains(f"dep-{i}") for i in range(depth))
        assert cache.violates_causal_cut() == []
        assert cache.stats.causal_dep_fetches == depth

    def test_ensure_causal_cut_terminates_on_cyclic_dependencies(self, cache, anna):
        anna.background_put("a", CausalLattice(VectorClock({"w": 1}), "a-v",
                                    dependencies={"b": VectorClock({"w": 1})}))
        anna.background_put("b", CausalLattice(VectorClock({"w": 1}), "b-v",
                                    dependencies={"a": VectorClock({"w": 1})}))
        head = CausalLattice(VectorClock({"h": 1}), "head",
                             dependencies={"a": VectorClock({"w": 1})})
        cache.ensure_causal_cut([head], RequestContext())  # must not loop forever
        assert cache.contains("a") and cache.contains("b")

    def test_ensure_causal_cut_counts_unresolved_dependencies(self, cache):
        head = CausalLattice(VectorClock({"h": 1}), "head",
                             dependencies={"nowhere": VectorClock({"w": 3})})
        cache.ensure_causal_cut([head], RequestContext())
        assert cache.stats.causal_deps_unresolved == 1
        # And storing the head now reports the hole as a violation.
        cache._data["head"] = head
        assert ("head", "nowhere") in cache.violates_causal_cut()


class TestClose:
    def test_close_deregisters_listener_and_peer_entry(self, anna, peers):
        cache = ExecutorCache("cache-x", anna, peer_registry=peers)
        other = ExecutorCache("cache-y", anna, peer_registry=peers)
        cache.put("k", lww("v1", clock=1.0), RequestContext())
        cache.close()
        assert "cache-x" not in peers
        assert "cache-x" not in anna.cache_index.caches_for("k")
        # A newer write no longer reaches the closed cache.
        other.put("k", lww("v2", clock=9.0), RequestContext())
        assert cache.stats.update_pushes_received == 0
        assert not cache.contains("k")

    def test_close_is_idempotent(self, cache):
        cache.close()
        cache.close()
        assert cache.closed

    def test_fetch_from_closed_upstream_raises_consistency_error(self, anna, peers):
        upstream = ExecutorCache("up", anna, peer_registry=peers)
        downstream = ExecutorCache("down", anna, peer_registry=peers)
        upstream.create_snapshot("exec-1", "k", lww("pinned"))
        upstream.close()
        with pytest.raises(ConsistencyError):
            downstream.fetch_from_upstream("up", "exec-1", "k", RequestContext())

    def test_fallback_rejects_mismatched_live_version(self, anna, peers):
        # With many sessions in flight, the upstream's live copy may have been
        # advanced by a different session after the snapshot was evicted; the
        # exact-version fetch must refuse it rather than silently serve it.
        upstream = ExecutorCache("up", anna, peer_registry=peers)
        downstream = ExecutorCache("down", anna, peer_registry=peers)
        pinned = lww("pinned", clock=1.0)
        upstream.put("k", pinned, RequestContext())
        expected = Timestamp(1.0, "n")
        upstream.evict_snapshots("exec-1")  # no snapshot pinned at all
        assert downstream.fetch_from_upstream(
            "up", "exec-1", "k", RequestContext(),
            expected_version=expected).reveal() == "pinned"
        # Another session advances the live copy; the fallback must now fail.
        upstream.put("k", lww("advanced", clock=5.0), RequestContext())
        with pytest.raises(ConsistencyError):
            downstream.fetch_from_upstream("up", "exec-2", "k", RequestContext(),
                                           expected_version=expected)
