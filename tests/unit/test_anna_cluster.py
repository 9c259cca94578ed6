"""Unit tests for the Anna KVS cluster."""

import pytest

from repro.anna import AnnaCluster
from repro.anna.cluster import GOSSIP_INTERVAL_MS
from repro.errors import KeyNotFoundError
from repro.lattices import LWWLattice, MaxIntLattice, Timestamp
from repro.sim import LatencyModel, RequestContext


@pytest.fixture
def anna():
    return AnnaCluster(node_count=4, replication_factor=2,
                       latency_model=LatencyModel(jitter_enabled=False))


def lww(value, clock=1.0):
    return LWWLattice(Timestamp(clock, "test"), value)


def one_gossip_interval_later(anna):
    """Keep a client waiting on the cluster for one gossip interval."""
    engine = anna.engine
    engine.at(engine.now_ms + GOSSIP_INTERVAL_MS, lambda: None)
    engine.run()


class TestAnnaBasics:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            AnnaCluster(node_count=0)
        with pytest.raises(ValueError):
            AnnaCluster(node_count=1, replication_factor=0)
        with pytest.raises(ValueError):
            AnnaCluster(propagation_mode="bogus")

    def test_put_rejects_non_lattice(self, anna):
        with pytest.raises(TypeError):
            anna.background_put("k", 42)

    def test_put_get_roundtrip(self, anna):
        anna.background_put("k", lww("value"))
        assert anna.background_get("k").reveal() == "value"
        assert anna.contains("k")

    def test_get_missing_raises_and_get_or_none_returns_none(self, anna):
        with pytest.raises(KeyNotFoundError):
            anna.get("ghost", RequestContext())
        assert anna.get_or_none("ghost", RequestContext()) is None
        assert anna.background_get("ghost") is None

    def test_put_merges_lattices(self, anna):
        anna.background_put("c", MaxIntLattice(5))
        anna.background_put("c", MaxIntLattice(2))
        assert anna.background_get("c").reveal() == 5

    def test_plain_value_helpers_wrap_in_lww(self, anna):
        anna.background_put("meta", anna.plain({"a": 1}))
        assert anna.background_get("meta").reveal() == {"a": 1}
        assert isinstance(anna.background_get("meta"), LWWLattice)

    def test_delete(self, anna):
        anna.background_put("k", lww(1))
        assert anna.background_delete("k")
        assert not anna.contains("k")

    def test_replication_factor_replicas(self, anna):
        anna.background_put("k", lww(1))
        assert len(anna.replicas_of("k")) == 1  # quorum of one
        one_gossip_interval_later(anna)
        assert len(anna.replicas_of("k")) == 2

    def test_latency_charged_for_remote_operations(self, anna):
        ctx = RequestContext()
        anna.put("k", lww("x"), ctx)
        anna.get("k", ctx)
        assert ctx.count("anna", "put") == 1
        assert ctx.count("anna", "get") == 1
        assert ctx.clock.now_ms > 0


class TestAnnaMembership:
    def test_add_node_preserves_data(self, anna):
        for index in range(50):
            anna.background_put(f"k{index}", lww(index))
        anna.add_node()
        for index in range(50):
            assert anna.background_get(f"k{index}").reveal() == index
        assert anna.node_count() == 5

    def test_remove_node_preserves_data(self, anna):
        for index in range(50):
            anna.background_put(f"k{index}", lww(index))
        anna.remove_node(anna.node_ids[0])
        for index in range(50):
            assert anna.background_get(f"k{index}").reveal() == index
        assert anna.node_count() == 3

    def test_cannot_remove_last_node(self):
        single = AnnaCluster(node_count=1)
        with pytest.raises(ValueError):
            single.remove_node(single.node_ids[0])

    def test_remove_unknown_node_raises(self, anna):
        with pytest.raises(KeyError):
            anna.remove_node("ghost")

    def test_boost_replication_adds_replicas(self, anna):
        anna.background_put("hot", lww(1))
        one_gossip_interval_later(anna)
        baseline = len(anna.replicas_of("hot"))
        assert baseline == 2
        anna.boost_replication("hot", extra_replicas=2)
        assert len(anna.replicas_of("hot")) == min(4, baseline + 2)

    def test_boost_replication_rejects_negative(self, anna):
        with pytest.raises(ValueError):
            anna.boost_replication("k", -1)


class TestCacheIndexAndPropagation:
    def test_ingest_cached_keys_updates_index(self, anna):
        anna.ingest_cached_keys("cache-1", ["a", "b"])
        assert anna.cache_index.caches_for("a") == frozenset({"cache-1"})

    def test_immediate_propagation_notifies_holding_caches(self, anna):
        received = []
        anna.register_update_listener("cache-1", lambda k, v: received.append((k, v.reveal())))
        anna.ingest_cached_keys("cache-1", ["k"])
        anna.background_put("k", lww("fresh", clock=9.0))
        assert received == [("k", "fresh")]

    def test_propagation_skips_caches_without_the_key(self, anna):
        received = []
        anna.register_update_listener("cache-1", lambda k, v: received.append(k))
        anna.ingest_cached_keys("cache-1", ["other"])
        anna.background_put("k", lww("fresh"))
        assert received == []

    def test_periodic_propagation_defers_until_flush(self):
        anna = AnnaCluster(node_count=2, propagation_mode=AnnaCluster.PROPAGATE_PERIODIC)
        received = []
        anna.register_update_listener("cache-1", lambda k, v: received.append(k))
        anna.ingest_cached_keys("cache-1", ["k"])
        anna.background_put("k", lww("v1"))
        assert received == []
        assert anna.pending_update_count() == 1
        flushed = anna.flush_updates()
        assert flushed == 1
        assert received == ["k"]
        assert anna.pending_update_count() == 0

    def test_unregister_listener_drops_cache_from_index(self, anna):
        anna.register_update_listener("cache-1", lambda k, v: None)
        anna.ingest_cached_keys("cache-1", ["a"])
        anna.unregister_update_listener("cache-1")
        assert anna.cache_index.caches_for("a") == frozenset()
