"""Unit tests for the storage-tier autoscaler."""

from repro.anna import autoscaler
from repro.anna import (
    AnnaCluster,
    StorageAutoscaler,
    StorageAutoscalerConfig,
)
from repro.lattices import LWWLattice, Timestamp

from internals import replicas_of


def lww(value, clock=1.0):
    return LWWLattice(Timestamp(clock, "t"), value)


def make_cluster(nodes=2):
    return AnnaCluster(node_count=nodes, replication_factor=1)


class TestScaleUpAndDown:
    def test_scale_up_on_heavy_access(self):
        anna = make_cluster(2)
        config = StorageAutoscalerConfig(scale_up_accesses_per_node=10,
                                         scale_down_accesses_per_node=0)
        scaler = StorageAutoscaler(anna, config)
        anna.background_put("k", lww(1))
        for _ in range(50):
            anna.background_get("k")
        report = scaler.tick()
        assert report.nodes_added == 1
        assert anna.node_count() == 3

    def test_scale_down_when_idle(self, monkeypatch):
        monkeypatch.setattr(autoscaler, "MIN_NODES", 2)
        anna = make_cluster(3)
        config = StorageAutoscalerConfig(scale_up_accesses_per_node=1e9,
                                         scale_down_accesses_per_node=10)
        scaler = StorageAutoscaler(anna, config)
        report = scaler.tick()
        assert report.nodes_removed == 1
        assert anna.node_count() == 2

    def test_scale_down_respects_min_nodes(self, monkeypatch):
        monkeypatch.setattr(autoscaler, "MIN_NODES", 1)
        anna = make_cluster(1)
        scaler = StorageAutoscaler(anna, StorageAutoscalerConfig())
        report = scaler.tick()
        assert report.nodes_removed == 0
        assert anna.node_count() == 1

    def test_scale_up_respects_max_nodes(self):
        anna = make_cluster(2)
        config = StorageAutoscalerConfig(scale_up_accesses_per_node=1,
                                         max_nodes=2, scale_down_accesses_per_node=0)
        scaler = StorageAutoscaler(anna, config)
        anna.background_put("k", lww(1))
        for _ in range(100):
            anna.background_get("k")
        assert scaler.tick().nodes_added == 0

    def test_window_accounting_resets_between_ticks(self):
        anna = make_cluster(2)
        config = StorageAutoscalerConfig(scale_up_accesses_per_node=20,
                                         scale_down_accesses_per_node=0)
        scaler = StorageAutoscaler(anna, config)
        anna.background_put("k", lww(1))
        for _ in range(100):
            anna.background_get("k")
        first = scaler.tick()
        second = scaler.tick()
        assert first.accesses_per_node > second.accesses_per_node


class TestHotKeysAndTiering:
    def test_hot_keys_get_extra_replicas(self, monkeypatch):
        monkeypatch.setattr(autoscaler, "HOT_KEY_EXTRA_REPLICAS", 2)
        anna = make_cluster(4)
        config = StorageAutoscalerConfig(hot_key_threshold=10,
                                         scale_up_accesses_per_node=1e9,
                                         scale_down_accesses_per_node=0)
        scaler = StorageAutoscaler(anna, config)
        anna.background_put("hot", lww(1))
        for _ in range(20):
            anna.background_get("hot")
        report = scaler.tick()
        assert "hot" in report.keys_boosted
        assert len(replicas_of(anna, "hot")) >= 2

    def test_cold_keys_demoted_to_disk(self, monkeypatch):
        monkeypatch.setattr(autoscaler, "COLD_KEY_AGE_MS", 1_000.0)
        anna = make_cluster(1)
        config = StorageAutoscalerConfig(scale_up_accesses_per_node=1e9,
                                         scale_down_accesses_per_node=0)
        scaler = StorageAutoscaler(anna, config)
        anna.background_put("cold", lww(1))
        report = scaler.tick(now_ms=10_000.0)
        assert report.keys_demoted >= 1
        node = anna.node(replicas_of(anna, "cold")[0])
        assert node.tier_of("cold") == node.DISK_TIER

    def test_recently_used_keys_stay_in_memory(self, monkeypatch):
        monkeypatch.setattr(autoscaler, "COLD_KEY_AGE_MS", 1_000_000.0)
        anna = make_cluster(1)
        config = StorageAutoscalerConfig(scale_up_accesses_per_node=1e9,
                                         scale_down_accesses_per_node=0)
        scaler = StorageAutoscaler(anna, config)
        anna.background_put("warm", lww(1))
        report = scaler.tick(now_ms=10.0)
        assert report.keys_demoted == 0
