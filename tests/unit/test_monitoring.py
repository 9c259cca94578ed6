"""Unit tests for the monitoring system and the Figure 7 autoscaling policy."""

import pytest

from repro import CloudburstCluster
from repro.cloudburst import AutoscalingPolicy, MonitoringConfig


class TestMonitoringSystem:
    def test_collect_metrics_shape(self):
        cluster = CloudburstCluster(executor_vms=2, seed=1)
        metrics = cluster.monitoring.collect_metrics()
        assert metrics["vm_count"] == 2
        assert metrics["thread_count"] == 6
        assert 0.0 <= metrics["utilization"] <= 1.0

    def test_backlog_repinning_adds_a_replica_per_function(self):
        cluster = CloudburstCluster(executor_vms=3, seed=1)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda: 1, name="hot")
        scheduler.pin_function("hot", replicas=1)
        before = len(scheduler.function_pins["hot"])
        repinned = cluster.monitoring.repin_backlogged()
        assert len(scheduler.function_pins["hot"]) == before + 1
        assert repinned == {"hot": before + 1}


class TestAutoscalingPolicy:
    def make_metrics(self, utilization, arrival=100.0, completion=100.0, capacity=180):
        return {
            "utilization": utilization,
            "arrival_rate_per_s": arrival,
            "completion_rate_per_s": completion,
            "capacity_threads": float(capacity),
            "queue_length": 0.0,
        }

    def test_scale_up_on_saturation(self):
        policy = AutoscalingPolicy(MonitoringConfig())
        decision = policy(5_000.0, self.make_metrics(1.0))
        assert decision is not None
        assert decision.add_threads == 60
        assert decision.add_delay_ms == pytest.approx(150_000.0)

    def test_no_second_scale_up_while_instances_boot(self):
        policy = AutoscalingPolicy(MonitoringConfig())
        assert policy(5_000.0, self.make_metrics(1.0)) is not None
        assert policy(10_000.0, self.make_metrics(1.0)) is None
        # After the startup delay elapses, another batch may be requested.
        assert policy(160_000.0, self.make_metrics(1.0)) is not None

    def test_drain_when_load_disappears(self):
        policy = AutoscalingPolicy(MonitoringConfig(min_pinned_threads=2))
        decision = policy(5_000.0, self.make_metrics(0.0, arrival=0.0, completion=0.0,
                                                     capacity=360))
        assert decision is not None
        assert decision.remove_threads == 358

    def test_modest_scale_down_at_low_utilization(self):
        policy = AutoscalingPolicy(MonitoringConfig())
        decision = policy(5_000.0, self.make_metrics(0.1, arrival=10.0, completion=10.0,
                                                     capacity=180))
        assert decision is not None
        assert decision.remove_threads == 3

    def test_steady_state_no_action(self):
        policy = AutoscalingPolicy(MonitoringConfig())
        assert policy(5_000.0, self.make_metrics(0.5)) is None
