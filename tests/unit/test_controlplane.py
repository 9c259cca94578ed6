"""Unit tests for the compute-tier control plane (§4.1, §4.4).

One class runs the whole loop, and each step is covered here on its own:
the publish tick (alive VMs + scheduler call totals to Anna), the
aggregation over the published keys, the §4.4 policy, and the actuation —
capacity changes, the scale-down grace period, and pin migration off
draining executors.
"""

import dataclasses
import importlib
import inspect

import pytest

import repro.cloudburst
from repro import CloudburstCluster
from repro.cloudburst import Dag
from repro.cloudburst.controlplane import (
    MIN_PINNED_THREADS,
    SCHEDULER_METRICS_PREFIX,
    AutoscalerDecision,
    ComputeControlPlane,
    MonitoringConfig,
)
from repro.cloudburst.executor import EXECUTOR_METRICS_PREFIX

from engine_time import at_engine_time


def make_cluster(executor_vms=3, threads_per_vm=2, seed=3):
    return CloudburstCluster(executor_vms=executor_vms,
                             threads_per_vm=threads_per_vm, seed=seed)


def replay(plane, monkeypatch, decisions):
    """Make ``plane.decide`` return canned decisions, one per tick."""
    queue = list(decisions)
    monkeypatch.setattr(plane, "decide",
                        lambda now_ms, metrics: queue.pop(0) if queue else None)


class TestOneControlPlane:
    def test_the_folded_classes_are_gone(self):
        for name in ("MonitoringSystem", "AutoscalingPolicy",
                     "MetricsPublisher", "ComputeAutoscaler"):
            assert not hasattr(repro.cloudburst, name)
            assert name not in repro.cloudburst.__all__
        with pytest.raises(ImportError):
            importlib.import_module("repro.cloudburst.monitoring")

    def test_constructor_takes_cluster_config_and_policy_interval(self):
        parameters = inspect.signature(ComputeControlPlane).parameters
        assert list(parameters) == ["cluster", "config", "policy_interval_ms"]

    def test_monitoring_config_has_three_fields(self):
        assert [f.name for f in dataclasses.fields(MonitoringConfig)] == [
            "vms_per_scale_up", "node_startup_delay_ms", "max_vms"]

    def test_cluster_takes_no_monitoring_config(self):
        assert "monitoring_config" not in inspect.signature(
            CloudburstCluster).parameters
        assert not hasattr(make_cluster(), "monitoring")


class TestPublish:
    def test_publishes_alive_vms_and_scheduler_totals(self):
        cluster = make_cluster()
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="f")
        scheduler.call("f", [1], ctx=at_engine_time(scheduler))
        scheduler.call("f", [2], ctx=at_engine_time(scheduler))
        plane = ComputeControlPlane(cluster)
        plane.publish()
        vm = cluster.vms[0]
        published = cluster.kvs.background_get(EXECUTOR_METRICS_PREFIX + vm.vm_id).reveal()
        assert published["vm_id"] == vm.vm_id
        assert published["threads_alive"] == 2
        sched_stats = cluster.kvs.background_get(
            SCHEDULER_METRICS_PREFIX + scheduler.scheduler_id).reveal()
        assert sched_stats["function_calls"] == 2
        assert plane.published_ticks == 1

    def test_drained_vm_not_published_and_key_removed(self):
        cluster = make_cluster()
        victim = cluster.vms[-1]
        cluster.drain_vm(victim)
        ComputeControlPlane(cluster).publish()
        assert not cluster.kvs.contains(EXECUTOR_METRICS_PREFIX + victim.vm_id)
        for vm in cluster.vms:
            if vm.alive:
                assert cluster.kvs.contains(EXECUTOR_METRICS_PREFIX + vm.vm_id)

    def test_publish_and_aggregate_leave_storage_access_statistics_alone(self):
        # Metric traffic is system traffic: it must not register as client
        # load with the hot-key or storage-autoscaling policies.
        cluster = make_cluster()
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="f")
        for i in range(5):
            scheduler.call("f", [i], ctx=at_engine_time(scheduler))

        def total_accesses():
            return sum(stats.accesses
                       for node in cluster.kvs._nodes.values()
                       for stats in node._stats.values())

        before = total_accesses()
        plane = ComputeControlPlane(cluster)
        plane.publish()
        plane.aggregate()
        assert total_accesses() == before


class TestAggregation:
    def test_dead_vm_excluded_even_with_stale_metrics_key(self, saturate):
        # Regression: the utilization mean used to cover every roster
        # entry, so a drained VM (stale key or zero ghost) deflated the mean
        # right after a scale-down and delayed the next scale-up.
        cluster = make_cluster(executor_vms=2)
        live, dead = cluster.vms
        saturate(live)
        cluster.publish_all_metrics()
        dead.alive = False
        # Plant a stale metrics key claiming the dead VM is idle.
        cluster.kvs.background_put(EXECUTOR_METRICS_PREFIX + dead.vm_id,
                              cluster.kvs.plain({"vm_id": dead.vm_id, "utilization": 0.0}))
        metrics = ComputeControlPlane(cluster).aggregate()
        assert metrics["utilization"] == pytest.approx(1.0)

    def test_capacity_counts_alive_threads_only(self):
        cluster = make_cluster(executor_vms=3, threads_per_vm=2)
        cluster.drain_vm(cluster.vms[-1])
        assert ComputeControlPlane(cluster).aggregate()["capacity_threads"] == 4

    def test_rates_and_capacity_from_published_keys(self):
        cluster = make_cluster(executor_vms=2, threads_per_vm=2)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="f")
        for i in range(5):
            scheduler.call("f", [i], ctx=at_engine_time(scheduler))
        plane = ComputeControlPlane(cluster, policy_interval_ms=1_000.0)
        plane.publish()
        metrics = plane.aggregate()
        assert metrics["arrival_rate_per_s"] == 5.0
        assert metrics["completion_rate_per_s"] == 5.0
        assert metrics["capacity_threads"] == 4

    def test_reads_published_keys_only(self):
        # Nothing the schedulers or executors did since the last publish is
        # visible to the aggregation: there is no live-state fallback.
        cluster = make_cluster(executor_vms=2, threads_per_vm=2)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="f")
        for i in range(5):
            scheduler.call("f", [i], ctx=at_engine_time(scheduler))
        metrics = ComputeControlPlane(cluster).aggregate()
        assert metrics["arrival_rate_per_s"] == 0.0
        assert metrics["completion_rate_per_s"] == 0.0

    def test_dag_calls_weighed_in_function_units(self):
        # A k-function DAG call is k units of arriving work — otherwise the
        # §4.4 backlog condition could never fire for DAG workloads (their
        # completion signal counts every function execution).
        cluster = make_cluster(executor_vms=2, threads_per_vm=2)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x + 1, name="a")
        scheduler.register_function(lambda x: x * 2, name="b")
        scheduler.register_dag(Dag.chain("ab", ["a", "b"]))
        for i in range(3):
            scheduler.call_dag("ab", {"a": [i]},
                               ctx=at_engine_time(scheduler)).future.result()
        plane = ComputeControlPlane(cluster, policy_interval_ms=1_000.0)
        plane.publish()
        metrics = plane.aggregate()
        assert metrics["arrival_rate_per_s"] == 6.0
        assert metrics["completion_rate_per_s"] == 6.0


class TestPolicy:
    def make_metrics(self, utilization, arrival=100.0, completion=100.0, capacity=180):
        return {
            "utilization": utilization,
            "arrival_rate_per_s": arrival,
            "completion_rate_per_s": completion,
            "capacity_threads": float(capacity),
        }

    def make_plane(self, threads_per_vm=3):
        return ComputeControlPlane(CloudburstCluster(
            executor_vms=2, threads_per_vm=threads_per_vm, seed=1))

    def test_scale_up_on_saturation(self):
        decision = self.make_plane().decide(5_000.0, self.make_metrics(1.0))
        assert decision is not None
        assert decision.add_threads == 60
        assert decision.add_delay_ms == pytest.approx(150_000.0)

    def test_scale_up_batch_is_sized_by_the_clusters_vms(self):
        decision = self.make_plane(threads_per_vm=2).decide(
            5_000.0, self.make_metrics(1.0))
        assert decision.add_threads == 40

    def test_no_second_scale_up_while_instances_boot(self):
        plane = self.make_plane()
        assert plane.decide(5_000.0, self.make_metrics(1.0)) is not None
        assert plane.decide(10_000.0, self.make_metrics(1.0)) is None
        # After the startup delay elapses, another batch may be requested.
        assert plane.decide(160_000.0, self.make_metrics(1.0)) is not None

    def test_drain_when_load_disappears(self):
        decision = self.make_plane().decide(
            5_000.0, self.make_metrics(0.0, arrival=0.0, completion=0.0,
                                       capacity=360))
        assert decision is not None
        assert decision.remove_threads == 360 - MIN_PINNED_THREADS
        assert decision.urgent

    def test_modest_scale_down_at_low_utilization(self):
        decision = self.make_plane().decide(
            5_000.0, self.make_metrics(0.1, arrival=10.0, completion=10.0,
                                       capacity=180))
        assert decision is not None
        assert decision.remove_threads == 3
        assert not decision.urgent

    def test_steady_state_no_action(self):
        assert self.make_plane().decide(5_000.0, self.make_metrics(0.5)) is None

    def test_backlog_repinning_adds_a_replica_per_function(self):
        cluster = CloudburstCluster(executor_vms=3, seed=1)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda: 1, name="hot")
        scheduler.pin_function("hot", replicas=1)
        before = len(scheduler.function_pins["hot"])
        repinned = ComputeControlPlane(cluster).repin_backlogged()
        assert len(scheduler.function_pins["hot"]) == before + 1
        assert repinned == {"hot": before + 1}


class TestPinScrubbing:
    def _pinned_cluster(self):
        cluster = make_cluster(executor_vms=3, threads_per_vm=2)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x + 1, name="inc")
        scheduler.register_dag(Dag.chain("inc-dag", ["inc"]))
        scheduler.pin_function("inc", replicas=6)  # every thread
        return cluster, scheduler

    def test_drain_vm_scrubs_pins(self):
        # Regression: drain_vm used to leave the drained VM's thread ids in
        # scheduler.function_pins, so stale
        # entries kept satisfying replica quotas while routing nowhere.
        cluster, scheduler = self._pinned_cluster()
        victim = cluster.vms[-1]
        departed = set(victim.thread_ids())
        cluster.drain_vm(victim)
        assert not departed & set(scheduler.function_pins["inc"])

    def test_pinned_function_remains_callable_after_drain(self):
        cluster, scheduler = self._pinned_cluster()
        cluster.drain_vm(cluster.vms[-1])
        result = scheduler.call_dag("inc-dag", {"inc": [41]},
                                    ctx=at_engine_time(scheduler)).future.result()
        assert result.value == 42
        # And re-pinning tops up with *live* replicas, not stale ids.
        pins = scheduler.pin_function("inc", replicas=4)
        live_ids = {t.thread_id for t in scheduler._live_threads()}
        assert set(pins) <= live_ids
        assert len(pins) == 4


class TestActuation:
    def test_add_capacity_builds_vms(self):
        cluster = make_cluster(executor_vms=1, threads_per_vm=3)
        plane = ComputeControlPlane(cluster)
        added = plane.add_capacity(7)
        assert added == 3  # 3 + 3 + 1
        assert cluster.live_thread_count() == 10
        assert plane.capacity_timeline[-1][1] == 10

    def test_add_capacity_respects_max_vms(self):
        cluster = make_cluster(executor_vms=2, threads_per_vm=3)
        plane = ComputeControlPlane(cluster, config=MonitoringConfig(max_vms=3))
        added = plane.add_capacity(9)
        assert added == 1  # ceiling reached after one VM
        assert sum(1 for vm in cluster.vms if vm.alive) == 3
        assert plane.add_capacity(3) == 0  # at the ceiling: no-op

    def test_booted_vms_publish_their_metrics(self):
        cluster = make_cluster(executor_vms=1, threads_per_vm=3)
        ComputeControlPlane(cluster).add_capacity(6)
        for vm in cluster.vms:
            assert cluster.kvs.contains(EXECUTOR_METRICS_PREFIX + vm.vm_id)

    def test_drain_capacity_respects_min_threads_and_migrates_pins(self):
        cluster = make_cluster(executor_vms=3, threads_per_vm=2)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="hot")
        scheduler.pin_function("hot", replicas=6)
        plane = ComputeControlPlane(cluster)
        drained = plane.drain_capacity(100, now_ms=1_000.0)
        assert drained == 6 - MIN_PINNED_THREADS
        assert cluster.live_thread_count() == MIN_PINNED_THREADS
        # Pins migrated onto the survivors before the threads went dark.
        live_ids = {t.thread_id for t in scheduler._live_threads()}
        assert set(scheduler.function_pins["hot"]) == live_ids
        assert plane.migrations
        migration = plane.migrations[0]
        assert migration.function == "hot"
        assert migration.at_ms == 1_000.0
        assert not set(migration.from_threads) & live_ids

    def test_no_calls_routed_to_drained_threads(self):
        cluster = make_cluster(executor_vms=2, threads_per_vm=2)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="f")
        plane = ComputeControlPlane(cluster)
        assert plane.drain_capacity(3) == 2
        for i in range(10):
            scheduler.call("f", [i], ctx=at_engine_time(scheduler))
        assert plane.calls_routed_to_drained() == 0

    def test_fully_drained_vm_keeps_completion_totals(self):
        cluster = make_cluster(executor_vms=2, threads_per_vm=2)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="f")
        for i in range(8):
            scheduler.call("f", [i], ctx=at_engine_time(scheduler))
        plane = ComputeControlPlane(cluster)
        plane.publish()
        plane.aggregate()
        before = plane._last_completion_total
        plane.drain_capacity(2)  # retires the last VM: its key is deleted
        assert not cluster.vms[-1].alive
        plane.aggregate()
        # Retired VMs' invocation totals survive as the retired counter, so
        # the completion rate never reads negative after a scale-down.
        assert plane._last_completion_total == before == 8


class TestRateBaselines:
    def test_start_seeds_baselines_on_reused_cluster(self):
        # Regression: a fresh control plane started on a cluster that
        # already served traffic used to report the whole lifetime of calls
        # as one interval's delta on its first tick (suppressing the
        # zero-load drain and spuriously triggering backlog repinning).
        cluster = make_cluster()
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="f")
        for i in range(20):
            scheduler.call("f", [i], ctx=at_engine_time(scheduler))
        plane = ComputeControlPlane(cluster, policy_interval_ms=1_000.0)
        plane.start()
        report = plane.tick(1_000.0)
        plane.stop()
        assert report.arrival_rate_per_s == 0.0
        assert report.completion_rate_per_s == 0.0


class TestGracePeriod:
    def test_low_utilization_drain_waits_for_grace(self, monkeypatch):
        plane = ComputeControlPlane(make_cluster(executor_vms=3, threads_per_vm=2))
        down = AutoscalerDecision(remove_threads=2)
        replay(plane, monkeypatch, [down, down])
        plane.tick(1_000.0)
        assert plane.cluster.live_thread_count() == 6  # first tick: grace
        plane.tick(2_000.0)
        assert plane.cluster.live_thread_count() == 4  # second tick actuates

    def test_urgent_drain_skips_grace(self, monkeypatch):
        plane = ComputeControlPlane(make_cluster(executor_vms=3, threads_per_vm=2))
        replay(plane, monkeypatch, [AutoscalerDecision(remove_threads=4, urgent=True)])
        plane.tick(1_000.0)
        assert plane.cluster.live_thread_count() == 2

    def test_grace_counter_resets_on_quiet_tick(self, monkeypatch):
        plane = ComputeControlPlane(make_cluster(executor_vms=3, threads_per_vm=2))
        down = AutoscalerDecision(remove_threads=2)
        replay(plane, monkeypatch, [down, None, down])
        for tick in range(3):
            plane.tick(1_000.0 * (tick + 1))
        # down, quiet, down: never two consecutive low ticks -> no actuation.
        assert plane.cluster.live_thread_count() == 6


class TestControlPlaneConfig:
    def test_publish_interval_is_half_the_policy_interval(self):
        plane = ComputeControlPlane(make_cluster(), policy_interval_ms=4_000.0)
        assert plane.publish_interval_ms == 2_000.0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ComputeControlPlane(make_cluster(), policy_interval_ms=0.0)

    def test_snapshot_shape(self):
        snapshot = ComputeControlPlane(make_cluster()).snapshot()
        assert sorted(snapshot) == sorted((
            "publish_interval_ms", "policy_interval_ms", "publish_ticks",
            "policy_ticks", "scale_up_events", "threads_drained", "migrations",
            "calls_routed_to_drained", "baseline_threads", "peak_threads",
            "final_threads", "min_threads"))
        assert snapshot["min_threads"] == MIN_PINNED_THREADS
