"""Unit tests for the compute-tier control plane (§4.1, §4.4).

Covers the three pieces in isolation: the metrics publisher (alive VMs +
scheduler call totals to Anna), the monitoring aggregation over the
published keys, and the autoscaler's actuation — capacity changes, the
scale-down grace period, and pin migration off draining executors.
"""

import pytest

from repro import CloudburstCluster
from repro.cloudburst import Dag
from repro.cloudburst.controlplane import (
    ComputeAutoscaler,
    ComputeControlPlane,
    MetricsPublisher,
)
from repro.cloudburst.executor import EXECUTOR_METRICS_PREFIX
from repro.cloudburst.monitoring import (
    SCHEDULER_METRICS_PREFIX,
    MonitoringConfig,
)
from repro.sim import AutoscalerDecision


def make_cluster(executor_vms=3, threads_per_vm=2, seed=3):
    return CloudburstCluster(executor_vms=executor_vms,
                             threads_per_vm=threads_per_vm, seed=seed)


class TestMetricsPublisher:
    def test_publishes_alive_vms_and_scheduler_totals(self):
        cluster = make_cluster()
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="f")
        scheduler.call("f", [1])
        scheduler.call("f", [2])
        publisher = MetricsPublisher(cluster)
        publisher.publish()
        vm = cluster.vms[0]
        published = cluster.kvs.get_plain(EXECUTOR_METRICS_PREFIX + vm.vm_id)
        assert published["vm_id"] == vm.vm_id
        assert published["threads_alive"] == 2
        sched_stats = cluster.kvs.get_plain(
            SCHEDULER_METRICS_PREFIX + scheduler.scheduler_id)
        assert sched_stats["function_calls"] == 2
        assert publisher.published_ticks == 1

    def test_drained_vm_not_published_and_key_removed(self):
        cluster = make_cluster()
        victim = cluster.vms[-1]
        cluster.drain_vm(victim)
        publisher = MetricsPublisher(cluster)
        publisher.publish()
        assert not cluster.kvs.contains(EXECUTOR_METRICS_PREFIX + victim.vm_id)
        for vm in cluster.vms:
            if vm.alive:
                assert cluster.kvs.contains(EXECUTOR_METRICS_PREFIX + vm.vm_id)


class TestMonitoringAggregation:
    def test_dead_vm_excluded_even_with_stale_metrics_key(self, saturate):
        # Regression: collect_utilization used to average over every roster
        # entry, so a drained VM (stale key or zero ghost) deflated the mean
        # right after a scale-down and delayed the next scale-up.
        cluster = make_cluster(executor_vms=2)
        live, dead = cluster.vms
        saturate(live)
        cluster.publish_all_metrics()
        dead.alive = False
        # Plant a stale metrics key claiming the dead VM is idle.
        cluster.kvs.put_plain(EXECUTOR_METRICS_PREFIX + dead.vm_id,
                              {"vm_id": dead.vm_id, "utilization": 0.0})
        assert cluster.monitoring.collect_utilization() == pytest.approx(1.0)

    def test_collect_metrics_counts_alive_only(self):
        cluster = make_cluster(executor_vms=3, threads_per_vm=2)
        cluster.drain_vm(cluster.vms[-1])
        metrics = cluster.monitoring.collect_metrics()
        assert metrics["vm_count"] == 2
        assert metrics["thread_count"] == 4

    def test_invocation_and_capacity_totals_from_published_keys(self):
        cluster = make_cluster(executor_vms=2, threads_per_vm=2)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="f")
        for i in range(5):
            scheduler.call("f", [i])
        cluster.publish_all_metrics()
        monitoring = cluster.monitoring
        assert monitoring.collect_invocation_total() == 5
        assert monitoring.collect_compute_aggregates()["capacity_threads"] == 4
        assert monitoring.collect_scheduler_call_total() == 5

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
            scheduler.call_dag("ab", {"a": [i]}).drive()
        # Live-stats fallback path.
        assert cluster.monitoring.collect_scheduler_call_total() == 6
        # Published path (dag_calls_by_name payload).
        MetricsPublisher(cluster).publish()
        assert cluster.monitoring.collect_scheduler_call_total() == 6
        assert cluster.monitoring.collect_invocation_total() == 6


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
        # scheduler.function_pins (only remove_vm scrubbed them), so stale
        # entries kept satisfying replica quotas while routing nowhere.
        cluster, scheduler = self._pinned_cluster()
        victim = cluster.vms[-1]
        departed = set(victim.thread_ids())
        cluster.drain_vm(victim)
        assert not departed & set(scheduler.function_pins["inc"])

    def test_pinned_function_remains_callable_after_drain(self):
        cluster, scheduler = self._pinned_cluster()
        cluster.drain_vm(cluster.vms[-1])
        result = scheduler.call_dag("inc-dag", {"inc": [41]}).drive()
        assert result.value == 42
        # And re-pinning tops up with *live* replicas, not stale ids.
        pins = scheduler.pin_function("inc", replicas=4)
        live_ids = {t.thread_id for t in scheduler._live_threads()}
        assert set(pins) <= live_ids
        assert len(pins) == 4

    def test_remove_vm_still_scrubs(self):
        cluster, scheduler = self._pinned_cluster()
        victim = cluster.vms[-1]
        departed = set(victim.thread_ids())
        cluster.remove_vm(victim.vm_id)
        assert not departed & set(scheduler.function_pins["inc"])


class TestComputeAutoscalerActuation:
    def test_add_capacity_builds_vms(self):
        cluster = make_cluster(executor_vms=1, threads_per_vm=3)
        autoscaler = ComputeAutoscaler(cluster)
        added = autoscaler.add_capacity(7)
        assert added == 3  # 3 + 3 + 1
        assert autoscaler._live_thread_count() == 10
        assert autoscaler.capacity_timeline[-1][1] == 10

    def test_add_capacity_respects_max_vms(self):
        cluster = make_cluster(executor_vms=2, threads_per_vm=3)
        autoscaler = ComputeAutoscaler(
            cluster, config=MonitoringConfig(max_vms=3))
        added = autoscaler.add_capacity(9)
        assert added == 1  # ceiling reached after one VM
        assert sum(1 for vm in cluster.vms if vm.alive) == 3
        assert autoscaler.add_capacity(3) == 0  # at the ceiling: no-op

    def test_drain_capacity_respects_min_threads_and_migrates_pins(self):
        cluster = make_cluster(executor_vms=3, threads_per_vm=2)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="hot")
        scheduler.pin_function("hot", replicas=6)
        autoscaler = ComputeAutoscaler(cluster, min_threads=2)
        drained = autoscaler.drain_capacity(100, now_ms=1_000.0)
        assert drained == 4
        assert autoscaler._live_thread_count() == 2
        # Pins migrated onto the survivors before the threads went dark.
        live_ids = {t.thread_id for t in scheduler._live_threads()}
        assert set(scheduler.function_pins["hot"]) == live_ids
        assert autoscaler.migrations
        migration = autoscaler.migrations[0]
        assert migration.function == "hot"
        assert migration.at_ms == 1_000.0
        assert not set(migration.from_threads) & live_ids

    def test_no_calls_routed_to_drained_threads(self):
        cluster = make_cluster(executor_vms=2, threads_per_vm=2)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="f")
        autoscaler = ComputeAutoscaler(cluster, min_threads=1)
        autoscaler.drain_capacity(3)
        for i in range(10):
            scheduler.call("f", [i])
        assert autoscaler.calls_routed_to_drained() == 0

    def test_fully_drained_vm_keeps_completion_totals(self):
        cluster = make_cluster(executor_vms=2, threads_per_vm=2)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="f")
        for i in range(8):
            scheduler.call("f", [i])
        cluster.publish_all_metrics()
        autoscaler = ComputeAutoscaler(cluster, min_threads=1)
        before = (cluster.monitoring.collect_invocation_total()
                  + autoscaler._retired_invocations)
        autoscaler.drain_capacity(3)
        after = (cluster.monitoring.collect_invocation_total()
                 + autoscaler._retired_invocations)
        # Retired VMs' invocation totals survive as the retired counter, so
        # the completion rate never reads negative after a scale-down.
        assert after == before


class TestRateBaselines:
    def test_start_seeds_baselines_on_reused_cluster(self):
        # Regression: a fresh autoscaler started on a cluster that already
        # served traffic used to report the whole lifetime of calls as one
        # interval's delta on its first tick (suppressing the zero-load
        # drain and spuriously triggering backlog repinning).
        cluster = make_cluster()
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x, name="f")
        for i in range(20):
            scheduler.call("f", [i])
        autoscaler = ComputeAutoscaler(cluster)
        autoscaler.start(interval_ms=1_000.0)
        report = autoscaler.tick(1_000.0)
        assert report.arrival_rate_per_s == 0.0
        assert report.completion_rate_per_s == 0.0


class TestGracePeriod:
    def _canned_policy(self, decisions):
        """A policy that replays canned decisions, one per tick."""
        queue = list(decisions)

        def policy(now_ms, metrics):
            return queue.pop(0) if queue else None

        return policy

    def test_low_utilization_drain_waits_for_grace(self):
        cluster = make_cluster(executor_vms=3, threads_per_vm=2)
        down = AutoscalerDecision(remove_threads=2)
        autoscaler = ComputeAutoscaler(
            cluster, policy=self._canned_policy([down, down]),
            min_threads=1, grace_ticks=2)
        autoscaler.tick(1_000.0)
        assert autoscaler._live_thread_count() == 6  # first tick: grace
        autoscaler.tick(2_000.0)
        assert autoscaler._live_thread_count() == 4  # second tick actuates

    def test_urgent_drain_skips_grace(self):
        cluster = make_cluster(executor_vms=3, threads_per_vm=2)
        down = AutoscalerDecision(remove_threads=4, urgent=True)
        autoscaler = ComputeAutoscaler(
            cluster, policy=self._canned_policy([down]),
            min_threads=2, grace_ticks=3)
        autoscaler.tick(1_000.0)
        assert autoscaler._live_thread_count() == 2

    def test_grace_counter_resets_on_quiet_tick(self):
        cluster = make_cluster(executor_vms=3, threads_per_vm=2)
        down = AutoscalerDecision(remove_threads=2)
        autoscaler = ComputeAutoscaler(
            cluster, policy=self._canned_policy([down, None, down]),
            min_threads=1, grace_ticks=2)
        for tick in range(3):
            autoscaler.tick(1_000.0 * (tick + 1))
        # down, quiet, down: never two consecutive low ticks -> no actuation.
        assert autoscaler._live_thread_count() == 6


class TestControlPlaneConfig:
    def test_publish_interval_defaults_to_half_policy_interval(self):
        cluster = make_cluster()
        plane = ComputeControlPlane(cluster, policy_interval_ms=4_000.0)
        assert plane.publish_interval_ms == 2_000.0

    def test_rejects_bad_intervals(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            ComputeControlPlane(cluster, policy_interval_ms=0.0)
        with pytest.raises(ValueError):
            ComputeControlPlane(cluster, publish_interval_ms=-1.0)

    def test_snapshot_shape(self):
        cluster = make_cluster()
        plane = ComputeControlPlane(cluster)
        snapshot = plane.snapshot()
        for key in ("publish_interval_ms", "policy_interval_ms",
                    "scale_up_events", "migrations",
                    "calls_routed_to_drained", "baseline_threads",
                    "peak_threads", "final_threads"):
            assert key in snapshot
