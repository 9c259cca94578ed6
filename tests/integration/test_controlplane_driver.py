"""Integration tests for the engine-driven compute control plane.

These pin the acceptance properties of the control-plane extraction:

* the full §4.4 loop (periodic metric publishes -> KVS aggregation ->
  scale decisions -> actuation with pin migration) runs as recurring engine
  events and scales a *real* cluster up under load and back down after it;
* seeded runs are deterministic — identical capacity/node timelines and an
  identical migration log across two runs;
* attaching a control plane whose policy never acts to a 1-client engine
  run changes **no** latency sample versus the sequential path:
  control-plane traffic is uncharged background load;
* the aggregation reads published keys only, which is safe because every
  alive VM (and every scheduler) has a published metrics key whenever the
  plane aggregates — pinned on a smoke-scale Figure 7 run.
"""

import pytest

from repro.bench.harness import (
    EngineLoadDriver,
    run_closed_loop,
)
from repro.cloudburst import CloudburstCluster
from repro.bench import run_figure7
from repro.bench.figures import FIGURES, SMOKE_SEED
from repro.cloudburst.controlplane import (
    MIN_PINNED_THREADS,
    SCHEDULER_METRICS_PREFIX,
    ComputeControlPlane,
    MonitoringConfig,
)
from repro.cloudburst.executor import EXECUTOR_METRICS_PREFIX


def _make_cluster(seed=11, executor_vms=2, threads_per_vm=3):
    cluster = CloudburstCluster(executor_vms=executor_vms,
                                threads_per_vm=threads_per_vm, seed=seed)
    cloud = cluster.connect("setup")

    def work(cloudburst, x):
        cloudburst.simulate_compute(20.0)
        return x * 2

    cloud.register(work, name="work")
    cluster.schedulers[0].pin_function("work", replicas=3)
    return cluster, cloud


def _work_request(cloud, ctx, index):
    return cloud.call("work", [index], ctx=ctx)


def _autoscaled_run(seed):
    cluster, _ = _make_cluster(seed=seed, executor_vms=2)
    config = MonitoringConfig(vms_per_scale_up=1,
                              node_startup_delay_ms=2_000.0,
                              max_vms=8)
    control = ComputeControlPlane(cluster, config=config,
                                  policy_interval_ms=1_000.0)
    driver = EngineLoadDriver(
        cluster, _work_request, clients=20,
        stop_ms=10_000.0, max_duration_ms=15_000.0,
        control_plane=control)
    sim = driver.run()
    return sim, control, cluster


class TestControlPlaneLoop:
    def test_scales_up_under_load_and_drains_after(self):
        sim, control, cluster = _autoscaled_run(seed=23)
        capacities = [capacity for _, capacity in sim.capacity_timeline]
        assert capacities[0] == 6
        assert max(capacities) > 6            # scale-up really added VMs
        assert len(cluster.vms) > 2
        assert capacities[-1] == MIN_PINNED_THREADS  # drained
        # The loop genuinely ran on the engine: publishes and policy ticks.
        assert control.published_ticks > 5
        assert len(control.history) > 5
        # Delayed scale-ups report back into their originating tick's entry.
        assert sum(r.vms_added for r in control.history) > 0

    def test_scale_down_migrates_pins_and_routes_no_drained_calls(self):
        _sim, control, cluster = _autoscaled_run(seed=23)
        assert len(control.migrations) > 0    # §4.4 pin migration observable
        assert control.calls_routed_to_drained() == 0
        # Migrated pins point at live threads only.
        scheduler = cluster.schedulers[0]
        live_ids = {t.thread_id for t in scheduler._live_threads()}
        for pins in scheduler.function_pins.values():
            assert set(pins) <= live_ids

    def test_autoscaling_control_plane_needs_finite_duration(self):
        cluster, _ = _make_cluster(seed=3)
        with pytest.raises(ValueError):
            EngineLoadDriver(cluster, _work_request, clients=1,
                             max_requests=10,
                             control_plane=ComputeControlPlane(cluster))


class TestControlPlaneDeterminism:
    def test_same_seed_identical_timelines_and_migration_log(self):
        sim_a, control_a, _ = _autoscaled_run(seed=13)
        sim_b, control_b, _ = _autoscaled_run(seed=13)
        assert sim_a.capacity_timeline == sim_b.capacity_timeline
        assert control_a.node_count_timeline == control_b.node_count_timeline
        assert control_a.migrations == control_b.migrations
        assert sim_a.latencies.samples_ms == sim_b.latencies.samples_ms

    def test_different_seed_differs(self):
        sim_a, _, _ = _autoscaled_run(seed=13)
        sim_b, _, _ = _autoscaled_run(seed=14)
        assert sim_a.latencies.samples_ms != sim_b.latencies.samples_ms


class TestControlPlaneParity:
    def test_publish_only_control_plane_changes_no_latency_sample(self, monkeypatch):
        # Sequential reference run.
        _cluster_a, cloud_a = _make_cluster(seed=21)
        sequential = run_closed_loop(
            "sequential", lambda i: cloud_a.call("work", [i]).latency_ms, 40)

        # 1-client engine run with the control plane attached but its policy
        # never acting: metrics publish and aggregate on the engine timeline,
        # yet every sample must match — control-plane traffic is uncharged,
        # unqueued background load.
        cluster_b, _cloud_b = _make_cluster(seed=21)
        control = ComputeControlPlane(cluster_b, policy_interval_ms=500.0)
        monkeypatch.setattr(control, "decide", lambda now_ms, metrics: None)
        driver = EngineLoadDriver(cluster_b, _work_request, clients=1,
                                  max_requests=40, max_duration_ms=5_000.0,
                                  control_plane=control)
        engine_run = driver.run()

        assert engine_run.completed_requests == 40
        assert engine_run.latencies.samples_ms == \
            pytest.approx(sequential.samples_ms)
        # The loop really ran (publishes and ticks on the shared timeline).
        assert control.published_ticks > 0
        assert control.history
        # ...and observed the cluster without touching it.
        assert control.scale_up_events == 0
        assert control.threads_drained_total == 0


class TestPublishedKeysInvariant:
    def test_every_alive_vm_is_published_whenever_the_plane_aggregates(
            self, monkeypatch):
        unpublished, passes = [], []
        aggregate = ComputeControlPlane.aggregate

        def checked(plane):
            kvs = plane.cluster.kvs
            now_ms = plane.cluster.engine.now_ms
            passes.append(now_ms)
            unpublished.extend(
                (now_ms, vm.vm_id) for vm in plane.cluster.vms
                if vm.alive and kvs.peek(EXECUTOR_METRICS_PREFIX + vm.vm_id) is None)
            unpublished.extend(
                (now_ms, s.scheduler_id) for s in plane.cluster.schedulers
                if kvs.peek(SCHEDULER_METRICS_PREFIX + s.scheduler_id) is None)
            return aggregate(plane)

        monkeypatch.setattr(ComputeControlPlane, "aggregate", checked)
        figure = next(f for f in FIGURES if f.sections[0] == "figure7_autoscaling")
        kwargs = figure.kwargs("smoke")
        kwargs.pop("sample_rate")
        section = run_figure7(seed=SMOKE_SEED, **kwargs)["figure7_autoscaling"]
        plane = section["controlplane"]
        # One pass seeds the baselines at start, then one per policy tick;
        # the run scaled both ways, so VMs booted and retired in between.
        assert len(passes) == plane["policy_ticks"] + 1
        assert plane["scale_up_events"] > 0 and plane["threads_drained"] > 0
        assert unpublished == []
