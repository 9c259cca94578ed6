"""Integration tests for the multi-client load driver.

These pin down the acceptance properties of the event-engine refactor, now
expressed through the futures-first client API (the driver constructs one
CloudburstClient per simulated client; request fns never touch a Scheduler):

* a single driver client reproduces a plain top-level loop's
  ``RequestContext`` accounting exactly, and leaves the cluster's clock where
  its last request completed;
* concurrency creates real queueing (latency up, throughput capacity-bound)
  through the actual scheduler -> executor -> cache -> Anna stack;
* seeded runs are deterministic across invocations;
* the autoscaling path adds and drains real VMs;
* every driver keeps exact samples, so the scaling points' percentiles are
  exact ones.
"""

import pytest

from repro.bench import casestudies
from repro.bench.figures import SMOKE_SEED
from repro.bench.harness import (
    EngineLoadDriver,
    build_cluster_with_threads,
    run_closed_loop,
)
from repro.cloudburst import CloudburstCluster
from repro.cloudburst.controlplane import ComputeControlPlane
from repro.cloudburst.controlplane import MIN_PINNED_THREADS, MonitoringConfig
from repro.cloudburst.journal import MAX_RETRIES
from repro.sim import percentile

import charges


def _make_cluster(seed=11, executor_vms=2, threads_per_vm=3):
    cluster = CloudburstCluster(executor_vms=executor_vms,
                                threads_per_vm=threads_per_vm, seed=seed)
    cloud = cluster.connect("setup")

    def work(cloudburst, x):
        cloudburst.simulate_compute(20.0)
        return x * 2

    cloud.register(work, name="work")
    return cluster, cloud


def _work_request(cloud, ctx, index):
    return cloud.call("work", [index], ctx=ctx)


class TestSingleClientEquivalence:
    def test_matches_sequential_accounting(self):
        # Two identically seeded clusters: one driven by a plain top-level
        # loop, one by a single driver client.  With one client there is
        # never queueing, so the latency sequences must agree sample for
        # sample.
        _cluster_a, cloud_a = _make_cluster(seed=21)
        sequential = run_closed_loop(
            "sequential", lambda i: cloud_a.call("work", [i]).latency_ms, 40)

        cluster_b, _cloud_b = _make_cluster(seed=21)
        engine_run = EngineLoadDriver(
            cluster_b, _work_request, clients=1, max_requests=40).run()

        assert engine_run.latencies.samples_ms == \
            pytest.approx(sequential.samples_ms)

    def test_top_level_call_after_a_run_meets_no_leftover_queueing(self):
        # The driver's calls run in-line, ahead of the engine's clock; the
        # run ends with the engine caught up to the last response, so the
        # next request is not issued before the previous one completed (on
        # this one-thread cluster it would queue behind it).
        cluster, cloud = _make_cluster(seed=5, executor_vms=1, threads_per_vm=1)
        driver = EngineLoadDriver(cluster, _work_request, clients=1,
                                  max_requests=4)
        simulation = driver.run()
        assert cluster.engine.now_ms == pytest.approx(
            driver.started_ms + simulation.duration_ms)
        result = cloud.call("work", [3]).result()
        assert result.value == 6
        assert charges.total(result.ctx, "cloudburst", "executor_queue") == 0.0

    def test_past_reservations_do_not_read_as_load_after_a_run(self):
        # One monotonic clock: the run's reservations are history, so no
        # thread reads as busy or full at the cluster's current time and
        # locality scheduling keeps working — nothing had to be reset.
        cluster, cloud = _make_cluster(seed=31)
        EngineLoadDriver(
            cluster, _work_request, clients=6, max_requests=60).run()
        now_ms = cluster.engine.now_ms
        for vm in cluster.vms:
            assert vm.utilization() == 0.0
            for thread in vm.threads:
                assert not thread.work_queue.busy_at(now_ms)
                assert thread.work_queue.depth(now_ms) == 0
        cloud.put("hot", [1, 2, 3])
        cloud.register(lambda data: sum(data), name="summer")
        from repro.cloudburst import CloudburstReference

        reference = CloudburstReference("hot")
        cloud.call("summer", [reference])
        for _ in range(4):
            cloud.call("summer", [reference])
        assert sum(s.stats.locality_hits for s in cluster.schedulers) >= 1


class TestContention:
    def test_oversubscription_queues_and_caps_throughput(self):
        cluster, _ = _make_cluster(seed=7, executor_vms=1, threads_per_vm=2)
        light = EngineLoadDriver(cluster, _work_request, clients=1,
                                 max_requests=60).run()
        cluster2, _ = _make_cluster(seed=7, executor_vms=1, threads_per_vm=2)
        heavy = EngineLoadDriver(cluster2, _work_request, clients=8,
                                 max_requests=60).run()
        # 8 clients over 2 threads: latency inflates with queueing delay...
        assert heavy.latencies.summary().median_ms > \
            2 * light.latencies.summary().median_ms
        # ...and throughput is capacity-bound near 2 threads' worth.
        per_thread = 1000.0 / light.latencies.summary().median_ms
        assert heavy.overall_throughput_per_s < 2.6 * per_thread
        assert heavy.overall_throughput_per_s > 1.4 * per_thread

    def test_queue_wait_is_charged_to_the_request(self):
        cluster, _ = _make_cluster(seed=9, executor_vms=1, threads_per_vm=1)
        waits = []

        def request(cloud, ctx, index):
            future = cloud.call("work", [index], ctx=ctx)
            waits.append(charges.total(future.result().ctx, "cloudburst", "executor_queue"))
            return future

        EngineLoadDriver(cluster, request, clients=4, max_requests=20).run()
        assert any(wait > 0 for wait in waits)


class TestDeterminism:
    def _drive(self, seed):
        cluster, _ = _make_cluster(seed=seed, executor_vms=2)
        return EngineLoadDriver(cluster, _work_request, clients=6,
                                max_requests=80).run()

    def test_same_seed_identical_latency_sequence(self):
        first = self._drive(13)
        second = self._drive(13)
        assert first.latencies.samples_ms == second.latencies.samples_ms
        assert first.duration_ms == second.duration_ms

    def test_different_seed_differs(self):
        assert self._drive(13).latencies.samples_ms != \
            self._drive(14).latencies.samples_ms


class TestDriverAutoscaling:
    def test_policy_adds_real_vms_and_drains(self):
        cluster, _ = _make_cluster(seed=23, executor_vms=2)
        config = MonitoringConfig(vms_per_scale_up=1,
                                  node_startup_delay_ms=2_000.0,
                                  max_vms=8)
        driver = EngineLoadDriver(
            cluster, _work_request, clients=20,
            stop_ms=10_000.0, max_duration_ms=15_000.0,
            control_plane=ComputeControlPlane(
                cluster, config=config, policy_interval_ms=1_000.0))
        sim = driver.run()
        capacities = [capacity for _, capacity in sim.capacity_timeline]
        assert capacities[0] == 6
        assert max(capacities) > 6          # scale-up really added VMs
        assert len(cluster.vms) > 2
        assert capacities[-1] == MIN_PINNED_THREADS  # drained

    def test_invalid_configuration_rejected(self):
        cluster, _ = _make_cluster(seed=3)
        with pytest.raises(ValueError):
            EngineLoadDriver(cluster, lambda c, ctx, i: None, clients=0)
        with pytest.raises(ValueError):
            EngineLoadDriver(cluster, lambda c, ctx, i: None, clients=1)
        with pytest.raises(ValueError):
            EngineLoadDriver(cluster, lambda c, ctx, i: None, clients=1,
                             max_requests=10,
                             control_plane=ComputeControlPlane(cluster))


class TestExactPercentiles:
    @pytest.mark.parametrize("keep", [False, 0, None])
    def test_a_driver_that_would_not_keep_samples_is_refused(self, keep):
        cluster, _ = _make_cluster(seed=3)
        EngineLoadDriver(cluster, _work_request, max_requests=10,
                         keep_latency_samples=True)
        with pytest.raises(ValueError, match="DR-34"):
            EngineLoadDriver(cluster, _work_request, max_requests=10,
                             keep_latency_samples=keep)

    @pytest.mark.parametrize("run, budget", [
        (casestudies.run_figure10, dict(thread_counts=(12,), requests_per_point=200)),
        (casestudies.run_figure12, dict(thread_counts=(10,), requests_per_point=400,
                                        user_count=120, seed_tweets=400)),
    ], ids=["figure10", "figure12"])
    def test_a_scaling_point_reports_its_exact_percentiles(self, monkeypatch,
                                                           run, budget):
        results = []

        class RecordingDriver(EngineLoadDriver):
            def run(self):
                results.append(super().run())
                return results[-1]

        monkeypatch.setattr(casestudies, "EngineLoadDriver", RecordingDriver)
        (section,) = run(seed=SMOKE_SEED, **budget).values()
        (point,) = section["points"]
        (sim,) = results
        samples = sim.latencies.samples_ms
        assert len(samples) == budget["requests_per_point"]
        assert point["median_ms"] == round(percentile(samples, 50), 3)
        assert point["p99_ms"] == round(percentile(samples, 99), 3)


class TestBuildClusterWithThreads:
    def test_exact_totals(self):
        for total in (1, 2, 3, 4, 10):
            cluster = build_cluster_with_threads(total, threads_per_vm=3, seed=1)
            assert cluster.live_thread_count() == total

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_cluster_with_threads(0)


class TestSynchronousRequestFailure:
    def test_exhausted_call_counts_as_failed_and_the_run_goes_on(self):
        # A ``call`` follows the session's one failure rule: a saturated
        # replica set fails the attempt, pays the fault timeout and retries;
        # exhaustion raises DagExecutionError out of the synchronous call.
        # The driver must book that as one failed request, not let it unwind
        # engine.run() for every other client.
        from repro.errors import StorageOverloadError

        cluster, cloud = _make_cluster()
        cluster.schedulers[0].fault_timeout_ms = 5.0

        def sometimes_overloaded(cloudburst, index):
            if index % 4 == 0:
                raise StorageOverloadError("hot-key", ["anna-0", "anna-1"])
            return index

        cloud.register(sometimes_overloaded, name="sometimes_overloaded")
        driver = EngineLoadDriver(
            cluster,
            lambda cloud, ctx, index: cloud.call("sometimes_overloaded",
                                                 [index], ctx=ctx),
            clients=3, max_requests=24)
        driver.run()
        assert driver.issued == 24
        assert driver.failed == 6
        assert driver.completed == 18
        assert cluster.abandoned_session_count() == 0
        scheduler = cluster.schedulers[0]
        failed = [record for record in scheduler.journal.records()
                  if record.status == "failed"]
        assert len(failed) == 6
        assert all(record.retries == MAX_RETRIES + 1
                   for record in failed)
