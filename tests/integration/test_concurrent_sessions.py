"""Integration tests for concurrent DAG sessions (§6.2).

These pin the acceptance properties of the futures-first invocation path
(``cloud.call_dag`` returning a pending :class:`CloudburstFuture` whose DAG
runs as engine events):

* a plain top-level loop of invocations and a one-client driver run are the
  same closed loop, sample for sample;
* concurrent sessions genuinely interleave on shared caches — the LWW
  control observes repeatable-read mismatches that the RR protocol prevents;
* sessions never observe each other's pinned snapshots, and every session's
  snapshots are evicted at finalize even with many sessions in flight;
* Table 2 anomaly counts are deterministic for a fixed seed;
* scale-down closes drained VMs' caches (no dangling update listeners).
"""

import pytest

from repro.anna import AnnaCluster
from repro.bench.consistency_bench import _build_workload
from repro.bench.harness import EngineLoadDriver
from repro.bench import run_table2
from repro.cloudburst import CloudburstCluster, ConsistencyLevel
from repro.cloudburst.controlplane import ComputeControlPlane
from repro.cloudburst.controlplane import MonitoringConfig
from repro.cloudburst.journal import MAX_RETRIES
from repro.sim import RandomSource

from engine_time import at_engine_time
from one_client import one_client_driver_latencies, top_level_latencies


def _session_cluster(level, seed=29, **kwargs):
    cluster = CloudburstCluster(
        executor_vms=3, threads_per_vm=2, consistency=level, seed=seed,
        anna_propagation=AnnaCluster.PROPAGATE_PERIODIC,
        propagation_interval_ms=20.0, **kwargs)
    cloud = cluster.connect()
    cloud.put("shared", "v0")

    def read_key(cloudburst, key):
        return cloudburst.get(key)

    def read_write(cloudburst, upstream_value, key, token):
        value = cloudburst.get(key)
        cloudburst.put(key, token)
        return (upstream_value, value)

    cloud.register(read_key, name="read_key")
    cloud.register(read_write, name="read_write")
    cloud.register_dag("session-dag", ["read_key", "read_write"],
                       [("read_key", "read_write")])
    return cluster


def _drive_sessions(cluster, level, sessions=60, clients=6):
    outcomes = []
    concurrency = []

    def request(cloud, ctx, index):
        concurrency.append(driver.inflight)
        future = cloud.call_dag(
            "session-dag",
            {"read_key": ["shared"], "read_write": ["shared", f"token-{index}"]},
            consistency=level, ctx=ctx)
        future.add_done_callback(
            lambda f: outcomes.append(f.result().value)
            if f.exception() is None else None)
        return future

    driver = EngineLoadDriver(cluster, request, clients=clients,
                              max_requests=sessions)
    driver.run()
    return outcomes, concurrency


class TestTopLevelLoopIsOneClient:
    """With one client and immediate propagation there is no interleaving and
    no staleness: a plain loop of blocking invocations and a ``clients=1``
    driver run on identically seeded clusters agree sample for sample."""

    REQUESTS = 40

    def _dag_workload(self, level, seed=4):
        cluster, _client, workload, dags = _build_workload(
            level, dag_count=8, populated_keys=100, executor_vms=3, seed=seed,
            anomaly_tracker=None, propagation=AnnaCluster.PROPAGATE_IMMEDIATE)
        rng = RandomSource(seed).spawn("dag-choice")

        def request(cloud, ctx, _index):
            dag = rng.choice(dags)
            function_args, _sink_key = workload.sample_request(dag)
            return cloud.call_dag(dag.name, function_args, consistency=level,
                                  ctx=ctx)

        return cluster, request

    def _call_workload(self, level, seed=4):
        cluster = CloudburstCluster(executor_vms=3, consistency=level, seed=seed)
        setup = cluster.connect("setup", consistency=level)
        for index in range(10):
            setup.put(f"key-{index}", index)

        def read_write(cloudburst, key, value):
            previous = cloudburst.get(key)
            cloudburst.put(key, value)
            return previous

        setup.register(read_write, name="read_write")

        def request(cloud, ctx, index):
            return cloud.call("read_write", [f"key-{index % 10}", index],
                              consistency=level, ctx=ctx)

        return cluster, request

    @pytest.mark.parametrize("level", list(ConsistencyLevel))
    @pytest.mark.parametrize("invocation", ["call", "call_dag"])
    def test_sample_for_sample(self, invocation, level):
        build = (self._call_workload if invocation == "call"
                 else self._dag_workload)
        top_level = top_level_latencies(*build(level), self.REQUESTS)
        driven = one_client_driver_latencies(*build(level), self.REQUESTS)
        assert len(top_level) == self.REQUESTS
        assert driven == pytest.approx(top_level, rel=1e-9)


class TestInterleavedSessions:
    def test_sessions_really_overlap(self):
        cluster = _session_cluster(ConsistencyLevel.LWW)
        _, concurrency = _drive_sessions(cluster, ConsistencyLevel.LWW)
        assert max(concurrency) > 1  # multiple sessions in flight at once

    def test_lww_control_observes_mismatched_reads(self):
        # Control experiment: under LWW, interleaved writers make the two
        # reads of one session disagree — proof the sessions interleave.
        cluster = _session_cluster(ConsistencyLevel.LWW)
        outcomes, _ = _drive_sessions(cluster, ConsistencyLevel.LWW)
        mismatches = sum(1 for first, second in outcomes if first != second)
        assert mismatches > 0

    def test_repeatable_read_holds_under_concurrency(self):
        # The same interleaving pressure, but under the RR protocol: every
        # session's two reads must agree despite concurrent sessions writing
        # the key between its functions.
        cluster = _session_cluster(ConsistencyLevel.DISTRIBUTED_SESSION_RR)
        outcomes, _ = _drive_sessions(cluster,
                                      ConsistencyLevel.DISTRIBUTED_SESSION_RR)
        assert len(outcomes) == 60
        for first, second in outcomes:
            assert first == second, \
                "repeatable read must pin one version per session"

    def test_snapshots_evicted_per_session_under_concurrency(self):
        cluster = _session_cluster(ConsistencyLevel.DISTRIBUTED_SESSION_RR)
        outcomes, _ = _drive_sessions(cluster,
                                      ConsistencyLevel.DISTRIBUTED_SESSION_RR)
        assert len(outcomes) == 60
        # All sessions finalized: no cache may retain any pinned snapshot.
        for vm in cluster.vms:
            assert vm.cache.snapshot_count() == 0

    def test_finalized_session_snapshots_invisible_to_inflight_session(self):
        # Two manually staggered sessions: A finalizes while B is still in
        # flight; at that moment no cache may hold A's pins, while B's own
        # pins survive until B finalizes.
        cluster = _session_cluster(ConsistencyLevel.DISTRIBUTED_SESSION_RR)
        scheduler = cluster.schedulers[0]
        engine = cluster.engine
        states = {}

        def complete_a(future):
            result = future.result()
            states["a_done"] = True
            for vm in cluster.vms:
                assert vm.cache.get_snapshot(result.execution_id, "shared") is None
            # B is still in flight and owns every surviving snapshot.
            b_exec = states["b"].state.execution_id
            surviving = sum(vm.cache.snapshot_count() for vm in cluster.vms)
            b_pins = sum(
                1 for vm in cluster.vms
                if vm.cache.get_snapshot(b_exec, "shared") is not None)
            assert surviving == b_pins > 0

        args_a = {"read_key": ["shared"], "read_write": ["shared", "token-a"]}
        args_b = {"read_key": ["shared"], "read_write": ["shared", "token-b"]}
        states["a"] = scheduler.call_dag(
            "session-dag", args_a, consistency=ConsistencyLevel.DISTRIBUTED_SESSION_RR,
            ctx=at_engine_time(scheduler))
        states["a"].future.add_done_callback(complete_a)
        # B starts mid-way through A and finishes later (long think between
        # stages comes from queueing both sessions on two-thread VMs).
        engine.at(engine.now_ms + 0.5, lambda: states.__setitem__(
            "b", scheduler.call_dag(
                "session-dag", args_b,
                consistency=ConsistencyLevel.DISTRIBUTED_SESSION_RR,
                ctx=at_engine_time(scheduler))))
        engine.run()
        assert states.get("a_done")
        assert states["b"].future.done()
        for vm in cluster.vms:
            assert vm.cache.snapshot_count() == 0


class TestSessionFailureIsolation:
    def _flaky_cluster(self):
        cluster = CloudburstCluster(executor_vms=2, threads_per_vm=2, seed=9)
        cloud = cluster.connect()

        def flaky(cloudburst):
            from repro.errors import ExecutorFailedError
            raise ExecutorFailedError(cloudburst.get_id(), "injected fault")

        cloud.register(flaky, name="flaky")
        cloud.register_dag("flaky-dag", ["flaky"])
        return cluster

    def test_retry_exhaustion_resolves_the_future_not_engine_abort(self):
        cluster = self._flaky_cluster()
        scheduler = cluster.schedulers[0]
        errors = []
        session = scheduler.call_dag("flaky-dag", ctx=at_engine_time(scheduler))
        session.future.add_done_callback(lambda f: errors.append(f.exception()))
        cluster.engine.run()
        assert session.future.done() and not session.future.is_ready()
        assert len(errors) == 1
        assert "failed after" in str(errors[0])
        assert session.retries == MAX_RETRIES + 1
        # Every abandoned attempt released its session state.
        for vm in cluster.vms:
            assert vm.cache.snapshot_count() == 0

    def test_retry_exhaustion_resolves_the_client_future_with_the_error(self):
        from repro.errors import DagExecutionError

        cluster = self._flaky_cluster()
        cloud = cluster.connect()
        future = cloud.call_dag("flaky-dag")
        assert not future.done()
        cluster.engine.run()
        assert future.done() and not future.is_ready()
        assert isinstance(future.exception(), DagExecutionError)
        with pytest.raises(DagExecutionError):
            future.get()

    def test_unobserved_failure_lets_the_run_finish_beside_a_healthy_session(self):
        # No engine event raises an invocation's failure: nobody subscribes
        # to the failing session, yet engine.run() drains and a concurrent
        # healthy session completes; the error waits on the failed future.
        from repro.errors import DagExecutionError

        cluster = self._flaky_cluster()
        cluster.connect().register(lambda x: x + 1, name="inc")
        cluster.connect().register_dag("inc-dag", ["inc"])
        scheduler = cluster.schedulers[0]
        failed = scheduler.call_dag("flaky-dag", ctx=at_engine_time(scheduler))
        healthy = scheduler.call_dag("inc-dag", {"inc": [41]},
                                     ctx=at_engine_time(scheduler))
        cluster.engine.run()
        assert healthy.future.get() == 42
        error = failed.future.exception()
        assert isinstance(error, DagExecutionError)
        with pytest.raises(DagExecutionError) as raised:
            failed.future.result()
        assert raised.value is error

    def _reading_flaky_cluster(self):
        from repro.cloudburst import AnomalyTracker

        cluster = CloudburstCluster(
            executor_vms=2, threads_per_vm=2, seed=9,
            consistency=ConsistencyLevel.DISTRIBUTED_SESSION_RR,
            anomaly_tracker=AnomalyTracker())
        cloud = cluster.connect()
        cloud.put("shared-key", 41)

        def read_then_die(cloudburst):
            from repro.errors import ExecutorFailedError
            # The read pins an RR snapshot and lands a shadow read in the
            # anomaly tracker before the executor dies.
            cloudburst.get("shared-key")
            raise ExecutorFailedError(cloudburst.get_id(), "injected fault")

        cloud.register(read_then_die, name="read_then_die")
        cloud.register_dag("read-die-dag", ["read_then_die"])
        return cluster

    def _assert_no_leaked_session_state(self, cluster):
        for vm in cluster.vms:
            assert vm.cache.snapshot_count() == 0
        assert cluster.anomaly_tracker._reads_by_execution == {}

    def test_failed_dag_attempts_leak_no_snapshots_or_shadow_reads(self):
        # Satellite of the fault-plane PR: every abandoned attempt must
        # release its session (snapshot pins evicted, shadow reads dropped
        # from the tracker) *before* the error reaches the caller.
        cluster = self._reading_flaky_cluster()
        scheduler = cluster.schedulers[0]
        errors = []
        in_error_callback = {}

        def on_error(error):
            errors.append(error)
            # The release must have happened before the future resolves.
            in_error_callback["snapshots"] = [
                vm.cache.snapshot_count() for vm in cluster.vms]
            in_error_callback["tracked_reads"] = dict(
                cluster.anomaly_tracker._reads_by_execution)

        scheduler.call_dag("read-die-dag", ctx=at_engine_time(scheduler)
                           ).future.add_done_callback(lambda f: on_error(f.exception()))
        cluster.engine.run()
        assert len(errors) == 1
        assert in_error_callback["snapshots"] == [0] * len(cluster.vms)
        assert in_error_callback["tracked_reads"] == {}
        self._assert_no_leaked_session_state(cluster)

    def test_failed_sync_call_leaks_no_snapshots_or_shadow_reads(self):
        from repro.errors import DagExecutionError

        cluster = self._reading_flaky_cluster()
        scheduler = cluster.schedulers[0]
        with pytest.raises(DagExecutionError):
            scheduler.call("read_then_die", ctx=at_engine_time(scheduler)).future.result()
        self._assert_no_leaked_session_state(cluster)

class TestTable2Determinism:
    def test_same_seed_same_anomaly_counts(self):
        kwargs = dict(executions=200, dag_count=20, populated_keys=150,
                      executor_vms=3, seed=11)
        first = run_table2(**kwargs)
        assert first == run_table2(**kwargs)
        assert first["table2_anomalies"]["executions"] == 200

    def test_anomaly_ordering_matches_paper(self):
        section = run_table2(executions=300, dag_count=25, populated_keys=200,
                             executor_vms=3, seed=2)["table2_anomalies"]
        assert section["invariant_violations"] == []


class TestScaleDownClosesCaches:
    def test_drain_vm_closes_cache(self):
        cluster = CloudburstCluster(executor_vms=2, threads_per_vm=2, seed=3)
        vm = cluster.vms[-1]
        survivor = cluster.vms[0]
        client = cluster.connect()
        client.put("k", "v1")
        with cluster.request() as ctx:
            vm.cache.get_or_fetch("k", ctx)
        cluster.drain_vm(vm)
        assert vm.cache.closed
        assert vm.cache.cache_id not in cluster.cache_registry
        # Subsequent writes no longer push updates into the drained cache.
        client.put("k", "v2")
        assert vm.cache.stats.update_pushes_received == 0
        assert survivor.cache.cache_id in cluster.cache_registry

    def test_driver_drain_closes_fully_drained_vm_caches(self):
        cluster = CloudburstCluster(executor_vms=3, threads_per_vm=2, seed=23)
        setup = cluster.connect("setup")

        def work(cloudburst, x):
            cloudburst.simulate_compute(20.0)
            return x

        setup.register(work, name="work")
        config = MonitoringConfig(vms_per_scale_up=1,
                                  node_startup_delay_ms=2_000.0, max_vms=6)
        driver = EngineLoadDriver(
            cluster, lambda cloud, ctx, index: cloud.call("work", [index], ctx=ctx),
            clients=12, stop_ms=6_000.0, max_duration_ms=10_000.0,
            control_plane=ComputeControlPlane(
                cluster, config=config, policy_interval_ms=1_000.0))
        driver.run()
        drained = [vm for vm in cluster.vms
                   if not any(thread.alive for thread in vm.threads)]
        assert drained, "the drain policy should have retired at least one VM"
        for vm in drained:
            assert vm.cache.closed
            assert vm.cache.cache_id not in cluster.cache_registry
        live = [vm for vm in cluster.vms if any(t.alive for t in vm.threads)]
        for vm in live:
            assert not vm.cache.closed
