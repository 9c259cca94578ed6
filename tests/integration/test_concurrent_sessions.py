"""Integration tests for engine-driven concurrent DAG sessions (§6.2).

These pin the acceptance properties of the futures-first engine path
(``cloud.call_dag`` returning a pending :class:`CloudburstFuture` whose DAG
runs as engine events):

* a single session client reproduces the sequential ``call_dag`` accounting
  exactly (the cross-check path);
* concurrent sessions genuinely interleave on shared caches — the LWW
  control observes repeatable-read mismatches that the RR protocol prevents;
* sessions never observe each other's pinned snapshots, and every session's
  snapshots are evicted at finalize even with many sessions in flight;
* Table 2 anomaly counts are deterministic for a fixed seed under the engine
  driver;
* scale-down closes drained VMs' caches (no dangling update listeners).
"""

import pytest

from repro.anna import AnnaCluster
from repro.bench.consistency_bench import _run_level_engine, _run_level_sequential
from repro.bench.harness import EngineLoadDriver
from repro.bench import run_table2
from repro.cloudburst import CloudburstCluster, ConsistencyLevel
from repro.cloudburst.controlplane import ComputeControlPlane
from repro.cloudburst.monitoring import MonitoringConfig
from repro.sim import Engine


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


class TestSingleClientCrossCheck:
    @pytest.mark.parametrize("level", [
        ConsistencyLevel.LWW,
        ConsistencyLevel.DISTRIBUTED_SESSION_RR,
        ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL,
    ])
    def test_engine_single_client_matches_sequential(self, level):
        # With one client and immediate propagation there is no interleaving
        # and no staleness, so the engine-driven path must reproduce the
        # sequential call_dag latencies sample for sample.
        sequential = _run_level_sequential(
            level, dag_count=8, requests=40, populated_keys=100,
            executor_vms=3, seed=4, propagation_flush_every=0)
        engine = _run_level_engine(
            level, dag_count=8, requests=40, populated_keys=100,
            executor_vms=3, seed=4, clients=1, propagation_interval_ms=0.0)
        assert engine["recorder"].samples_ms == \
            pytest.approx(sequential["recorder"].samples_ms)


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
        engine = Engine()
        cluster.attach_engine(engine)
        states = {}

        def complete_a(result):
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
            engine=engine, on_complete=complete_a)
        # B starts mid-way through A and finishes later (long think between
        # stages comes from queueing both sessions on two-thread VMs).
        engine.at(0.5, lambda: states.__setitem__("b", scheduler.call_dag(
            "session-dag", args_b,
            consistency=ConsistencyLevel.DISTRIBUTED_SESSION_RR, engine=engine)))
        engine.run()
        cluster.detach_engine()
        assert states.get("a_done")
        assert states["b"].done
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

    def test_retry_exhaustion_goes_to_on_error_not_engine_abort(self):
        cluster = self._flaky_cluster()
        scheduler = cluster.schedulers[0]
        engine = Engine()
        cluster.attach_engine(engine)
        errors = []
        session = scheduler.call_dag(
            "flaky-dag", engine=engine, on_error=errors.append)
        engine.run()
        cluster.detach_engine()
        assert session.done and session.result is None
        assert len(errors) == 1
        assert "failed after" in str(errors[0])
        assert session.retries == scheduler.max_retries + 1
        # Every abandoned attempt released its session state.
        for vm in cluster.vms:
            assert vm.cache.snapshot_count() == 0

    def test_retry_exhaustion_resolves_the_client_future_with_the_error(self):
        from repro.errors import DagExecutionError

        cluster = self._flaky_cluster()
        cloud = cluster.connect()
        engine = Engine()
        cluster.attach_engine(engine)
        future = cloud.call_dag("flaky-dag")
        assert not future.done()
        engine.run()
        cluster.detach_engine()
        assert future.done() and not future.is_ready()
        assert isinstance(future.exception(), DagExecutionError)
        with pytest.raises(DagExecutionError):
            future.get()

    def test_without_on_error_the_failure_raises(self):
        from repro.errors import DagExecutionError

        cluster = self._flaky_cluster()
        scheduler = cluster.schedulers[0]
        engine = Engine()
        cluster.attach_engine(engine)
        scheduler.call_dag("flaky-dag", engine=engine)
        with pytest.raises(DagExecutionError):
            engine.run()
        cluster.detach_engine()

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
        engine = Engine()
        cluster.attach_engine(engine)
        errors = []
        in_error_callback = {}

        def on_error(error):
            errors.append(error)
            # The release must have happened before the future resolves.
            in_error_callback["snapshots"] = [
                vm.cache.snapshot_count() for vm in cluster.vms]
            in_error_callback["tracked_reads"] = dict(
                cluster.anomaly_tracker._reads_by_execution)

        scheduler.call_dag("read-die-dag", engine=engine, on_error=on_error)
        engine.run()
        cluster.detach_engine()
        assert len(errors) == 1
        assert in_error_callback["snapshots"] == [0] * len(cluster.vms)
        assert in_error_callback["tracked_reads"] == {}
        self._assert_no_leaked_session_state(cluster)

    def test_failed_sync_call_leaks_no_snapshots_or_shadow_reads(self):
        from repro.errors import DagExecutionError

        cluster = self._reading_flaky_cluster()
        scheduler = cluster.schedulers[0]
        with pytest.raises(DagExecutionError):
            scheduler.call("read_then_die")
        self._assert_no_leaked_session_state(cluster)

class TestTable2Determinism:
    def test_same_seed_same_anomaly_counts(self):
        kwargs = dict(executions=200, dag_count=20, populated_keys=150,
                      executor_vms=3, seed=11)
        first = run_table2(**kwargs)
        second = run_table2(**kwargs)
        assert first.as_row() == second.as_row()
        assert first.executions == second.executions == 200

    def test_anomaly_ordering_matches_paper(self):
        report = run_table2(executions=300, dag_count=25, populated_keys=200,
                            executor_vms=3, seed=2)
        assert report.invariant_violations() == []

    def test_inapplicable_driver_knobs_rejected(self):
        with pytest.raises(ValueError):
            run_table2(executions=10, driver="engine", flush_every=5)
        with pytest.raises(ValueError):
            run_table2(executions=10, driver="sequential", clients=4)
        with pytest.raises(ValueError):
            run_table2(executions=10, driver="sequential",
                       propagation_interval_ms=25.0)


class TestScaleDownClosesCaches:
    def test_remove_vm_closes_cache(self):
        cluster = CloudburstCluster(executor_vms=2, threads_per_vm=2, seed=3)
        vm = cluster.vms[-1]
        survivor = cluster.vms[0]
        client = cluster.connect()
        client.put("k", "v1")
        vm.cache.get_or_fetch("k")
        cluster.remove_vm(vm.vm_id)
        assert vm.cache.closed
        assert vm.cache.cache_id not in cluster.cache_registry
        # Subsequent writes no longer push updates into the removed cache.
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
                cluster, config=config, policy_interval_ms=1_000.0,
                min_threads=2))
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
