"""Integration tests for fault injection and §4.5 recovery.

Each fault class runs the retwis DAG workload with real failures landing
mid-flight and must come out whole: every injected fault recovered within
the bounded window, zero abandoned sessions, zero calls routed to dead
threads, the Table 2 invariants intact — and the whole fault timeline plus
the anomaly counters replayed sample-for-sample for the same seed.
"""

import pytest

from repro.bench.faultbench import (
    FAULT_CLASSES,
    _build_cluster,
    _run_fault_class,
    fault_recovery_errors,
    run_fault_recovery,
)
from repro.sim import FaultPlane, RandomSource

from internals import holders_implied_by, index_holders, snapshot_count


def _run(fault, seed=11, request_count=80):
    return _run_fault_class(
        fault, seed, request_count=request_count, clients=8, executor_vms=4,
        scheduler_count=2, user_count=20, seed_tweet_count=100,
        mean_interval_ms=15.0, downtime_ms=8.0, tick_interval_ms=4.0,
        propagation_interval_ms=50.0)


class TestEveryFaultClassRecovers:
    @pytest.mark.parametrize("fault", FAULT_CLASSES)
    def test_oracle_holds_under_fault(self, fault):
        result = _run(fault)
        faults = result["faults"]
        assert faults["injected"] > 0, "the run never exercised the class"
        assert faults["recovered"] == faults["injected"]
        assert faults["max_recovery_ms"] <= faults["recovery_bound_ms"]
        assert result["abandoned_sessions"] == 0
        assert result["calls_routed_to_dead"] == 0
        assert result["violations"] == []
        assert result["completed"] > 0
        # Every journaled session reached a terminal state.
        for journal in result["journals"]:
            assert journal["counts"]["running"] == 0

    def test_scheduler_crash_recovers_in_flight_sessions(self):
        result = _run("scheduler_crash")
        assert result["recovered_sessions"] > 0
        recovered = [session for journal in result["journals"]
                     for session in journal["sessions"]
                     if session["recoveries"] > 0]
        assert recovered
        for session in recovered:
            # The abandoned attempt stays in the history; the session itself
            # completed after recovery.
            assert session["status"] == "completed"
            assert any(attempt["status"] == "abandoned"
                       for attempt in session["attempts"])


class TestSeedDeterminism:
    def test_same_seed_identical_timeline_and_anomalies(self):
        first = _run("executor_kill", seed=21)
        second = _run("executor_kill", seed=21)
        assert first["faults"]["timeline"] == second["faults"]["timeline"]
        assert first["faults"]["timeline"], "no fault fired — vacuous test"
        assert first["anomalies"] == second["anomalies"]
        assert first["duration_ms"] == second["duration_ms"]

    def test_different_seed_differs(self):
        first = _run("executor_kill", seed=21)
        second = _run("executor_kill", seed=22)
        assert first["faults"]["timeline"] != second["faults"]["timeline"]


def _retwis_under_faults(seed, request_count, **plane_options):
    """A seeded Retwis timeline run with a ``FaultPlane`` armed throughout."""
    from repro.bench.harness import EngineLoadDriver

    cluster, _tracker, _app, generator, _tweets = _build_cluster(
        seed=seed, executor_vms=4, scheduler_count=2, user_count=20,
        seed_tweet_count=80, propagation_interval_ms=50.0)
    plane = FaultPlane(cluster, RandomSource(seed).spawn("fault-plane"),
                       **plane_options)
    stream = generator.request_stream(request_count)

    def request(cloud, ctx, index):
        req = stream[index % len(stream)]
        return cloud.call_dag(
            "retwis-timeline",
            {"fb_read_profile": [req.user], "fb_timeline": [req.user]},
            ctx=ctx)

    driver = EngineLoadDriver(cluster, request, clients=6,
                              max_requests=request_count)
    plane.start()
    try:
        driver.run()
    finally:
        plane.stop()
    return cluster, plane


class TestClusterWholeAfterRun:
    def test_faults_fully_unwound(self):
        # Run with every class enabled at an aggressive schedule, then check
        # the cluster handed back is whole: no dead VMs, no down schedulers,
        # no partitioned or missing storage replicas, no leaked snapshots.
        # With all four classes armed the per-class interval must leave the
        # cluster healthy most of the time, or recovery (which rightly does
        # not burn the retry budget) livelocks the workload.
        cluster, plane = _retwis_under_faults(
            5, 60, mean_interval_ms=40.0, downtime_ms=6.0, tick_interval_ms=3.0)
        assert plane.injected_count() > 0
        assert plane.recovered_count() == plane.injected_count()
        assert all(vm.alive for vm in cluster.vms)
        assert all(s.alive for s in cluster.schedulers)
        assert cluster.kvs.partitioned_nodes() == []
        assert cluster.kvs.node_count() == 4
        assert cluster.abandoned_session_count() == 0
        for vm in cluster.vms:
            assert snapshot_count(vm.cache) == 0

    def test_the_key_to_cache_index_lists_exactly_the_open_caches(self):
        # No cache re-publishes its key set: the index is kept only by each
        # cache's stores, evictions, clears (a killed VM recovers cold) and
        # close (a drained VM), so after kills and a drain it must still
        # list, for every key, exactly the open caches holding it.
        cluster, plane = _retwis_under_faults(
            7, 80, classes=("executor_kill",), mean_interval_ms=15.0,
            downtime_ms=8.0, tick_interval_ms=4.0)
        assert plane.recovered_count() == plane.injected_count() > 0
        drained = cluster.vms[-1]
        assert drained.cache.cached_keys(), "the drained cache held nothing"
        cluster.drain_vm(drained)

        holders = index_holders(cluster.kvs)
        assert all(drained.cache.cache_id not in caches
                   for caches in holders.values())
        assert holders == holders_implied_by(vm.cache for vm in cluster.vms)

    def test_gate_over_reduced_section(self):
        section = run_fault_recovery(
            seed=3, request_count=80, clients=8,
            fault_classes=("executor_kill", "scheduler_crash"),
            mean_interval_ms=15.0, downtime_ms=8.0, tick_interval_ms=4.0,
            determinism_check=True)
        assert fault_recovery_errors(section) == []
        # A section that does not declare its class list is held to the full
        # default matrix — missing classes are gate errors, not silent passes.
        undeclared = {key: value for key, value in section.items()
                      if key != "fault_classes"}
        errors = fault_recovery_errors(undeclared)
        assert "fault_recovery[storage_drop]: class was not run" in errors
        assert "fault_recovery[gossip_partition]: class was not run" in errors
