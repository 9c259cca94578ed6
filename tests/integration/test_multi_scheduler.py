"""Multi-scheduler round-robin coverage (satellite of the futures-first API).

A Cloudburst deployment runs several independent schedulers; clients
round-robin their requests across all of them (§4.3).  These tests pin the
property the public API promises: N clients over M schedulers agree on the
registered functions and DAGs, and an invocation produces the identical
result no matter which scheduler happens to serve it — sequentially and on
the engine backend.
"""

import pytest

from repro.bench.harness import EngineLoadDriver
from repro.cloudburst import CloudburstCluster
from repro.errors import DagDeletedError

SCHEDULERS = 3
CLIENTS = 6


@pytest.fixture
def cluster():
    return CloudburstCluster(executor_vms=3, threads_per_vm=2,
                             scheduler_count=SCHEDULERS, seed=7)


@pytest.fixture
def clients(cluster):
    return [cluster.connect(f"client-{i}") for i in range(CLIENTS)]


def _register_pipeline(owner):
    owner.register(lambda x: x + 1, name="inc")
    owner.register(lambda x: x * 3, name="triple")
    owner.register_dag("pipe", ["inc", "triple"], [("inc", "triple")])


class TestSchedulerAgreement:
    def test_functions_and_dags_visible_on_every_scheduler(self, cluster, clients):
        _register_pipeline(clients[0])
        for scheduler in cluster.schedulers:
            assert "inc" in scheduler.functions
            assert "triple" in scheduler.functions
            assert scheduler.dag_registry.get("pipe").name == "pipe"

    def test_identical_results_regardless_of_serving_scheduler(self, cluster, clients):
        _register_pipeline(clients[0])
        # Each call round-robins to a different scheduler; 2 * M calls per
        # client guarantees every (client, scheduler) pairing is exercised.
        for cloud in clients:
            values = [cloud.call_dag("pipe", {"inc": [4]}).value
                      for _ in range(2 * SCHEDULERS)]
            assert values == [15] * (2 * SCHEDULERS)
        served = [s.stats.calls_per_dag.get("pipe", 0) for s in cluster.schedulers]
        assert all(count > 0 for count in served), served

    def test_single_function_calls_round_robin_and_agree(self, cluster, clients):
        _register_pipeline(clients[0])
        for cloud in clients:
            assert [cloud.call("inc", [1]).value
                    for _ in range(SCHEDULERS)] == [2] * SCHEDULERS
        served = [s.stats.calls_per_function.get("inc", 0)
                  for s in cluster.schedulers]
        assert all(count > 0 for count in served), served

    def test_reregistration_wins_on_every_scheduler(self, cluster, clients):
        clients[0].register(lambda x: "old", name="versioned")
        # A different client re-registers; every scheduler must serve the new
        # body afterwards, whatever the round-robin position.
        clients[1].register(lambda x: "new", name="versioned")
        for cloud in clients:
            assert [cloud.call("versioned", [0]).value
                    for _ in range(SCHEDULERS)] == ["new"] * SCHEDULERS

    def test_delete_dag_refused_by_every_scheduler(self, cluster, clients):
        _register_pipeline(clients[0])
        clients[1].delete_dag("pipe")
        for cloud in clients:
            for _ in range(SCHEDULERS):
                with pytest.raises(DagDeletedError):
                    cloud.call_dag("pipe", {"inc": [4]})


class TestEngineBackendOverManySchedulers:
    def test_engine_driver_spreads_clients_over_schedulers(self, cluster, clients):
        _register_pipeline(clients[0])

        values = []

        def request(cloud, ctx, index):
            future = cloud.call_dag("pipe", {"inc": [4]}, ctx=ctx)
            future.add_done_callback(lambda f: values.append(f.get()))
            return future

        sim = EngineLoadDriver(cluster, request, clients=CLIENTS,
                               max_requests=36).run()
        assert sim.completed_requests == 36
        assert values == [15] * 36
        served = [s.stats.calls_per_dag.get("pipe", 0)
                  for s in cluster.schedulers]
        assert all(count > 0 for count in served), served


def _crash_and_restart(cluster, crash_ms, restart_ms):
    """From the run's first request: crash scheduler-0 once requests are in
    flight and restart it while the run is still going, so it serves again
    before the budget is done.  (A run starts once the cluster has settled,
    so events queued before ``run()`` would fire before it.)"""
    engine = cluster.engine
    scheduler = cluster.schedulers[0]
    engine.schedule(crash_ms, scheduler.crash)
    engine.schedule(restart_ms, scheduler.restart)


class TestSchedulerFailover:
    """Scheduler crash mid-run (satellite of the fault-plane PR).

    scheduler-0 crashes while its DAG sessions are in flight and restarts
    later; the restarted scheduler replays its journal and resumes every
    abandoned session, clients fail over to the survivors in between, and
    no request is lost, double-applied, or routed to a dead thread.
    """

    def test_crash_and_restart_loses_no_requests(self, cluster, clients):
        _register_pipeline(clients[0])
        values = []

        def request(cloud, ctx, index):
            if index == 0:
                _crash_and_restart(cluster, crash_ms=2.0, restart_ms=10.0)
            future = cloud.call_dag("pipe", {"inc": [4]}, ctx=ctx)
            future.add_done_callback(lambda f: values.append(f.get()))
            return future

        driver = EngineLoadDriver(cluster, request, clients=CLIENTS,
                                  max_requests=48)
        sim = driver.run()

        assert sim.completed_requests == 48
        assert values == [15] * 48
        crashed = cluster.schedulers[0]
        assert crashed.alive
        # The restart resumed (not dropped) whatever the crash abandoned.
        assert crashed.journal.recovered_sessions > 0
        assert crashed.stats.calls_routed_to_dead == 0
        for scheduler in cluster.schedulers:
            assert scheduler.journal.in_flight_count() == 0
            assert scheduler.dag_registry.get("pipe").name == "pipe"  # registrations agree
        assert cluster.abandoned_session_count() == 0

    def test_untouched_sessions_apply_exactly_once(self, cluster, clients):
        _register_pipeline(clients[0])

        def request(cloud, ctx, index):
            if index == 0:
                _crash_and_restart(cluster, crash_ms=2.0, restart_ms=8.0)
            return cloud.call_dag("pipe", {"inc": [4]}, ctx=ctx)

        driver = EngineLoadDriver(cluster, request, clients=CLIENTS,
                                  max_requests=36)
        driver.run()
        for scheduler in cluster.schedulers:
            for record in scheduler.journal.records():
                if record.recoveries == 0:
                    # Sessions the crash never touched ran exactly one attempt.
                    assert len(record.attempts) == 1

    def test_all_schedulers_down_is_a_scheduling_error(self, cluster, clients):
        from repro.errors import SchedulingError

        _register_pipeline(clients[0])
        for scheduler in cluster.schedulers:
            scheduler.crash()
        with pytest.raises(SchedulingError):
            clients[0].call("inc", [1])
