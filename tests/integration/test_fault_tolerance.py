"""Integration tests for fault tolerance (§4.5) and elasticity of the compute tier."""

import pytest

from repro import CloudburstCluster
from repro.cloudburst.controlplane import ComputeControlPlane
from repro.errors import SchedulingError

import charges
from internals import index_holders


@pytest.fixture
def cluster():
    return CloudburstCluster(executor_vms=3, threads_per_vm=2, seed=11)


@pytest.fixture
def cloud(cluster):
    return cluster.connect()


class TestExecutorFailure:
    def test_scheduler_avoids_failed_vm_without_retries(self, cluster, cloud):
        """A VM that died *before* the request is simply never selected."""
        cloud.register(lambda x: x * 2, name="double")
        cloud.register_dag("doubling", ["double"])
        scheduler = cluster.schedulers[0]
        pinned_thread_id = scheduler.function_pins["double"][0]
        victim_vm = next(vm for vm in cluster.vms
                         if pinned_thread_id in vm.thread_ids())
        victim_vm.fail()
        result = cloud.call_dag("doubling", {"double": [21]}).result()
        assert result.value == 42
        assert result.retries == 0

    def test_dag_reexecutes_after_mid_flight_failure(self, cluster, cloud):
        """A machine failing *while* executing a function triggers the §4.5
        behaviour: the whole DAG re-executes after a configurable timeout."""
        state = {"failures_left": 1}

        def flaky(cloudburst, x):
            if state["failures_left"] > 0:
                state["failures_left"] -= 1
                # Simulate the executor's VM dying mid-invocation.
                vm_id = cloudburst.get_id().split(":")[0]
                next(vm for vm in cluster.vms if vm.vm_id == vm_id).fail()
                from repro.errors import ExecutorFailedError

                raise ExecutorFailedError(cloudburst.get_id(), "chaos")
            return x * 2

        cloud.register(flaky, name="flaky")
        cloud.register_dag("flaky-dag", ["flaky"])
        result = cloud.call_dag("flaky-dag", {"flaky": [21]}).result()
        assert result.value == 42
        assert result.retries == 1
        # Re-execution waits out the configurable timeout before retrying.
        assert charges.total(result.ctx, "cloudburst", "fault_timeout") > 0

    def test_single_function_call_retries_on_failure(self, cluster, cloud):
        cloud.register(lambda: "alive", name="probe")
        cluster.vms[0].fail()
        assert cloud.call("probe").value == "alive"

    def test_unrecoverable_when_every_executor_is_down(self, cluster, cloud):
        cloud.register(lambda: 1, name="f")
        cloud.register_dag("d", ["f"])
        for vm in cluster.vms:
            vm.fail()
        future = cloud.call_dag("d")  # the failure resolves the future
        with pytest.raises(SchedulingError):
            future.get()
        assert cluster.abandoned_session_count() == 0

    def test_recovered_vm_rejoins_with_cold_cache(self, cluster, cloud):
        cloud.put("warm-key", "value")
        cloud.register(lambda x: x, name="echo")
        victim = cluster.vms[0]
        with cluster.request() as ctx:
            victim.cache.get_or_fetch("warm-key", ctx)
        victim.fail()
        victim.recover()
        assert victim.alive
        assert not victim.cache.contains("warm-key")
        assert cloud.call("echo", [1]).value == 1

    def test_storage_survives_compute_failures(self, cluster, cloud):
        cloud.put("durable", {"important": True})
        for vm in cluster.vms:
            vm.fail()
        assert cloud.get("durable") == {"important": True}


class TestMessagingFaultPaths:
    def test_messages_to_failed_executor_go_to_inbox_and_survive(self, cluster, cloud):
        threads = [t for vm in cluster.vms for t in vm.threads]
        sender, receiver = threads[0], threads[-1]
        receiver_vm = receiver.vm
        receiver_vm.fail()
        with cluster.request() as ctx:
            assert not cluster.router.send(sender.thread_id, receiver.thread_id,
                                           "urgent", ctx)
        receiver_vm.recover()
        with cluster.request() as ctx:
            assert cluster.router.recv(receiver.thread_id, ctx) == ["urgent"]


class TestComputeElasticity:
    def test_add_and_drain_vms_preserve_function_availability(self, cluster, cloud):
        cloud.register(lambda x: x + 1, name="inc")
        cloud.register_dag("inc-dag", ["inc"])
        cluster.add_vm()
        cluster.add_vm()
        assert cloud.call_dag("inc-dag", {"inc": [1]}).value == 2
        cluster.drain_vm(cluster.vms[-1])
        assert cloud.call_dag("inc-dag", {"inc": [2]}).value == 3

    def test_new_vm_reads_functions_from_kvs(self, cluster, cloud):
        cloud.register(lambda x: x * 3, name="triple")
        new_vm = cluster.add_vm()
        # The new node was never told about "triple" explicitly; it must be
        # able to fetch it from Anna on demand (§4.4: Anna is the source of truth).
        from repro.cloudburst.consistency.protocols import SessionState, make_protocol
        from repro.cloudburst import ConsistencyLevel

        state = SessionState("exec-0", make_protocol(ConsistencyLevel.LWW))
        with cluster.request() as ctx:
            value = new_vm.threads[0].execute("triple", [7], ctx, state)
        assert value == 21

    def test_draining_vm_unregisters_cache_and_cuts_off_threads(self, cluster, cloud):
        drained = cluster.vms[-1]
        cloud.put("held", 1)
        with cluster.request() as ctx:
            drained.cache.get_or_fetch("held", ctx)
        assert drained.cache.cache_id in index_holders(cluster.kvs)["held"]
        cluster.drain_vm(drained)
        assert all(drained.cache.cache_id not in holders
                   for holders in index_holders(cluster.kvs).values())
        sender = cluster.vms[0].threads[0].thread_id
        for thread in drained.threads:
            assert not thread.alive
            with cluster.request() as ctx:
                assert not cluster.router.send(sender, thread.thread_id, "ping", ctx)

    def test_autoscaler_tick_scales_compute_tier(self, cluster, cloud, saturate):
        cloud.register(lambda x: x, name="echo")
        cloud.call("echo", [1])  # arrivals: the policy never grows an unused tier
        before = len(cluster.vms)
        for vm in cluster.vms:
            saturate(vm)
        plane = ComputeControlPlane(cluster)
        plane.publish()
        report = plane.tick(cluster.engine.now_ms)
        cluster.engine.run()  # the new VMs come online after the boot delay
        assert report.vms_added > 0
        assert len(cluster.vms) > before
