"""Unit tests for the function scheduler (placement policy, registration)."""

from unittest import mock

import pytest

from repro import CloudburstCluster, CloudburstReference
from repro.cloudburst import Dag
from repro.cloudburst.policy import RANDOM_PLACEMENT_POLICY
from repro.errors import FunctionNotFoundError

import reference_placement as reference
from engine_time import at_engine_time
import charges


@pytest.fixture
def cluster():
    return CloudburstCluster(executor_vms=3, threads_per_vm=2, seed=7)


@pytest.fixture
def scheduler(cluster):
    return cluster.schedulers[0]


class TestRegistration:
    def test_register_function_persists_to_anna(self, scheduler, cluster):
        scheduler.register_function(lambda x: x, name="identity")
        from repro.cloudburst.executor import FUNCTION_LIST_KEY, function_key

        assert cluster.kvs.contains(function_key("identity"))
        assert "identity" in cluster.kvs.background_get(FUNCTION_LIST_KEY).reveal()

    def test_register_dag_requires_functions(self, scheduler):
        with pytest.raises(FunctionNotFoundError):
            scheduler.register_dag(Dag.chain("d", ["ghost"]))

    def test_register_dag_pins_functions(self, scheduler):
        scheduler.register_function(lambda x: x + 1, name="inc")
        scheduler.register_dag(Dag.chain("d", ["inc"]))
        assert len(scheduler.function_pins["inc"]) >= 1
        pinned = scheduler.pinned_threads("inc")[0]
        assert pinned.has_function("inc")

    def test_pin_function_adds_replicas(self, scheduler):
        scheduler.register_function(lambda: 1, name="f")
        scheduler.pin_function("f", replicas=1)
        first = len(scheduler.function_pins["f"])
        scheduler.pin_function("f", replicas=3)
        assert len(scheduler.function_pins["f"]) >= max(first, 3)

    def test_dag_topology_persisted(self, scheduler, cluster):
        scheduler.register_function(lambda x: x, name="a")
        scheduler.register_function(lambda x: x, name="b")
        scheduler.register_dag(Dag.chain("pipeline", ["a", "b"]))
        topology = cluster.kvs.background_get("__cloudburst_dags__/pipeline").reveal()
        assert topology["functions"] == ["a", "b"]
        assert topology["edges"] == [("a", "b")]

    def test_reregistration_refreshes_pinned_thread_copies(self, scheduler, cluster):
        scheduler.register_function(lambda x: x + 1, name="f")
        scheduler.register_dag(Dag.chain("f-dag", ["f"]))
        ctx = at_engine_time(scheduler)
        assert scheduler.call_dag("f-dag", {"f": [1]}, ctx=ctx).future.get() == 2
        scheduler.register_function(lambda x: x + 50, name="f")
        # The pinned executor threads serve the new body, not the stale pin.
        ctx = at_engine_time(scheduler)
        assert scheduler.call_dag("f-dag", {"f": [1]}, ctx=ctx).future.get() == 51
        for thread in scheduler.pinned_threads("f"):
            assert thread._function_cache["f"](1) == 51

    def test_delete_dag_is_idempotent_and_unpersists(self, scheduler, cluster):
        from repro.errors import DagDeletedError, DagNotFoundError

        scheduler.register_function(lambda x: x, name="a")
        scheduler.register_dag(Dag.chain("gone", ["a"]))
        assert scheduler.delete_dag("gone") is True
        assert scheduler.delete_dag("gone") is False  # already deleted: no-op
        assert not cluster.kvs.contains("__cloudburst_dags__/gone")
        with pytest.raises(DagDeletedError):
            scheduler.call_dag("gone", ctx=at_engine_time(scheduler))
        with pytest.raises(DagNotFoundError):
            scheduler.delete_dag("never-was")


class TestSingleFunctionCalls:
    def test_call_returns_value_and_latency(self, scheduler):
        scheduler.register_function(lambda x: x * x, name="square")
        result = scheduler.call("square", [6], ctx=at_engine_time(scheduler)).future.result()
        assert result.value == 36
        assert result.latency_ms > 0
        assert result.retries == 0

    def test_store_in_kvs_returns_result_key(self, scheduler, cluster):
        scheduler.register_function(lambda x: x + 1, name="inc")
        result = scheduler.call("inc", [1], store_in_kvs=True,
                                ctx=at_engine_time(scheduler)).future.result()
        assert result.result_key is not None
        assert cluster.kvs.background_get(result.result_key).reveal() == 2

    def test_call_statistics_recorded(self, scheduler):
        scheduler.register_function(lambda: None, name="noop")
        scheduler.call("noop", ctx=at_engine_time(scheduler))
        scheduler.call("noop", ctx=at_engine_time(scheduler))
        assert scheduler.stats.calls_per_function["noop"] == 2


class TestDagCalls:
    def test_linear_dag_passes_results_downstream(self, scheduler):
        scheduler.register_function(lambda x: x + 1, name="inc")
        scheduler.register_function(lambda x: x * x, name="square")
        scheduler.register_dag(Dag.chain("comp", ["inc", "square"]))
        result = scheduler.call_dag("comp", {"inc": [4]},
                                    ctx=at_engine_time(scheduler)).future.result()
        assert result.value == 25

    def test_fan_out_dag_returns_all_sinks(self, scheduler):
        scheduler.register_function(lambda x: x, name="root")
        scheduler.register_function(lambda x: x + 1, name="left")
        scheduler.register_function(lambda x: x * 2, name="right")
        scheduler.register_dag(Dag("fan", ["root", "left", "right"],
                                   [("root", "left"), ("root", "right")]))
        result = scheduler.call_dag("fan", {"root": [10]},
                                    ctx=at_engine_time(scheduler)).future.result()
        assert result.value == {"left": 11, "right": 20}

    def test_diamond_dag_joins_on_the_attempt_record(self, scheduler):
        scheduler.register_function(lambda x: x, name="root")
        scheduler.register_function(lambda x: x + 1, name="left")
        scheduler.register_function(lambda x: x * 2, name="right")
        scheduler.register_function(lambda a, b: a + b, name="sink")
        scheduler.register_dag(Dag("diamond", ["root", "left", "right", "sink"],
                                   [("root", "left"), ("root", "right"),
                                    ("left", "sink"), ("right", "sink")]))
        session = scheduler.call_dag("diamond", {"root": [10]}, ctx=at_engine_time(scheduler))
        result = session.future.result()
        assert result.value == 31
        # The attempt record is the session's only progress state: every
        # function has a finish time, and the sink ran after both branches.
        finished = session.attempt.finish_ms
        assert set(finished) == {"root", "left", "right", "sink"}
        assert finished["sink"] >= session.attempt.ready_at(["left", "right"])
        assert result.execution_id == session.attempt.execution_id \
            == f"{session.record.session_id}/attempt-0"

    def test_stored_result_key_names_the_attempt(self, scheduler, cluster):
        scheduler.register_function(lambda x: x + 1, name="inc")
        scheduler.register_dag(Dag.chain("one", ["inc"]))
        session = scheduler.call_dag("one", {"inc": [1]}, store_in_kvs=True,
                                     ctx=at_engine_time(scheduler))
        result = session.future.result()
        assert result.result_key == \
            f"__cloudburst_results__/{session.record.session_id}/attempt-0"
        assert cluster.kvs.background_get(result.result_key).reveal() == 2

    def test_dag_call_counts_tracked(self, scheduler):
        scheduler.register_function(lambda x: x, name="f")
        scheduler.register_dag(Dag.chain("d", ["f"]))
        scheduler.call_dag("d", {"f": [1]}, ctx=at_engine_time(scheduler))
        assert scheduler.stats.calls_per_dag["d"] == 1


class TestPlacementPolicy:
    def test_locality_prefers_cache_with_data(self, cluster, scheduler):
        client = cluster.connect()
        client.put("hot-data", [1, 2, 3])
        scheduler.register_function(lambda data: sum(data), name="summer")
        reference = CloudburstReference("hot-data")
        # First call caches the key somewhere; later calls should go back there.
        scheduler.call("summer", [reference], ctx=at_engine_time(scheduler))
        target_vm = next(vm for vm in cluster.vms if vm.cache.contains("hot-data"))
        for _ in range(5):
            scheduler.call("summer", [reference], ctx=at_engine_time(scheduler))
        assert cluster.cache_hit_rate() > 0.5
        assert scheduler.stats.locality_hits >= 1
        # The data should not have spread to every VM when one unsaturated
        # executor already holds it.
        holders = [vm for vm in cluster.vms if vm.cache.contains("hot-data")]
        assert target_vm in holders

    def test_locality_disabled_ignores_references(self, cluster, scheduler):
        client = cluster.connect()
        client.put("some-data", 1)
        scheduler.register_function(lambda x: x, name="reader")
        scheduler.placement_policy = RANDOM_PLACEMENT_POLICY
        scheduler.call("reader", [CloudburstReference("some-data")], ctx=at_engine_time(scheduler))
        assert scheduler.stats.locality_hits == 0

    def test_overloaded_vm_is_avoided(self, cluster, scheduler):
        client = cluster.connect()
        client.put("k", 1)
        scheduler.register_function(lambda x: x, name="reader")
        reference = CloudburstReference("k")
        scheduler.call("reader", [reference], ctx=at_engine_time(scheduler))
        holder = next(vm for vm in cluster.vms if vm.cache.contains("k"))
        holder.inflight = len(holder.threads)  # saturate it
        result = scheduler.call("reader", [reference],
                                ctx=at_engine_time(scheduler)).future.result()
        chosen_vm_caches = [vm for vm in cluster.vms
                            if vm.cache.contains("k") and vm is not holder]
        # Backpressure: the request went elsewhere, replicating the hot key.
        assert chosen_vm_caches or result.value == 1

    def test_dead_vm_never_selected(self, cluster, scheduler):
        scheduler.register_function(lambda: "ok", name="f")
        cluster.vms[0].fail()
        for _ in range(5):
            assert scheduler.call("f", ctx=at_engine_time(scheduler)).future.get() == "ok"


class TestPinnedThreads:
    """Pins resolve through the cluster's ``thread_id -> thread`` map."""

    def test_pins_follow_the_roster_as_it_grows_fails_and_drains(self, cluster, scheduler):
        old = cluster.vms[0].threads[1]
        vm = cluster.add_vm()  # mid-run: the map learns its threads
        new = vm.threads[0]
        scheduler.function_pins["f"] = [new.thread_id, "vm-unknown:0", old.thread_id]

        def resolved():
            shipped = scheduler.pinned_threads("f")
            assert shipped == reference.pinned_threads(scheduler, "f")
            return shipped

        assert resolved() == [new, old]
        vm.fail()
        assert resolved() == [old]
        vm.recover()
        assert resolved() == [new, old]
        old.alive = False  # a drained thread on a live VM
        assert resolved() == [new]
        cluster.drain_vm(vm)
        assert scheduler.function_pins["f"] == ["vm-unknown:0", old.thread_id]
        assert resolved() == []
        assert scheduler.pinned_threads("never-pinned") == []


class TestFaultHandling:
    def test_all_executors_dead_raises(self, cluster, scheduler):
        scheduler.register_function(lambda: 1, name="f")
        for vm in cluster.vms:
            vm.fail()
        with pytest.raises(Exception):
            scheduler.call("f", ctx=at_engine_time(scheduler)).future.result()


class TestConstructorParameters:
    def test_fault_timeout_is_a_parameter(self):
        cluster = CloudburstCluster(executor_vms=2, threads_per_vm=2, seed=3,
                                    fault_timeout_ms=1_234.0)
        assert cluster.schedulers[0].fault_timeout_ms == 1_234.0

    def test_overload_threshold_zero_still_schedules(self):
        # Threshold 0 marks every executor saturated; the policy must fall
        # back to the full pool instead of failing.
        cluster = CloudburstCluster(executor_vms=2, threads_per_vm=2, seed=3)
        scheduler = cluster.schedulers[0]
        scheduler.register_function(lambda x: x + 1, name="inc")
        for vm in cluster.vms:
            vm.inflight = len(vm.threads)
        with mock.patch("repro.cloudburst.policy.OVERLOAD_THRESHOLD", 0.0):
            assert scheduler.call("inc", [1], ctx=at_engine_time(scheduler)).future.get() == 2

    def test_fault_timeout_charged_on_retry(self):
        from repro.errors import ExecutorFailedError
        from repro.sim import RequestContext

        cluster = CloudburstCluster(executor_vms=2, threads_per_vm=2, seed=3,
                                    fault_timeout_ms=777.0)
        scheduler = cluster.schedulers[0]

        def dying():
            raise ExecutorFailedError("t", "injected")

        scheduler.register_function(dying, name="dying")
        ctx = RequestContext()
        with pytest.raises(Exception):
            scheduler.call("dying", ctx=ctx).future.result()
        # Every retry waited the configured fault timeout.
        timeouts = charges.charges_for(ctx, "cloudburst", "fault_timeout")
        assert timeouts
        assert all(charge.latency_ms == 777.0 for charge in timeouts)


class TestPlacementPolicyPlugin:
    def test_custom_policy_routes_every_call(self, cluster, scheduler):
        from repro.cloudburst.policy import PlacementPolicy

        class FirstThreadPolicy(PlacementPolicy):
            def pick(self, scheduler, threads, function_name, args,
                     restricted, now_ms):
                return min(threads, key=lambda t: t.thread_id)

        scheduler.placement_policy = FirstThreadPolicy()
        scheduler.register_function(lambda x: x, name="f")
        for i in range(5):
            scheduler.call("f", [i], ctx=at_engine_time(scheduler))
        first = min(cluster.vms[0].threads, key=lambda t: t.thread_id)
        assert first.invocation_count == 5

    def test_placement_policy_is_swapped_by_plain_assignment(self, scheduler):
        from repro.cloudburst.policy import PlacementPolicy

        class MyPolicy(PlacementPolicy):
            def pick(self, scheduler, threads, function_name, args,
                     restricted, now_ms):
                return threads[0]

        scheduler.placement_policy = MyPolicy()
        assert isinstance(scheduler.placement_policy, MyPolicy)
        # The attribute is the whole switch (what the scheduling ablation
        # assigns): no property in between keeps or rewrites the policy.
        scheduler.placement_policy = RANDOM_PLACEMENT_POLICY
        assert scheduler.placement_policy is RANDOM_PLACEMENT_POLICY
