"""Unit tests for executor VMs, threads and the user-facing library."""

import functools
import inspect
import itertools

import pytest

from jitter_free import JitterFreeLatencyModel
from repro.cloudburst import (
    CloudburstCluster,
    CloudburstReference,
    ConsistencyLevel,
    ExecutorVM,
    simulated_compute,
)
from repro.cloudburst.consistency.protocols import SessionState, make_protocol
from repro.cloudburst.executor import EXECUTOR_METRICS_PREFIX, function_key
from repro.errors import ExecutorFailedError, FunctionNotFoundError
from repro.lattices import LWWLattice, Timestamp
from repro.sim import RequestContext

import charges


@pytest.fixture
def cluster():
    return CloudburstCluster(executor_vms=1, threads_per_vm=3, anna_nodes=2,
                             latency_model=JitterFreeLatencyModel())


@pytest.fixture
def anna(cluster):
    return cluster.kvs


@pytest.fixture
def vm(cluster):
    return cluster.vms[0]


_EXECUTION_IDS = (f"exec-{n}" for n in itertools.count())


def run(thread, name, args=(), level=ConsistencyLevel.LWW, ctx=None):
    state = SessionState(next(_EXECUTION_IDS), make_protocol(level))
    return thread.execute(name, args, ctx or RequestContext(), state)


class TestExecutorVM:
    def test_rejects_nonpositive_threads(self, cluster):
        with pytest.raises(ValueError):
            ExecutorVM(cluster, "bad", 0)

    def test_threads_registered_with_router(self, vm):
        for thread in vm.threads:
            assert thread.thread_id in vm.router._addresses

    def test_utilization_is_queue_depth_over_alive_threads(self, vm):
        assert vm.utilization() == 0.0
        for thread in vm.threads[:2]:
            thread.work_queue.release(thread.work_queue.admit(0.0) + 10.0)
        assert vm.utilization(5.0) == pytest.approx(2 / 3)
        assert vm.utilization() == pytest.approx(2 / 3)  # default: engine time
        assert vm.utilization(10.0) == 0.0  # the reservations have ended
        for _ in range(4):
            for thread in vm.threads:
                thread.work_queue.release(thread.work_queue.admit(20.0) + 10.0)
        assert vm.utilization(20.0) == 1.0  # capped: 12 queued on 3 threads

    def test_fail_and_recover(self, vm, anna):
        vm.cache.put("k", LWWLattice(Timestamp(1.0, "n"), "v"), RequestContext())
        vm.fail()
        assert not vm.alive
        assert all(not t.alive for t in vm.threads)
        vm.recover()
        assert vm.alive
        # Recovery restarts the container with a cold cache.
        assert vm.cache.cached_keys() == []

    def test_publish_metrics_writes_to_kvs(self, vm, anna):
        vm.publish_metrics()
        metrics = anna.background_get(EXECUTOR_METRICS_PREFIX + "vm-0").reveal()
        assert metrics["vm_id"] == "vm-0"
        assert metrics["alive"] is True


class TestFunctionExecution:
    def test_executes_plain_function(self, vm, anna):
        anna.background_put(function_key("double"), anna.plain(lambda x: x * 2))
        thread = vm.threads[0]
        assert run(thread, "double", [21]) == 42
        assert thread.invocation_count == 1
        assert thread.has_function("double")

    def test_unknown_function_raises(self, vm):
        with pytest.raises(FunctionNotFoundError):
            run(vm.threads[0], "missing", [])

    def test_dead_executor_raises(self, vm, anna):
        anna.background_put(function_key("f"), anna.plain(lambda: 1))
        vm.fail()
        with pytest.raises(ExecutorFailedError):
            run(vm.threads[0], "f")

    def test_references_resolved_before_invocation(self, vm, anna):
        anna.background_put("data", anna.plain(10))
        anna.background_put(function_key("add"), anna.plain(lambda a, b: a + b))
        result = run(vm.threads[0], "add", [CloudburstReference("data"), 5])
        assert result == 15

    def test_pin_function_avoids_refetch(self, vm, anna):
        anna.background_put(function_key("f"), anna.plain(lambda: "pinned"))
        thread = vm.threads[0]
        thread.pin_function("f")
        ctx = RequestContext()
        run(thread, "f", ctx=ctx)
        assert charges.count(ctx, "cloudburst", "deserialize_function") == 0

    def test_api_object_injection_is_decided_once_per_function_object(
            self, vm, anna, monkeypatch):
        """Once per body — pinned, fetched or pinned over another — never per
        invocation and never per thread; a ``functools.wraps`` wrapper (the
        perf tracer's) resolves to the signature it wraps."""
        signatures = []
        signature = inspect.signature
        monkeypatch.setattr(inspect, "signature",
                            lambda func: signatures.append(func) or signature(func))

        def wants_api(cloudburst, x):
            return (cloudburst.get_id(), x)

        @functools.wraps(wants_api)
        def traced(*args, **kwargs):
            return wants_api(*args, **kwargs)

        thread = vm.threads[0]
        anna.background_put(function_key("fetched"), anna.plain(traced))
        thread.pin_function("pinned", lambda x: x + 1)
        for _ in range(3):
            assert run(thread, "fetched", [7]) == (thread.thread_id, 7)
            assert run(thread, "pinned", [7]) == 8
        assert len(signatures) == 2

        thread.pin_function("pinned", wants_api)  # re-registration overwrites
        assert run(thread, "pinned", [7]) == (thread.thread_id, 7)
        with pytest.raises(ValueError):
            signature(int)
        anna.background_put(function_key("int"), anna.plain(int))  # no signature: a plain call
        assert run(thread, "int", ["42"]) == 42
        assert len(signatures) == 4

        # ...and once per function *object*: the other threads that fetch or
        # pin the same bodies ask nothing more.
        for other in vm.threads[1:]:
            other.pin_function("pinned", wants_api)
            assert run(other, "fetched", [7]) == (other.thread_id, 7)
            assert run(other, "pinned", [7]) == (other.thread_id, 7)
        assert len(signatures) == 4

    def test_a_body_that_takes_no_weak_reference_still_runs(self, vm, anna):
        anna.background_put(function_key("upper"), anna.plain(str.upper))  # a method descriptor
        for thread in vm.threads:
            assert run(thread, "upper", ["abc"]) == "ABC"

    def test_declared_compute_cost_is_charged(self, vm, anna):
        @simulated_compute(50.0)
        def slow():
            return "done"

        anna.background_put(function_key("slow"), anna.plain(slow))
        ctx = RequestContext()
        run(vm.threads[0], "slow", ctx=ctx)
        assert charges.total(ctx, "compute", "user_function") > 30.0

    def test_invoke_overhead_charged(self, vm, anna):
        anna.background_put(function_key("f"), anna.plain(lambda: None))
        ctx = RequestContext()
        run(vm.threads[0], "f", ctx=ctx)
        assert charges.count(ctx, "cloudburst", "invoke") == 1


class TestUserLibrary:
    def test_get_put_delete_and_id(self, vm, anna):
        def stateful(cloudburst, key):
            cloudburst.put(key, {"count": 1})
            value = cloudburst.get(key)
            identity = cloudburst.get_id()
            cloudburst.delete(key)
            return value, identity

        anna.background_put(function_key("stateful"), anna.plain(stateful))
        thread = vm.threads[1]
        value, identity = run(thread, "stateful", ["state-key"])
        assert value == {"count": 1}
        assert identity == thread.thread_id
        assert not anna.contains("state-key")

    def test_send_recv_between_threads(self, vm, anna):
        def sender(cloudburst, recipient):
            return cloudburst.send(recipient, "ping")

        def receiver(cloudburst):
            return cloudburst.recv()

        anna.background_put(function_key("sender"), anna.plain(sender))
        anna.background_put(function_key("receiver"), anna.plain(receiver))
        t0, t1 = vm.threads[0], vm.threads[1]
        assert run(t0, "sender", [t1.thread_id]) is True
        assert run(t1, "receiver") == ["ping"]

    def test_simulate_compute_charges_context(self, vm, anna):
        def busy(cloudburst):
            cloudburst.simulate_compute(25.0)
            return True

        anna.background_put(function_key("busy"), anna.plain(busy))
        ctx = RequestContext()
        run(vm.threads[0], "busy", ctx=ctx)
        assert charges.total(ctx, "compute", "user_function") > 10.0

    def test_consistency_level_and_execution_id_exposed(self, vm, anna):
        def introspect(cloudburst):
            return cloudburst.consistency_level, cloudburst.execution_id

        anna.background_put(function_key("introspect"), anna.plain(introspect))
        level, execution_id = run(vm.threads[0], "introspect",
                                  level=ConsistencyLevel.LWW)
        assert level == ConsistencyLevel.LWW
        assert isinstance(execution_id, str) and execution_id
