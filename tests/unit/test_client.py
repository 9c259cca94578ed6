"""Unit tests for the Cloudburst client API (Figure 2 / Table 1 semantics)."""

import pytest

from repro import CloudburstCluster, CloudburstReference
from repro.cloudburst import CloudburstFuture
from repro.errors import (
    DagDeletedError,
    DagNotFoundError,
    KeyNotFoundError,
)


@pytest.fixture
def cluster():
    return CloudburstCluster(executor_vms=2, scheduler_count=2, seed=3)


@pytest.fixture
def cloud(cluster):
    return cluster.connect()


class TestClientConstruction:
    def test_requires_schedulers(self):
        # A client reads the cluster's schedulers, so the cluster is where
        # an empty roster is refused.
        with pytest.raises(ValueError):
            CloudburstCluster(scheduler_count=0)

    def test_connect_assigns_unique_ids(self, cluster):
        a = cluster.connect()
        b = cluster.connect()
        assert a.client_id != b.client_id


class TestKVSAccess:
    def test_put_get_roundtrip(self, cloud):
        cloud.put("key", {"x": [1, 2, 3]})
        assert cloud.get("key") == {"x": [1, 2, 3]}

    def test_get_missing_raises(self, cloud):
        with pytest.raises(KeyNotFoundError):
            cloud.get("missing")

    def test_delete(self, cloud):
        cloud.put("key", 1)
        assert cloud.delete("key")
        with pytest.raises(KeyNotFoundError):
            cloud.get("key")


class TestFunctionCalls:
    def test_registered_function_behaves_like_a_callable(self, cloud):
        square = cloud.register(lambda x: x * x, name="square")
        assert square(7) == 49

    def test_reference_arguments_resolved(self, cloud):
        cloud.put("value", 5)
        square = cloud.register(lambda x: x * x, name="square")
        assert square(CloudburstReference("value")) == 25

    def test_store_in_kvs_returns_future(self, cloud):
        square = cloud.register(lambda x: x * x, name="square")
        future = square(3, store_in_kvs=True)
        assert future.get() == 9

    def test_latency_recorded_per_call(self, cloud):
        cloud.register(lambda: None, name="noop")
        assert cloud.call("noop").result().latency_ms > 0

    def test_calls_round_robin_across_schedulers(self, cluster, cloud):
        noop = cloud.register(lambda: None, name="noop")
        for _ in range(4):
            noop()
        counts = [s.stats.calls_per_function.get("noop", 0) for s in cluster.schedulers]
        assert all(count >= 1 for count in counts)


class TestDagCalls:
    def test_register_and_call_dag(self, cloud):
        cloud.register(lambda x: x + 1, name="inc")
        cloud.register(lambda x: x * 10, name="tenfold")
        cloud.register_dag("pipeline", ["inc", "tenfold"], [("inc", "tenfold")])
        result = cloud.call_dag("pipeline", {"inc": [4]})
        assert result.value == 50

    def test_store_in_kvs_stores_dag_result(self, cloud):
        cloud.register(lambda x: x - 1, name="dec")
        cloud.register_dag("decrement", ["dec"])
        future = cloud.call_dag("decrement", {"dec": [10]}, store_in_kvs=True)
        assert future.get() == 9
        assert future.result_key is not None
        assert cloud.kvs.background_get(future.result_key).reveal() == 9


class TestRegisterOverwrite:
    def test_reregistering_overwrites_on_every_scheduler(self, cluster):
        # Regression: register used setdefault on the other schedulers, so a
        # re-registered name kept serving the old body from every scheduler
        # the round-robin happened to route to.
        cloud = cluster.connect()
        cloud.register(lambda x: x + 1, name="evolve")
        assert [cloud.call("evolve", [1]).value for _ in range(4)] == [2, 2, 2, 2]
        cloud.register(lambda x: x + 100, name="evolve")
        for scheduler in cluster.schedulers:
            assert scheduler.functions["evolve"](1) == 101
        # Every scheduler (round-robin) serves the *new* body, including the
        # executor threads that pinned the old one.
        assert [cloud.call("evolve", [1]).value for _ in range(4)] == [101] * 4

    def test_reregistration_visible_through_other_clients(self, cluster):
        alice = cluster.connect("alice")
        bob = cluster.connect("bob")
        alice.register(lambda: "v1", name="shared_fn")
        assert bob.call("shared_fn").value == "v1"
        bob.register(lambda: "v2", name="shared_fn")
        for _ in range(4):
            assert alice.call("shared_fn").value == "v2"


class TestDeleteDag:
    def test_delete_dag_refuses_later_calls(self, cloud):
        cloud.register(lambda x: x, name="echo")
        cloud.register_dag("echo-dag", ["echo"])
        assert cloud.call_dag("echo-dag", {"echo": [1]}).value == 1
        cloud.delete_dag("echo-dag")
        with pytest.raises(DagDeletedError):
            cloud.call_dag("echo-dag", {"echo": [1]})

    def test_delete_unknown_dag_raises_not_found(self, cloud):
        with pytest.raises(DagNotFoundError):
            cloud.delete_dag("never-registered")

    def test_deleted_dag_can_be_reregistered(self, cloud):
        cloud.register(lambda x: x * 2, name="double")
        cloud.register_dag("d", ["double"])
        cloud.delete_dag("d")
        cloud.register_dag("d", ["double"])
        assert cloud.call_dag("d", {"double": [3]}).value == 6

    def test_delete_dag_removes_persisted_topology(self, cluster, cloud):
        cloud.register(lambda x: x, name="echo")
        cloud.register_dag("echo-dag", ["echo"])
        assert cluster.kvs.contains("__cloudburst_dags__/echo-dag")
        cloud.delete_dag("echo-dag")
        assert not cluster.kvs.contains("__cloudburst_dags__/echo-dag")


class TestDagFutures:
    def _register(self, cluster):
        cloud = cluster.connect()
        cloud.register(lambda x: x + 1, name="inc")
        cloud.register(lambda x: x * 10, name="tenfold")
        cloud.register_dag("pipeline", ["inc", "tenfold"], [("inc", "tenfold")])
        return cloud

    def test_call_dag_returns_pending_future_before_execution(self, cluster):
        cloud = self._register(cluster)
        issued_at = cluster.engine.now_ms
        future = cloud.call_dag("pipeline", {"inc": [4]})
        assert isinstance(future, CloudburstFuture)
        assert not future.is_ready()   # returned before the DAG executed
        assert future.get() == 50      # get() advances virtual time
        assert cluster.engine.now_ms > issued_at
        assert future.result().latency_ms > 0

    def test_blocking_leaves_the_engine_at_the_completion_time(self, cluster):
        # The future resolves at the event that finishes the session, a
        # network hop before the client has the answer; a blocked caller must
        # not be able to send its next request before it received this one.
        cloud = self._register(cluster)
        engine = cluster.engine
        for index in range(5):
            issued_at = engine.now_ms
            result = cloud.call_dag("pipeline", {"inc": [index]}).result()
            assert engine.now_ms == result.ctx.clock.now_ms
            assert engine.now_ms == pytest.approx(issued_at + result.latency_ms)
        issued_at = engine.now_ms
        result = cloud.call("inc", [1]).result()
        assert engine.now_ms == result.ctx.clock.now_ms
        assert engine.now_ms == pytest.approx(issued_at + result.latency_ms)
        cloud.put("k", 1)
        assert engine.now_ms > result.ctx.clock.now_ms

    def test_caller_owned_context_never_moves_the_engine(self, cluster):
        from repro.sim import RequestContext, SimClock

        cloud = self._register(cluster)
        engine = cluster.engine
        ctx = RequestContext(clock=SimClock(engine.now_ms))
        cloud.put("k", 1, ctx=ctx)
        assert cloud.call("inc", [1], ctx=ctx).value == 2
        assert ctx.clock.now_ms > engine.now_ms == 0.0

    def test_add_done_callback_fires_from_engine_events(self, cluster):
        cloud = self._register(cluster)
        seen = []
        future = cloud.call_dag("pipeline", {"inc": [4]})
        future.add_done_callback(lambda f: seen.append(f.get()))
        assert seen == []
        cluster.engine.run()
        assert seen == [50]

    def test_get_timeout_leaves_future_pending(self, cluster):
        from repro.errors import FutureTimeoutError

        cloud = self._register(cluster)
        future = cloud.call_dag("pipeline", {"inc": [4]})
        # The first charge alone (client_to_scheduler) exceeds 1 ns of
        # virtual time, so nothing can resolve within the deadline.
        with pytest.raises(FutureTimeoutError):
            future.get(timeout_ms=1e-6)
        assert not future.done()
        assert future.get() == 50      # a later unbounded get succeeds

    def test_exception_probe_never_blocks_or_raises(self, cluster):
        cloud = self._register(cluster)
        issued_at = cluster.engine.now_ms
        future = cloud.call_dag("pipeline", {"inc": [4]})
        assert future.exception() is None      # pending: no advance, no raise
        assert not future.done()               # the probe spent no time
        assert cluster.engine.now_ms == issued_at
        assert future.get() == 50
        assert future.exception() is None      # resolved successfully

    def test_failed_dag_resolves_the_future_with_the_error(self, cluster):
        cloud = cluster.connect()

        def boom(x):
            raise RuntimeError("application error")

        cloud.register(boom, name="boom")
        cloud.register_dag("boom-dag", ["boom"])
        future = cloud.call_dag("boom-dag", {"boom": [1]})  # does not raise
        assert future.exception() is None                   # still pending
        with pytest.raises(RuntimeError, match="application error"):
            future.get()
        assert isinstance(future.exception(), RuntimeError)
        assert cluster.abandoned_session_count() == 0

    def test_blocking_inside_an_engine_event_is_a_programming_error(self, cluster):
        cloud = self._register(cluster)
        engine = cluster.engine
        caught = []
        future = cloud.call_dag("pipeline", {"inc": [4]})

        def block_from_event():
            try:
                future.get(timeout_ms=10.0)
            except Exception as error:  # noqa: BLE001 - recording the type
                caught.append(error)

        engine.at(0.0, block_from_event)
        engine.run()
        # RuntimeError, not FutureTimeoutError: a timeout-tolerant caller must
        # not mistake the reentrancy violation for "not ready yet".
        assert caught and isinstance(caught[0], RuntimeError)
