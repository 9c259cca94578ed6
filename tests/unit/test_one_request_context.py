"""One request context: every data-plane call carries its request (DR-22).

Below the scheduler, each call that does work for a request takes that
request's context as a required argument; the uncharged twins only tests
reached are gone.  Background traffic takes its own calls, which take no
context at all (DR-24); only a client operation still builds one when its
caller passes none.  The context itself keeps only what is read: the clock,
the charge log, the span and the prefetch epoch.
"""

import inspect

import pytest

from repro.anna import AnnaCluster
from repro.apps.retwis import RetwisOnRedis
from repro.baselines import (
    DaskCluster,
    LambdaComposition,
    NativePython,
    SageMaker,
    SandPlatform,
    SimulatedLambda,
    SimulatedRedis,
    SimulatedStorageService,
    StepFunctions,
)
from repro.cloudburst import (CloudburstCluster, ExecutorCache, ExecutorThread,
                              ExecutorVM, Scheduler)
from repro.cloudburst.consistency import protocols
from repro.cloudburst.executor import UserLibrary
from repro.cloudburst.messaging import MessageRouter
from repro.sim import (LatencyModel, RequestContext, SimClock, WorkQueue,
                       run_overlapped)

_PROTOCOLS = (
    protocols.ConsistencyProtocol,
    protocols.LWWProtocol,
    protocols.RepeatableReadProtocol,
    protocols.SingleKeyCausalProtocol,
    protocols.MultiKeyCausalProtocol,
    protocols.DistributedSessionCausalProtocol,
)

#: Every data-plane entry point below the scheduler.
REQUEST_ENTRY_POINTS = [
    ExecutorThread.execute,
    ExecutorThread._execute_admitted,
    ExecutorThread._resolve_references,
    UserLibrary.__init__,
    ExecutorCache.multi_get,
    ExecutorCache.get_or_fetch,
    ExecutorCache._fetch_misses,
    ExecutorCache._fetch_one_miss,
    ExecutorCache._from_prefetch,
    ExecutorCache.put,
    ExecutorCache.fetch_from_upstream,
    ExecutorCache.ensure_causal_cut,
    *[getattr(protocol, name) for protocol in _PROTOCOLS
      for name in ("read", "read_many", "write")],
    run_overlapped,
    AnnaCluster.multi_get,
    MessageRouter.send,
    MessageRouter.recv,
    SimulatedLambda.invoke,
    LambdaComposition.run_direct,
    LambdaComposition.run_through_storage,
    StepFunctions.execute,
    SandPlatform.run_pipeline,
    DaskCluster.run_pipeline,
    SageMaker.invoke_endpoint,
    NativePython.run_pipeline,
    SimulatedStorageService.get,
    SimulatedStorageService.put,
    SimulatedRedis.put,
    SimulatedRedis.mget,
    AnnaCluster.get,
    AnnaCluster.put,
    AnnaCluster.get_or_none,
    AnnaCluster.get_plain,
    AnnaCluster.delete,
    ExecutorThread._fetch_function,
    Scheduler.call,
    Scheduler.call_dag,
    Scheduler._open_session,
    RetwisOnRedis.post_tweet,
    RetwisOnRedis.get_timeline,
]

#: Background traffic takes its own calls, none of which takes a context.
BACKGROUND_CALLS = [
    AnnaCluster.background_put,
    AnnaCluster.background_get,
    AnnaCluster.background_delete,
    AnnaCluster.plain,
    AnnaCluster.ingest_cached_keys,
    SimulatedStorageService.preload,
    ExecutorCache.create_snapshot,
    ExecutorCache.publish_cached_keys,
    ExecutorThread.pin_function,
    ExecutorVM.publish_metrics,
    Scheduler.register_function,
    Scheduler.register_dag,
    Scheduler.delete_dag,
    Scheduler.pin_function,
]


def _ctx_parameter(function):
    return inspect.signature(function).parameters["ctx"]


class TestEveryDataPlaneCallCarriesItsRequest:
    @pytest.mark.parametrize("entry_point", REQUEST_ENTRY_POINTS,
                             ids=lambda f: f.__qualname__)
    def test_the_context_is_required(self, entry_point):
        ctx = _ctx_parameter(entry_point)
        assert ctx.default is inspect.Parameter.empty
        assert "Optional" not in str(ctx.annotation)

    @pytest.mark.parametrize("call", BACKGROUND_CALLS,
                             ids=lambda f: f.__qualname__)
    def test_background_calls_take_no_context(self, call):
        assert "ctx" not in inspect.signature(call).parameters

    def test_only_client_operations_build_a_context(self):
        # The one entry that still defaults its context: a client operation
        # issued without one starts at the engine's time.
        assert _ctx_parameter(CloudburstCluster.request).default is None
        assert not hasattr(AnnaCluster, "put_plain")


class TestTheContextKeepsOnlyWhatIsRead:
    def test_no_second_running_total(self):
        ctx = RequestContext()
        for name in ("elapsed_ms", "start_ms", "_elapsed_ms", "_start_ms"):
            assert not hasattr(ctx, name)
        assert set(RequestContext.__slots__) == {
            "clock", "charges", "prefetch_epoch", "record_charges", "span"}

    def test_latency_is_read_off_the_clock(self):
        ctx = RequestContext(clock=SimClock(40.0))
        ctx.charge("anna", "get", 1.5)
        branch = ctx.fork()
        branch.charge("anna", "get", 3.0)
        ctx.join([branch])
        assert ctx.clock.now_ms - 40.0 == pytest.approx(4.5)

    def test_executor_work_queue_keeps_only_its_ends(self):
        assert "_starts" not in WorkQueue.__slots__
        queue = WorkQueue()
        queue.release(queue.admit(0.0) + 2.0)
        assert queue.depth(1.0) == 1 and queue.depth(2.0) == 0


class TestRunOverlappedChargesTheWholeModel:
    """The dispatch and ingress charges are made in one place."""

    @staticmethod
    def _run(sizes):
        model = LatencyModel(jitter_enabled=False)
        ctx = RequestContext()

        def run_one(size, branch):
            branch.charge("redis", "get", 1.0)
            return size

        run_overlapped(ctx, sizes, run_one, model,
                       "redis", "mget_dispatch", "redis", lambda size: size)
        return model, ctx

    def test_a_batch_pays_dispatch_max_and_ingress(self):
        model, ctx = self._run([1_000, 3_000, 2_000])
        assert [(c.service, c.operation) for c in ctx.charges] == [
            ("redis", "mget_dispatch"), ("redis", "mget_dispatch"),
            ("redis", "get"), ("redis", "get"), ("redis", "get"),
            ("redis", "ingress")]
        bandwidth = model.cost("redis", "get").bandwidth_bytes_per_ms
        assert ctx.total("redis", "ingress") == pytest.approx(3_000 / bandwidth)
        dispatch = model.cost("redis", "mget_dispatch").base_ms
        assert ctx.clock.now_ms == pytest.approx(
            2 * dispatch + 1.0 + 3_000 / bandwidth)

    def test_a_batch_of_one_is_the_single_key_path(self):
        _model, ctx = self._run([5_000])
        assert [(c.service, c.operation) for c in ctx.charges] == [
            ("redis", "get")]

    def test_equal_sizes_beyond_the_largest_still_stream(self):
        model, ctx = self._run([2_000, 2_000])
        bandwidth = model.cost("redis", "get").bandwidth_bytes_per_ms
        assert ctx.total("redis", "ingress") == pytest.approx(2_000 / bandwidth)


class TestTheIndexWarmUpRunsOnRequests:
    def test_a_warm_up_read_is_a_client_operation(self):
        # The fig 7 index-overhead warm-up reads through cluster.request():
        # the read is charged and the engine stands at its completion.
        cluster = CloudburstCluster(executor_vms=1, seed=2)
        cluster.connect().put("k", "v")
        cache = cluster.vms[0].cache
        before = cluster.engine.now_ms
        with cluster.request() as ctx:
            cache.get_or_fetch("k", ctx)
        assert ctx.count("anna", "get") == 1
        assert cluster.engine.now_ms == ctx.clock.now_ms > before
        assert cache.contains("k")
