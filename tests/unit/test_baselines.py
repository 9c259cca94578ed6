"""Unit tests for the simulated baseline systems."""

import pytest

from jitter_free import JitterFreeLatencyModel
from repro.baselines import (
    DaskCluster,
    LambdaComposition,
    NativePython,
    SageMaker,
    SandPlatform,
    SimulatedDynamoDB,
    SimulatedLambda,
    SimulatedRedis,
    SimulatedS3,
    StepFunctions,
)
from repro.errors import KeyNotFoundError
from repro.sim import RandomSource, RequestContext

import charges


@pytest.fixture
def model():
    return JitterFreeLatencyModel()


class TestSimulatedStorage:
    def test_put_get_roundtrip_with_charges(self, model):
        s3 = SimulatedS3(model)
        ctx = RequestContext()
        s3.put("k", b"x" * 1000, ctx)
        assert s3.get("k", ctx) == b"x" * 1000
        assert charges.count(ctx, "s3", "put") == 1
        assert charges.count(ctx, "s3", "get") == 1

    def test_missing_key_raises(self, model):
        with pytest.raises(KeyNotFoundError):
            SimulatedS3(model).get("ghost", RequestContext())

    def test_dynamodb_enforces_item_limit(self, model):
        dynamo = SimulatedDynamoDB(model)
        with pytest.raises(ValueError):
            dynamo.preload("big", b"x" * (500 * 1024))
        dynamo.preload("small", b"x" * 1024)
        assert dynamo.contains("small")

    def test_s3_slower_than_dynamo_slower_than_redis(self, model):
        payload = b"y" * 10_000
        latencies = {}
        for name, service in (("s3", SimulatedS3(model)),
                              ("dynamo", SimulatedDynamoDB(model)),
                              ("redis", SimulatedRedis(model))):
            ctx = RequestContext()
            service.put("k", payload, ctx)
            service.get("k", ctx)
            latencies[name] = ctx.clock.now_ms
        assert latencies["redis"] < latencies["dynamo"] < latencies["s3"]

    def test_redis_write_contention_adds_queue_delay(self, model):
        redis = SimulatedRedis(model)
        free = RequestContext()
        redis.put("a", 1, free, contention=0)
        queued = RequestContext()
        redis.put("b", 1, queued, contention=5)
        assert queued.clock.now_ms > free.clock.now_ms

    def test_redis_mget_overlaps_per_key_charges(self, model):
        redis = SimulatedRedis(model)
        for index in range(5):
            redis.preload(f"k{index}", index)
        ctx = RequestContext()
        values = redis.mget([f"k{index}" for index in range(5)], ctx)
        assert values == [0, 1, 2, 3, 4]
        # Pipelined charge model: every key pays its own service charge on a
        # forked branch, the caller pays per-key dispatch and advances to the
        # slowest branch (max, not sum).
        assert charges.count(ctx, "redis", "get") == 5
        assert charges.count(ctx, "redis", "mget_dispatch") == 4
        get_latencies = [charge.latency_ms for charge in ctx.charges
                         if charge.operation == "get"]
        serial = sum(charge.latency_ms for charge in ctx.charges
                     if charge.operation in ("mget_dispatch", "ingress"))
        assert ctx.clock.now_ms >= max(get_latencies)
        assert ctx.clock.now_ms <= max(get_latencies) + serial + 1e-9
        assert ctx.clock.now_ms < sum(get_latencies)
        # A 3-key batch, in full: dispatches on the caller, each branch's
        # round trip, then the ingress tail after the join.
        ctx = RequestContext()
        redis.mget(["k0", "k1", "k2"], ctx)
        assert [(c.service, c.operation) for c in ctx.charges] == [
            ("redis", "mget_dispatch"), ("redis", "mget_dispatch"),
            ("redis", "get"), ("redis", "get"), ("redis", "get"),
            ("redis", "ingress")]

    def test_redis_mget_batch_of_one_matches_get(self, model):
        charges = []
        for use_mget in (False, True):
            redis = SimulatedRedis(model)
            redis.preload("k", "v")
            ctx = RequestContext()
            if use_mget:
                assert redis.mget(["k"], ctx) == ["v"]
            else:
                assert redis.get("k", ctx) == "v"
            charges.append([(c.service, c.operation, c.latency_ms)
                            for c in ctx.charges])
        assert charges[0] == charges[1]


class TestSimulatedLambda:
    def test_invoke_runs_function_and_charges_overhead(self, model):
        platform = SimulatedLambda(model)
        platform.register(lambda x: x + 1, "inc")
        ctx = RequestContext()
        assert platform.invoke("inc", (1,), ctx) == 2
        assert charges.count(ctx, "lambda", "invoke") == 1
        assert platform.invocation_count == 1

    def test_direct_composition_chains_results(self, model):
        platform = SimulatedLambda(model)
        platform.register(lambda x: x + 1, "inc")
        platform.register(lambda x: x * x, "square")
        composition = LambdaComposition(platform)
        ctx = RequestContext()
        assert composition.run_direct(["inc", "square"], 4, ctx) == 25

    def test_storage_composition_persists_result(self, model):
        platform = SimulatedLambda(model)
        platform.register(lambda x: x + 1, "inc")
        s3 = SimulatedS3(model)
        composition = LambdaComposition(platform, s3)
        direct_ctx, s3_ctx = RequestContext(), RequestContext()
        LambdaComposition(platform).run_direct(["inc"], 1, direct_ctx)
        assert composition.run_through_storage(["inc"], 1, s3_ctx) == 2
        assert s3.get_count == 0 and s3.put_count == 1
        assert s3_ctx.clock.now_ms > direct_ctx.clock.now_ms

    def test_storage_composition_requires_storage(self, model):
        platform = SimulatedLambda(model)
        platform.register(lambda x: x, "f")
        with pytest.raises(ValueError):
            LambdaComposition(platform).run_through_storage(["f"], 1, RequestContext())


class TestStepFunctionsAndOtherPlatforms:
    def test_step_functions_much_slower_than_direct_lambda(self, model):
        platform = SimulatedLambda(model)
        platform.register(lambda x: x + 1, "inc")
        platform.register(lambda x: x * x, "square")
        sfn_ctx, direct_ctx = RequestContext(), RequestContext()
        StepFunctions(platform, model).execute(["inc", "square"], 3, sfn_ctx)
        LambdaComposition(platform).run_direct(["inc", "square"], 3, direct_ctx)
        assert sfn_ctx.clock.now_ms > 5 * direct_ctx.clock.now_ms

    def test_dask_low_overhead_pipeline(self, model):
        dask = DaskCluster(model)
        dask.register(lambda x: x + 1, "inc")
        dask.register(lambda x: x * 2, "double")
        ctx = RequestContext()
        assert dask.run_pipeline(["inc", "double"], 1, ctx) == 4
        assert ctx.clock.now_ms < 10.0

    def test_sand_slower_than_dask_faster_than_stepfunctions(self, model):
        functions = [("inc", lambda x: x + 1), ("square", lambda x: x * x)]
        sand = SandPlatform(model, rng=RandomSource(3))
        dask = DaskCluster(model)
        lam = SimulatedLambda(model)
        for name, func in functions:
            sand.register(func, name)
            dask.register(func, name)
            lam.register(func, name)
        sand_ctx, dask_ctx, sfn_ctx = RequestContext(), RequestContext(), RequestContext()
        sand.run_pipeline(["inc", "square"], 2, sand_ctx)
        dask.run_pipeline(["inc", "square"], 2, dask_ctx)
        StepFunctions(lam, model).execute(["inc", "square"], 2, sfn_ctx)
        assert dask_ctx.clock.now_ms < sand_ctx.clock.now_ms < sfn_ctx.clock.now_ms

    def test_sagemaker_and_python_pipelines_compute_same_result(self, model):
        stages = [("a", lambda x: x + 1), ("b", lambda x: x * 3)]
        sagemaker, python = SageMaker(model), NativePython(model)
        for name, func in stages:
            sagemaker.register(func, name)
            python.register(func, name)
        sm_ctx, py_ctx = RequestContext(), RequestContext()
        assert sagemaker.invoke_endpoint(["a", "b"], 1, sm_ctx) == \
               python.run_pipeline(["a", "b"], 1, py_ctx) == 6
        assert sm_ctx.clock.now_ms > py_ctx.clock.now_ms
