"""Unit tests for the latency model and its calibration constraints."""

import pytest

from jitter_free import JitterFreeLatencyModel
from repro.sim import ComputeModel, LatencyModel, OperationCost, RandomSource, RequestContext

import charges


class TestOperationCost:
    def test_mean_without_bandwidth_ignores_size(self):
        cost = OperationCost(5.0)
        assert cost.mean_ms(0) == 5.0
        assert cost.mean_ms(1_000_000) == 5.0

    def test_mean_with_bandwidth_adds_transfer_time(self):
        cost = OperationCost(1.0, bandwidth_bytes_per_ms=1_000.0)
        assert cost.mean_ms(5_000) == pytest.approx(6.0)


class TestLatencyModel:
    def test_unknown_operation_raises(self):
        with pytest.raises(KeyError):
            LatencyModel().cost("nosuch", "op")

    def test_sample_without_jitter_equals_mean(self):
        model = JitterFreeLatencyModel()
        assert model.sample_ms("lambda", "invoke") == \
               model.cost("lambda", "invoke").base_ms

    def test_sample_with_jitter_varies_but_stays_positive(self):
        model = LatencyModel(RandomSource(1))
        samples = [model.sample_ms("lambda", "invoke") for _ in range(200)]
        assert len(set(samples)) > 1
        assert all(s > 0 for s in samples)

    def test_charge_applies_to_context(self):
        model = JitterFreeLatencyModel()
        ctx = RequestContext()
        charged = model.charge(ctx, "anna", "get", size_bytes=190_000)
        assert ctx.clock.now_ms == pytest.approx(charged)
        assert charges.count(ctx, "anna", "get") == 1

    def test_costs_argument_replaces_a_default(self):
        model = JitterFreeLatencyModel(costs={("anna", "get"): OperationCost(42.0)})
        assert model.sample_ms("anna", "get") == 42.0
        assert model.cost("anna", "put") == LatencyModel().cost("anna", "put")

    def test_same_seed_reproducible(self):
        a = LatencyModel(RandomSource(9))
        b = LatencyModel(RandomSource(9))
        assert [a.sample_ms("s3", "get") for _ in range(10)] == \
               [b.sample_ms("s3", "get") for _ in range(10)]


class TestCalibrationShape:
    """The relative calibration the paper's figures depend on."""

    def setup_method(self):
        self.model = JitterFreeLatencyModel()

    def test_cache_ipc_is_much_cheaper_than_anna(self):
        assert self.model.sample_ms("cache", "get") * 5 < self.model.sample_ms("anna", "get")

    def test_anna_is_much_cheaper_than_lambda_invocation(self):
        assert self.model.sample_ms("anna", "get") * 5 < self.model.sample_ms("lambda", "invoke")

    def test_dynamodb_cheaper_than_s3(self):
        assert self.model.sample_ms("dynamodb", "put") < self.model.sample_ms("s3", "put")

    def test_redis_cheaper_than_dynamodb(self):
        assert self.model.sample_ms("redis", "get") < self.model.sample_ms("dynamodb", "get")

    def test_step_functions_transition_dwarfs_lambda_invoke(self):
        assert self.model.sample_ms("stepfunctions", "transition") > \
               5 * self.model.sample_ms("lambda", "invoke")


class TestComputeModel:
    def test_fixed_cost_close_to_requested(self):
        compute = ComputeModel(rng=RandomSource(2))
        samples = [compute.fixed_ms(50.0) for _ in range(100)]
        median = sorted(samples)[50]
        assert 45.0 < median < 56.0

    def test_fixed_zero_is_zero(self):
        assert ComputeModel().fixed_ms(0.0) == 0.0
