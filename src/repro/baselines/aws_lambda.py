"""Simulated AWS Lambda and the composition patterns measured in Figure 1/5/6.

The model captures what the paper attributes to Lambda: a per-invocation
overhead of up to ~20 ms (heavy tailed), no inbound network connections (so
functions can only communicate through storage or by argument/result
passing), and bandwidth-limited payload transfer.  Every invocation is warm: no
figure draws cold starts.  User functions execute for real.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ..lattices.base import estimate_size
from ..sim import LatencyModel, RequestContext
from .storage import SimulatedStorageService


class SimulatedLambda:
    """A pool of warm Lambda functions."""

    def __init__(self, latency_model: Optional[LatencyModel] = None):
        self.latency_model = latency_model or LatencyModel()
        self._functions = {}
        self.invocation_count = 0

    def register(self, func: Callable, name: Optional[str] = None) -> str:
        name = name or func.__name__
        self._functions[name] = func
        return name

    def invoke(self, name: str, args: Sequence[Any] = (),
               ctx: Optional[RequestContext] = None,
               payload_bytes: Optional[int] = None) -> Any:
        """One Lambda invocation: overhead + payload transfer + user code."""
        func = self._functions[name]
        if ctx is not None:
            self.latency_model.charge(ctx, "lambda", "invoke")
            size = payload_bytes if payload_bytes is not None else \
                sum(estimate_size(a) for a in args)
            if size:
                self.latency_model.charge(ctx, "lambda", "payload", size_bytes=size)
        self.invocation_count += 1
        result = func(*args)
        declared_compute = getattr(func, "_cloudburst_compute_ms", 0.0)
        if ctx is not None and declared_compute:
            ctx.charge("compute", "user_function", declared_compute)
        return result


class LambdaComposition:
    """The four Lambda-based composition strategies measured in Figure 1."""

    def __init__(self, platform: SimulatedLambda,
                 storage: Optional[SimulatedStorageService] = None):
        self.platform = platform
        self.storage = storage

    def run_direct(self, functions: Sequence[str], argument: Any,
                   ctx: Optional[RequestContext] = None) -> Any:
        """Lambda (Direct): each function returns its result to the caller,
        which passes it to the next function through the user-facing API."""
        value = argument
        for name in functions:
            value = self.platform.invoke(name, (value,), ctx)
        return value

    def run_through_storage(self, functions: Sequence[str], argument: Any,
                            ctx: Optional[RequestContext] = None,
                            key_prefix: str = "lambda-pipeline") -> Any:
        """Lambda (S3)/(Dynamo): arguments pass through the Lambda API as in the
        direct variant, but the pipeline's result is stored in the storage
        service (the configuration measured in Figure 1)."""
        if self.storage is None:
            raise ValueError("storage-mediated composition needs a storage service")
        value = argument
        for name in functions:
            value = self.platform.invoke(name, (value,), ctx)
        self.storage.put(f"{key_prefix}/result", value, ctx)
        return value


class StepFunctions:
    """AWS Step Functions: a managed state machine chaining Lambda invocations.

    The paper measures Step Functions roughly 10x slower than Lambda and 82x
    slower than Cloudburst for the two-function pipeline; the cost model
    charges one state-transition overhead per step on top of each Lambda
    invocation.
    """

    def __init__(self, platform: SimulatedLambda,
                 latency_model: Optional[LatencyModel] = None):
        self.platform = platform
        self.latency_model = latency_model or platform.latency_model

    def execute(self, functions: Sequence[str], argument: Any,
                ctx: Optional[RequestContext] = None) -> Any:
        if ctx is not None:
            self.latency_model.charge(ctx, "stepfunctions", "start_execution")
        value = argument
        for name in functions:
            if ctx is not None:
                self.latency_model.charge(ctx, "stepfunctions", "transition")
            value = self.platform.invoke(name, (value,), ctx)
        return value
