"""Other execution platforms compared against in the evaluation.

* :class:`SandPlatform` — SAND [4]: a research FaaS that co-locates composed
  functions in one container and passes intermediate results over a
  hierarchical message bus.  Figure 1 measures it roughly an order of
  magnitude slower than Cloudburst.
* :class:`DaskCluster` — a "serverful" distributed Python framework; Figure 1
  finds its composition latency comparable to Cloudburst's.
* :class:`SageMaker` — AWS's managed model-serving product, the comparison
  point for the prediction-serving case study (§6.3.1).
* :class:`NativePython` — a single Python process, the lower bound used in
  Figure 9.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from ..lattices.base import estimate_size
from ..sim import LatencyModel, RandomSource, RequestContext

#: How often two composed SAND functions share a host (local message bus)
#: rather than crossing hosts (global bus).
SAND_SAME_HOST_PROBABILITY = 0.85


class _FunctionRegistry:
    """Shared function storage for the simulated platforms."""

    def __init__(self):
        self._functions: Dict[str, Callable] = {}

    def register(self, func: Callable, name: Optional[str] = None) -> str:
        name = name or func.__name__
        self._functions[name] = func
        return name

    def get(self, name: str) -> Callable:
        return self._functions[name]

    def _charge_compute(self, func: Callable, ctx: Optional[RequestContext]) -> None:
        declared = getattr(func, "_cloudburst_compute_ms", 0.0)
        if ctx is not None and declared:
            ctx.charge("compute", "user_function", declared)


class SandPlatform(_FunctionRegistry):
    """SAND: low-latency composition via a hierarchical message bus."""

    def __init__(self, latency_model: Optional[LatencyModel] = None,
                 rng: Optional[RandomSource] = None):
        super().__init__()
        self.latency_model = latency_model or LatencyModel()
        self.rng = rng or RandomSource(41)

    def run_pipeline(self, functions: Sequence[str], argument: Any,
                     ctx: Optional[RequestContext] = None) -> Any:
        value = argument
        for index, name in enumerate(functions):
            func = self.get(name)
            if ctx is not None:
                if index == 0:
                    # The request enters the platform once (HTTP front end +
                    # sandbox dispatch).
                    self.latency_model.charge(ctx, "sand", "invoke")
                elif self.rng.random() < SAND_SAME_HOST_PROBABILITY:
                    # Composed functions usually share a host and talk over the
                    # local message bus...
                    self.latency_model.charge(ctx, "sand", "local_bus")
                    self.latency_model.charge(ctx, "sand", "invoke")
                else:
                    # ... but occasionally cross hosts via the global bus.
                    self.latency_model.charge(ctx, "sand", "global_bus")
                    self.latency_model.charge(ctx, "sand", "invoke")
            value = func(value)
            self._charge_compute(func, ctx)
        return value


class DaskCluster(_FunctionRegistry):
    """Dask: serverful distributed Python with low per-task overhead."""

    def __init__(self, latency_model: Optional[LatencyModel] = None):
        super().__init__()
        self.latency_model = latency_model or LatencyModel()

    def run_pipeline(self, functions: Sequence[str], argument: Any,
                     ctx: Optional[RequestContext] = None) -> Any:
        value = argument
        for name in functions:
            func = self.get(name)
            if ctx is not None:
                self.latency_model.charge(ctx, "dask", "submit")
            value = func(value)
            self._charge_compute(func, ctx)
        if ctx is not None:
            self.latency_model.charge(ctx, "dask", "gather",
                                      size_bytes=estimate_size(value))
        return value


class SageMaker(_FunctionRegistry):
    """AWS SageMaker: a managed, containerised model-serving endpoint."""

    def __init__(self, latency_model: Optional[LatencyModel] = None):
        super().__init__()
        self.latency_model = latency_model or LatencyModel()

    def invoke_endpoint(self, functions: Sequence[str], argument: Any,
                        ctx: Optional[RequestContext] = None) -> Any:
        value = argument
        if ctx is not None:
            self.latency_model.charge(ctx, "sagemaker", "http_overhead",
                                      size_bytes=estimate_size(argument))
        for name in functions:
            func = self.get(name)
            if ctx is not None:
                # Each pipeline stage is its own container behind the endpoint.
                self.latency_model.charge(ctx, "sagemaker", "container_hop")
            value = func(value)
            self._charge_compute(func, ctx)
        return value


class NativePython(_FunctionRegistry):
    """A single Python process: the no-orchestration lower bound (Figure 9)."""

    def __init__(self, latency_model: Optional[LatencyModel] = None):
        super().__init__()
        self.latency_model = latency_model or LatencyModel()

    def run_pipeline(self, functions: Sequence[str], argument: Any,
                     ctx: Optional[RequestContext] = None) -> Any:
        value = argument
        for name in functions:
            func = self.get(name)
            if ctx is not None:
                self.latency_model.charge(ctx, "python", "call")
            value = func(value)
            self._charge_compute(func, ctx)
        return value
