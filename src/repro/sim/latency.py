"""Latency model for every service in the reproduction.

The paper's evaluation ran on AWS (EC2, Lambda, S3, DynamoDB, ElastiCache,
Step Functions, SageMaker).  This module replaces those services' *costs* with
a seeded, calibrated model while the protocols themselves run for real.  Each
(service, operation) pair has a :class:`OperationCost`:

``latency = base + size_bytes / bandwidth  (then lognormal jitter)``

The constants are calibrated so the relative numbers reported in the paper
hold (e.g. Lambda's ~20 ms invocation overhead, DynamoDB's ~15 ms penalty,
S3's ~40 ms penalty for small objects, sub-millisecond IPC to a VM-local
cache).  Absolute values are not meant to match the authors' testbed — only
the shape of each figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .clock import RequestContext
from .rng import RandomSource


@dataclass(frozen=True)
class OperationCost:
    """Cost of one operation against one service.

    Attributes:
        base_ms: fixed per-request cost (connection setup, request routing,
            service-side queuing at light load).
        bandwidth_bytes_per_ms: effective streaming bandwidth for payloads;
            ``None`` means the operation cost does not depend on payload size.
        jitter_sigma: sigma of the lognormal multiplicative jitter.  Larger
            values produce heavier tails (used for Lambda and S3, which the
            paper observes have highly variable tail latency).
    """

    base_ms: float
    bandwidth_bytes_per_ms: Optional[float] = None
    jitter_sigma: float = 0.08

    def mean_ms(self, size_bytes: int = 0) -> float:
        transfer = 0.0
        if self.bandwidth_bytes_per_ms:
            transfer = size_bytes / self.bandwidth_bytes_per_ms
        return self.base_ms + transfer


#: Calibrated per-service operation costs.  Keys are (service, operation).
DEFAULT_COSTS: Dict[Tuple[str, str], OperationCost] = {
    # -- Cloudburst compute tier -----------------------------------------
    # Client <-> scheduler <-> executor hops are in-datacenter ZeroMQ hops.
    ("cloudburst", "client_to_scheduler"): OperationCost(0.25),
    ("cloudburst", "schedule"): OperationCost(0.15),
    ("cloudburst", "scheduler_to_executor"): OperationCost(0.25),
    ("cloudburst", "invoke"): OperationCost(0.45, jitter_sigma=0.15),
    ("cloudburst", "dag_trigger"): OperationCost(0.30),
    ("cloudburst", "result_to_client"): OperationCost(0.25),
    ("cloudburst", "deserialize_function"): OperationCost(0.35),
    # Direct executor-to-executor TCP messages (the send/recv API).
    ("cloudburst", "direct_message"): OperationCost(0.30, 2_000_000.0),
    # -- VM-local cache (IPC between executor process and cache process) --
    ("cache", "get"): OperationCost(0.06, 9_000_000.0, jitter_sigma=0.06),
    ("cache", "put"): OperationCost(0.06, 9_000_000.0, jitter_sigma=0.06),
    # One IPC round trip carrying a whole batch of cached values: same shape
    # as a single get (the payload is larger, the hop count is not).
    ("cache", "multi_get"): OperationCost(0.06, 9_000_000.0, jitter_sigma=0.06),
    # Deterministic per-entry lookup/marshalling inside one multi_get IPC:
    # the cache process still cloudpickles every entry onto the local socket,
    # so a batched hit amortises the round trip, not the serialisation.
    ("cache", "multi_get_key"): OperationCost(0.05),
    ("cache", "snapshot"): OperationCost(0.05),
    # Fetching an exact version snapshot from a *peer* cache (the repeatable
    # read / causal protocols' upstream fetch) costs a network round trip.
    ("cache", "fetch_from_upstream"): OperationCost(0.9, 900_000.0, jitter_sigma=0.20),
    # -- Anna KVS (network round trip to a storage node) ------------------
    ("anna", "get"): OperationCost(0.95, 190_000.0, jitter_sigma=0.18),
    ("anna", "put"): OperationCost(0.95, 190_000.0, jitter_sigma=0.18),
    # Serial cost of putting one more batched sub-request on the wire: the
    # caller pays (N-1) of these plus the max response time, not the sum of
    # N full round trips (see repro.sim.overlap).
    ("anna", "multi_get_dispatch"): OperationCost(0.03, jitter_sigma=0.10),
    # -- AWS Lambda --------------------------------------------------------
    # The paper reports up to 20 ms overhead per invocation with a heavy tail.
    ("lambda", "invoke"): OperationCost(12.0, jitter_sigma=0.45),
    # Dispatching an invocation through the AWS API from a driver/leader is a
    # synchronous HTTP call and serialises when fanning out to many functions.
    ("lambda", "dispatch"): OperationCost(18.0, jitter_sigma=0.30),
    # Data transfer into/out of a Lambda function is bandwidth constrained.
    ("lambda", "payload"): OperationCost(0.3, 35_000.0, jitter_sigma=0.25),
    # -- AWS Step Functions -----------------------------------------------
    # The paper measures Step Functions ~10x slower than Lambda end to end.
    ("stepfunctions", "transition"): OperationCost(110.0, jitter_sigma=0.35),
    ("stepfunctions", "start_execution"): OperationCost(18.0, jitter_sigma=0.30),
    # -- AWS S3 -------------------------------------------------------------
    # High per-object latency, good streaming bandwidth for large objects.
    ("s3", "get"): OperationCost(30.0, 70_000.0, jitter_sigma=0.40),
    ("s3", "put"): OperationCost(38.0, 55_000.0, jitter_sigma=0.40),
    # -- AWS DynamoDB -------------------------------------------------------
    ("dynamodb", "get"): OperationCost(6.5, 28_000.0, jitter_sigma=0.30),
    ("dynamodb", "put"): OperationCost(13.0, 24_000.0, jitter_sigma=0.30),
    # -- Redis / ElastiCache (serverful, single-master) ---------------------
    ("redis", "get"): OperationCost(0.75, 45_000.0, jitter_sigma=0.15),
    ("redis", "put"): OperationCost(0.85, 45_000.0, jitter_sigma=0.15),
    # Writes are serialised at the single master; queueing is added by the
    # baseline implementation on top of this per-request cost.
    ("redis", "queue_delay"): OperationCost(0.15, jitter_sigma=0.10),
    # Pipelined MGET: per-key serial dispatch on top of the overlapped
    # per-key round trips (same charge model as anna.multi_get_dispatch).
    ("redis", "mget_dispatch"): OperationCost(0.02, jitter_sigma=0.10),
    # -- SAND (hierarchical message bus) ------------------------------------
    ("sand", "invoke"): OperationCost(14.0, jitter_sigma=0.30),
    ("sand", "local_bus"): OperationCost(1.6, jitter_sigma=0.20),
    ("sand", "global_bus"): OperationCost(11.0, jitter_sigma=0.30),
    # -- Dask (serverful distributed Python) --------------------------------
    ("dask", "submit"): OperationCost(1.1, jitter_sigma=0.20),
    ("dask", "gather"): OperationCost(0.9, 900_000.0, jitter_sigma=0.20),
    # -- SageMaker (managed model serving endpoint) --------------------------
    ("sagemaker", "http_overhead"): OperationCost(25.0, 45_000.0, jitter_sigma=0.30),
    ("sagemaker", "container_hop"): OperationCost(40.0, jitter_sigma=0.25),
    # -- Plain python process (the native baseline in Figure 9) --------------
    ("python", "call"): OperationCost(0.01),
}


class LatencyModel:
    """Samples operation latencies and charges them to request contexts."""

    #: Every sample draws its operation's lognormal jitter.  No caller turns
    #: it off; a test that pins exact charges uses a subclass that does
    #: (``tests/jitter_free.py``).
    jitter_enabled = True

    def __init__(self, rng: Optional[RandomSource] = None,
                 costs: Optional[Dict[Tuple[str, str], OperationCost]] = None):
        self._rng = rng or RandomSource(7)
        self._costs = dict(DEFAULT_COSTS)
        if costs:
            self._costs.update(costs)

    def cost(self, service: str, operation: str) -> OperationCost:
        try:
            return self._costs[(service, operation)]
        except KeyError:
            raise KeyError(f"no latency profile for {service}.{operation}") from None

    def sample_ms(self, service: str, operation: str, size_bytes: int = 0) -> float:
        """Draw one latency sample for the given operation."""
        cost = self.cost(service, operation)
        mean = cost.mean_ms(size_bytes)
        if not self.jitter_enabled or cost.jitter_sigma <= 0:
            return mean
        return self._rng.lognormal(mean, cost.jitter_sigma) if mean > 0 else 0.0

    def charge(self, ctx: RequestContext, service: str, operation: str,
               size_bytes: int = 0) -> float:
        """Sample a latency and charge it to ``ctx``; returns the sample."""
        latency = self.sample_ms(service, operation, size_bytes)
        ctx.charge(service, operation, latency)
        return latency


@dataclass
class ComputeModel:
    """Models the CPU cost of user functions.

    User functions in this reproduction execute for real, but their *simulated*
    compute cost (what would have been spent on a c5.2xlarge core) is charged
    explicitly so sleeps and model inference do not require wall-clock waits.
    """

    per_element_ns: float = 4.0
    rng: RandomSource = field(default_factory=lambda: RandomSource(11))
    jitter_sigma: float = 0.05

    def fixed_ms(self, mean_ms: float) -> float:
        """Cost of a fixed-duration computation such as a 50 ms sleep."""
        if mean_ms <= 0:
            return 0.0
        return self.rng.lognormal(mean_ms, self.jitter_sigma)
