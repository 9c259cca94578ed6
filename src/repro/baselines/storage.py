"""Simulated storage services used by the baselines (S3, DynamoDB, Redis).

These model only what the paper's figures depend on: per-request latency,
payload-size-dependent transfer time, and (for Redis) the single-master write
serialization that penalises the "gather" aggregation pattern in §6.1.3.
Values are stored for real so baseline pipelines compute correct results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import KeyNotFoundError
from ..lattices.base import estimate_size
from ..sim import LatencyModel, RequestContext, run_overlapped


class SimulatedStorageService:
    """Shared plumbing for the simulated cloud storage services."""

    service_name = "storage"

    def __init__(self, latency_model: Optional[LatencyModel] = None):
        self.latency_model = latency_model or LatencyModel()
        self._data: Dict[str, Any] = {}
        self.get_count = 0
        self.put_count = 0

    def put(self, key: str, value: Any, ctx: RequestContext) -> None:
        """Store ``value`` for a request, charging the service's put."""
        self.latency_model.charge(ctx, self.service_name, "put",
                                  size_bytes=estimate_size(value))
        self.preload(key, value)

    def preload(self, key: str, value: Any) -> None:
        """Store ``value`` before any request runs, charged to no one."""
        self._data[key] = value
        self.put_count += 1

    def get(self, key: str, ctx: RequestContext) -> Any:
        if key not in self._data:
            self.latency_model.charge(ctx, self.service_name, "get", size_bytes=0)
            raise KeyNotFoundError(key)
        value = self._data[key]
        self.latency_model.charge(ctx, self.service_name, "get",
                                  size_bytes=estimate_size(value))
        self.get_count += 1
        return value

    def contains(self, key: str) -> bool:
        return key in self._data


class SimulatedS3(SimulatedStorageService):
    """AWS S3: high per-object latency, decent streaming bandwidth."""

    service_name = "s3"


class SimulatedDynamoDB(SimulatedStorageService):
    """AWS DynamoDB: lower latency than S3 but item-size constrained.

    DynamoDB rejects items above 400 KB; the Figure 5 baseline avoids it for
    the larger array sizes for exactly this reason, so the limit is enforced.
    """

    service_name = "dynamodb"
    MAX_ITEM_BYTES = 400 * 1024

    def preload(self, key: str, value: Any) -> None:
        if estimate_size(value) > self.MAX_ITEM_BYTES:
            raise ValueError(
                f"DynamoDB item limit exceeded ({estimate_size(value)} bytes > "
                f"{self.MAX_ITEM_BYTES})")
        super().preload(key, value)


class SimulatedRedis(SimulatedStorageService):
    """AWS ElastiCache (Redis): fast, serverful, single-master.

    Writes are serialized at the master.  When several writers publish in the
    same round (the gather baseline in §6.1.3), each write queues behind the
    previous ones; ``contention`` tells the model how many writes are queued
    ahead of this one.
    """

    service_name = "redis"

    def put(self, key: str, value: Any, ctx: RequestContext,
            contention: int = 0) -> None:
        for _ in range(contention):
            self.latency_model.charge(ctx, "redis", "queue_delay")
        super().put(key, value, ctx)

    def mget(self, keys: List[str], ctx: RequestContext) -> List[Any]:
        """Pipelined MGET with overlapped charging.

        Charge model — the same one Cloudburst's batched read plane uses
        (:func:`repro.sim.run_overlapped`), so the fig10/fig11 Redis baseline
        stays apples-to-apples with ``ExecutorCache.multi_get``: every key's
        full ``redis.get`` round trip (base + its own payload transfer) is
        sampled on a forked context, the server answers them back to back,
        and the caller pays ``(N-1)`` serial ``redis.mget_dispatch`` charges
        plus the *max* of the per-key round trips rather than their sum —
        plus the ingress-bandwidth overflow for every response beyond the
        largest, since batching overlaps round trips but not the client NIC.
        A batch of one is byte-identical to :meth:`get`.
        """
        missing = [key for key in keys if key not in self._data]
        if missing:
            raise KeyNotFoundError(missing[0])

        def run_one(key: str, branch: RequestContext) -> Any:
            value = self._data[key]
            self.get_count += 1
            self.latency_model.charge(branch, "redis", "get",
                                      size_bytes=estimate_size(value))
            return value

        return run_overlapped(ctx, keys, run_one, self.latency_model,
                              "redis", "mget_dispatch", "redis", estimate_size)
