"""Distributed aggregation case study (§6.1.3, Figure 6).

The task: periodically compute the average of a floating-point metric across
the set of currently running functions.  Two algorithms are compared:

* **Gossip** (Kempe et al. [46]) — push-sum gossip: every actor keeps a
  ``(value, weight)`` pair, and in each round sends half of both to one
  randomly chosen peer.  Every actor's ``value / weight`` converges to the
  global mean, and the protocol tolerates membership changes.  It needs
  direct, fine-grained messaging — practical on Cloudburst, infeasible on
  stateless FaaS.
* **Gather** — a centralised workaround for platforms without direct
  communication: every actor publishes its metric to a storage service and a
  pre-determined leader collects them.  It requires a fixed population, so it
  is a poor fit for autoscaling platforms, but it needs far less
  communication.

Latency is the time for one aggregation to converge to within 5 % of the true
mean (gossip) or for the leader to collect all published metrics (gather).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..baselines import SimulatedDynamoDB, SimulatedLambda, SimulatedRedis, SimulatedS3
from ..cloudburst import CloudburstCluster
from ..sim import LatencyModel, RandomSource, RequestContext

#: Convergence threshold from the paper: within 5 % relative error of the mean.
TARGET_RELATIVE_ERROR = 0.05

#: Per-round actor processing time: the executor's recv-poll loop interval
#: plus push-sum bookkeeping (rounds are paced by this, not by raw wire time).
GOSSIP_ROUND_PROCESSING_MS = 25.0

#: How often a gather leader polls storage for missing metrics.
GATHER_POLL_INTERVAL_MS = 20.0


@dataclass
class AggregationResult:
    """Outcome of one aggregation run."""

    estimate: float
    true_mean: float
    rounds: int
    latency_ms: float

    @property
    def relative_error(self) -> float:
        if self.true_mean == 0:
            return abs(self.estimate)
        return abs(self.estimate - self.true_mean) / abs(self.true_mean)


@dataclass
class _Actor:
    """Push-sum state for one gossip participant."""

    actor_id: str
    value: float
    weight: float = 1.0
    inbox: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def estimate(self) -> float:
        return self.value / self.weight if self.weight else 0.0


class GossipAggregation:
    """Push-sum gossip over Cloudburst executor threads (send/recv API)."""

    def __init__(self, cluster: CloudburstCluster, actor_count: int = 10,
                 seed: int = 5):
        if actor_count <= 0:
            raise ValueError("actor_count must be positive")
        self.cluster = cluster
        self.actor_count = actor_count
        self.rng = RandomSource(seed)
        self.router = cluster.router
        # Each actor runs as a function invocation pinned to an executor thread;
        # its unique ID is advertised through a well-known KVS key so peers can
        # discover it (the ID-advertisement pattern from §3).
        threads = [t for vm in cluster.vms for t in vm.threads]
        if not threads:
            raise ValueError("the cluster has no executor threads")
        self.actor_threads = [threads[i % len(threads)] for i in range(actor_count)]
        membership = [t.thread_id for t in self.actor_threads]
        cluster.kvs.put_plain("gossip/membership", membership)

    def run(self, metrics: Optional[Sequence[float]] = None,
            max_rounds: int = 1000,
            target_error: float = TARGET_RELATIVE_ERROR,
            ctx: Optional[RequestContext] = None) -> AggregationResult:
        """Run one aggregation until every actor is within ``target_error``.

        ``ctx`` threads an externally owned request context through the run —
        the Figure 6 harness uses this to place concurrent repetitions on the
        cluster's timeline; without one the run is a client operation of its
        own (:meth:`~repro.cloudburst.cluster.CloudburstCluster.request`).
        """
        values = list(metrics) if metrics is not None else [
            self.rng.uniform(0.0, 100.0) for _ in range(self.actor_count)]
        if len(values) != self.actor_count:
            raise ValueError("need exactly one metric per actor")
        true_mean = sum(values) / len(values)
        actors = [
            _Actor(actor_id=f"gossip-actor-{i}@{self.actor_threads[i].thread_id}",
                   value=values[i])
            for i in range(self.actor_count)
        ]
        rounds = 0
        with self.cluster.request(ctx) as ctx:
            start = ctx.clock.now_ms
            while rounds < max_rounds:
                rounds += 1
                self._run_round(actors, ctx)
                if self._converged(actors, true_mean, target_error):
                    break
        estimate = sum(a.estimate for a in actors) / len(actors)
        return AggregationResult(estimate=estimate, true_mean=true_mean,
                                 rounds=rounds, latency_ms=ctx.clock.now_ms - start)

    def _run_round(self, actors: List[_Actor], ctx: RequestContext) -> None:
        """One gossip round.  Actors run in parallel, so the round's latency is
        the slowest actor's (message latency + processing), not the sum."""
        branches = []
        for actor in actors:
            peer = self.rng.choice([a for a in actors if a is not actor])
            half = (actor.value / 2.0, actor.weight / 2.0)
            actor.value -= half[0]
            actor.weight -= half[1]
            branch = ctx.fork()
            # One direct message per actor per round (the send API).
            self.cluster.latency_model.charge(branch, "cloudburst", "direct_message",
                                              size_bytes=16)
            branch.charge("compute", "gossip_round", GOSSIP_ROUND_PROCESSING_MS)
            peer.inbox.append(half)
            branches.append(branch)
        for actor in actors:
            for value, weight in actor.inbox:
                actor.value += value
                actor.weight += weight
            actor.inbox.clear()
        ctx.join(branches)

    @staticmethod
    def _converged(actors: List[_Actor], true_mean: float, target_error: float) -> bool:
        for actor in actors:
            error = abs(actor.estimate - true_mean) / abs(true_mean) if true_mean else 0.0
            if error > target_error:
                return False
        return True


class GatherAggregation:
    """The centralised gather algorithm over a pluggable storage backend."""

    #: Which backends the Figure 6 benchmark exercises.
    BACKEND_CLOUDBURST = "cloudburst"
    BACKEND_REDIS = "lambda+redis"
    BACKEND_DYNAMODB = "lambda+dynamodb"
    BACKEND_S3 = "lambda+s3"

    def __init__(self, backend: str, actor_count: int = 10,
                 latency_model: Optional[LatencyModel] = None,
                 cluster: Optional[CloudburstCluster] = None, seed: int = 6):
        self.backend = backend
        self.actor_count = actor_count
        self.rng = RandomSource(seed)
        self.cluster = cluster
        if backend == self.BACKEND_CLOUDBURST:
            if cluster is None:
                raise ValueError("the Cloudburst gather backend needs a cluster")
            self.latency_model = cluster.latency_model
        else:
            self.latency_model = latency_model or LatencyModel()
        self.lambda_platform = SimulatedLambda(self.latency_model)
        self.lambda_platform.register(lambda value: value, name="publish_metric")
        self.lambda_platform.register(lambda values: sum(values) / len(values),
                                      name="gather_leader")
        self._storage = {
            self.BACKEND_REDIS: SimulatedRedis(self.latency_model),
            self.BACKEND_DYNAMODB: SimulatedDynamoDB(self.latency_model),
            self.BACKEND_S3: SimulatedS3(self.latency_model),
        }.get(backend)

    def run(self, metrics: Optional[Sequence[float]] = None,
            ctx: Optional[RequestContext] = None) -> AggregationResult:
        values = list(metrics) if metrics is not None else [
            self.rng.uniform(0.0, 100.0) for _ in range(self.actor_count)]
        true_mean = sum(values) / len(values)
        if self.backend == self.BACKEND_CLOUDBURST:
            with self.cluster.request(ctx) as ctx:
                start = ctx.clock.now_ms
                estimate = self._run_on_cloudburst(values, ctx)
        else:
            # The simulated baselines have no timeline of their own.
            ctx = ctx or RequestContext()
            start = ctx.clock.now_ms
            estimate = self._run_on_lambda(values, ctx)
        return AggregationResult(estimate=estimate, true_mean=true_mean, rounds=1,
                                 latency_ms=ctx.clock.now_ms - start)

    def _run_on_cloudburst(self, values: Sequence[float], ctx: RequestContext) -> float:
        """Actors publish to Anna through their caches; the leader reads them.

        Each actor's publish is one local cache put; the cache's write-back to
        Anna is asynchronous (uncharged background traffic, as everywhere else
        in the reproduction), so only the charged leader reads below contend at
        the storage nodes' work queues.
        """
        kvs = self.cluster.kvs
        branches = []
        for index, value in enumerate(values):
            branch = ctx.fork()
            self.cluster.latency_model.charge(branch, "cache", "put", size_bytes=8)
            kvs.put_plain(f"gather/metric-{index}", value)
            branches.append(branch)
        ctx.join(branches)
        total = 0.0
        for index in range(len(values)):
            total += kvs.get_plain(f"gather/metric-{index}", ctx)
        return total / len(values)

    def _run_on_lambda(self, values: Sequence[float], ctx: RequestContext) -> float:
        """Each actor is a Lambda publishing to storage; a leader Lambda gathers.

        The writers run in parallel; Redis additionally serialises their writes
        at its single master.  The leader polls storage until every metric is
        visible, then reads them all.
        """
        assert self._storage is not None
        branches = []
        for index, value in enumerate(values):
            # Fanning the actors out requires one synchronous Invoke API call
            # each; those dispatches serialise at the driver.
            self.latency_model.charge(ctx, "lambda", "dispatch")
            branch = ctx.fork()
            self.lambda_platform.invoke("publish_metric", (value,), branch)
            if isinstance(self._storage, SimulatedRedis):
                self._storage.put(f"gather/metric-{index}", value, branch,
                                  contention=index)
            else:
                self._storage.put(f"gather/metric-{index}", value, branch)
            branches.append(branch)
        ctx.join(branches)
        # The leader is itself a Lambda invocation; it polls once on average
        # before all writers are visible, then reads every metric.
        ctx.charge("compute", "gather_poll", GATHER_POLL_INTERVAL_MS)
        collected = []
        for index in range(len(values)):
            collected.append(self._storage.get(f"gather/metric-{index}", ctx))
        return self.lambda_platform.invoke("gather_leader", (collected,), ctx)
