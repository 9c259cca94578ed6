"""Case-study experiments: prediction serving (Figures 9, 10) and Retwis
(Figures 11, 12) from §6.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..anna import AnnaCluster
from ..apps.prediction import (
    PIPELINE_DAG,
    PredictionBaselines,
    deploy_on_cloudburst,
    make_image,
)
from ..apps.retwis import RetwisOnCloudburst, RetwisOnRedis
from ..cloudburst import CloudburstCluster, ConsistencyLevel
from ..sim import (
    LatencyModel,
    LatencyRecorder,
    RandomSource,
    RequestContext,
    SimulationResult,
)
from ..workloads.social import SocialWorkloadGenerator
from .harness import (
    ComparisonResult,
    build_cluster_with_threads,
    run_closed_loop,
    run_engine_closed_loop,
)


# --------------------------------------------------------------------------------------
# Figure 9: prediction-serving latency across platforms
# --------------------------------------------------------------------------------------
def run_figure9(requests: int = 50, seed: int = 0,
                image_side: int = 512) -> ComparisonResult:
    """Cloudburst vs native Python, SageMaker, Lambda (mock) and Lambda (actual)."""
    result = ComparisonResult(
        title="Figure 9: prediction-serving latency (3-stage MobileNet-style pipeline)")
    image = make_image(side=image_side, seed=seed)

    cluster = CloudburstCluster(executor_vms=1, threads_per_vm=3, seed=seed)
    deployment = deploy_on_cloudburst(cluster)
    deployment.serve(image)  # warm the model into the executor cache

    def cloudburst_request(i: int) -> float:
        _, latency = deployment.serve(image)
        return latency

    result.add(run_closed_loop("Cloudburst", cloudburst_request, requests))

    baselines = PredictionBaselines(LatencyModel(RandomSource(seed).spawn("figure9")))

    def measure(runner, i: int) -> float:
        ctx = RequestContext()
        runner(image, ctx)
        return ctx.clock.now_ms

    result.add(run_closed_loop(
        "Python", lambda i: measure(baselines.run_python, i), requests))
    result.add(run_closed_loop(
        "AWS Sagemaker", lambda i: measure(baselines.run_sagemaker, i), requests))
    result.add(run_closed_loop(
        "Lambda (Mock)", lambda i: measure(baselines.run_lambda_mock, i), requests))
    result.add(run_closed_loop(
        "Lambda (Actual)", lambda i: measure(baselines.run_lambda_actual, i), requests))
    return result


# --------------------------------------------------------------------------------------
# Figures 10 and 12: throughput/latency scaling with executor thread count
# --------------------------------------------------------------------------------------
@dataclass
class ScalingPoint:
    """One point on a scaling curve."""

    threads: int
    clients: int
    throughput_per_s: float
    median_ms: float
    p95_ms: float
    p99_ms: float


@dataclass
class ScalingResult:
    """A full scaling sweep (Figure 10 or 12)."""

    title: str
    points: List[ScalingPoint] = field(default_factory=list)


def _scaling_sweep(title: str, thread_counts: Sequence[int], clients_for,
                   requests_per_point: int, point_runner) -> ScalingResult:
    """Thread-count sweep: each point runs real requests on a fresh cluster.

    ``point_runner(threads, clients, requests)`` must return a
    :class:`~repro.sim.SimulationResult` produced by driving concurrent
    clients through the public ``cloud.call``/``cloud.call_dag`` API — there
    is no synthetic service-time model anywhere on this path.
    """
    result = ScalingResult(title=title)
    for threads in thread_counts:
        clients = max(1, clients_for(threads))
        sim: SimulationResult = point_runner(threads, clients, requests_per_point)
        summary = sim.latencies.summary()
        result.points.append(ScalingPoint(
            threads=threads,
            clients=clients,
            throughput_per_s=sim.overall_throughput_per_s,
            median_ms=summary.median_ms,
            p95_ms=summary.p95_ms,
            p99_ms=summary.p99_ms,
        ))
    return result


def run_figure10(thread_counts: Sequence[int] = (10, 20, 40, 80, 160),
                 requests_per_point: int = 2_000, seed: int = 0,
                 image_side: int = 512) -> ScalingResult:
    """Prediction-serving scaling: clients = threads / 3 (three functions/request).

    Every point deploys the real three-stage pipeline on a cluster with that
    many executor threads and drives it with concurrent closed-loop clients
    through ``cloud.call_dag`` on the shared event engine: each request is a
    pending :class:`CloudburstFuture` whose DAG stages run as their own
    engine events, so concurrent pipelines interleave at the executor work
    queues stage by stage.
    """
    image = make_image(side=image_side, seed=seed)

    def run_point(threads: int, clients: int, requests: int) -> SimulationResult:
        cluster = build_cluster_with_threads(threads, threads_per_vm=3,
                                             seed=seed + threads)
        deployment = deploy_on_cloudburst(cluster)
        deployment.serve(image)  # warm the model into the executor caches

        def request(cloud, ctx: RequestContext, index: int):
            return cloud.call_dag(PIPELINE_DAG, {"cb_resize": [image]}, ctx=ctx)

        # The sweep consumes only the summary percentiles, so completions go
        # into the O(1)-memory latency histogram, not a per-request list.
        return run_engine_closed_loop(
            cluster, request, clients=clients, total_requests=requests,
            label=f"figure10-{threads}t", record_charges=False,
            keep_latency_samples=False)

    return _scaling_sweep(
        title="Figure 10: prediction-serving scaling",
        thread_counts=thread_counts,
        clients_for=lambda threads: threads // 3,
        requests_per_point=requests_per_point,
        point_runner=run_point,
    )


# --------------------------------------------------------------------------------------
# Figure 11: Retwis latency and anomaly prevention
# --------------------------------------------------------------------------------------
@dataclass
class RetwisExperiment:
    """Figure 11's output: latency comparison plus anomaly rates."""

    comparison: ComparisonResult
    anomaly_rate_lww: float
    anomaly_rate_causal: float
    requests_per_system: int


def run_figure11(requests: int = 2_000, user_count: int = 1_000,
                 seed_tweets: int = 5_000, executor_vms: int = 4,
                 propagation_interval_ms: float = 200.0,
                 seed: int = 0) -> RetwisExperiment:
    """Cloudburst (LWW), Cloudburst (causal) and Retwis-over-Redis.

    One closed-loop client per system.  Anna propagates key updates to the
    caches every ``propagation_interval_ms`` of virtual time; between rounds
    caches serve stale versions, which is where the anomalies come from.
    """
    comparison = ComparisonResult(title="Figure 11: Retwis request latency")
    generator = SocialWorkloadGenerator(user_count=user_count,
                                        seed_tweet_count=seed_tweets, seed=seed)
    graph = generator.build_graph()
    requests_stream = generator.request_stream(requests)

    anomaly_rates: Dict[str, float] = {}
    for label, level in (("Cloudburst (LWW)", ConsistencyLevel.LWW),
                         ("Cloudburst (Causal)",
                          ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)):
        cluster = CloudburstCluster(
            executor_vms=executor_vms, consistency=level, seed=seed,
            anna_propagation=AnnaCluster.PROPAGATE_PERIODIC,
            propagation_interval_ms=propagation_interval_ms)
        app = RetwisOnCloudburst(cluster, consistency=level)
        app.load_graph(graph)
        recorder = LatencyRecorder(label=label)
        for request in requests_stream:
            recorder.record(app.execute(request))
        comparison.add(recorder)
        anomaly_rates[label] = app.stats.anomaly_rate

    redis_app = RetwisOnRedis(LatencyModel(RandomSource(seed).spawn("redis")))
    redis_app.load_graph(graph)
    recorder = LatencyRecorder(label="Redis")
    for request in requests_stream:
        recorder.record(redis_app.execute(request))
    comparison.add(recorder)

    return RetwisExperiment(
        comparison=comparison,
        anomaly_rate_lww=anomaly_rates["Cloudburst (LWW)"],
        anomaly_rate_causal=anomaly_rates["Cloudburst (Causal)"],
        requests_per_system=requests,
    )


def run_figure12(thread_counts: Sequence[int] = (10, 20, 40, 80, 160),
                 requests_per_point: int = 5_000, seed: int = 0,
                 user_count: int = 200, seed_tweets: int = 1_000) -> ScalingResult:
    """Retwis scaling in causal mode: clients = executor threads.

    Every point loads the social graph onto a causal-mode cluster with that
    many executor threads and replays the workload stream with concurrent
    closed-loop clients through the app's ``cloud.call`` requests on the
    shared engine.
    """

    def run_point(threads: int, clients: int, requests: int) -> SimulationResult:
        generator = SocialWorkloadGenerator(user_count=user_count,
                                            seed_tweet_count=seed_tweets, seed=seed)
        graph = generator.build_graph()
        cluster = build_cluster_with_threads(
            threads, threads_per_vm=3, seed=seed + threads,
            consistency=ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
        app = RetwisOnCloudburst(cluster)
        app.load_graph(graph)
        # Warm-up, proportional to the executor count: a larger cluster has
        # more (initially cold) caches, and the paper measures steady state
        # where hot followers/posts lists are already replicated onto them.
        for warm_request in generator.request_stream(threads * 8):
            app.execute(warm_request)
        stream = generator.request_stream(requests)

        def request(_cloud, ctx: RequestContext, index: int) -> None:
            # The app issues through its own CloudburstClient; requests
            # complete within the arrival's context (single-function calls).
            app.execute(stream[index], ctx=ctx)

        # Summary-only consumer: histogram-backed recording (see figure 10).
        return run_engine_closed_loop(
            cluster, request, clients=clients, total_requests=requests,
            label=f"figure12-{threads}t", record_charges=False,
            keep_latency_samples=False)

    return _scaling_sweep(
        title="Figure 12: Retwis scaling (causal mode)",
        thread_counts=thread_counts,
        clients_for=lambda threads: threads,
        requests_per_point=requests_per_point,
        point_runner=run_point,
    )
