"""Case-study experiments: prediction serving (Figures 9, 10) and Retwis
(Figures 11, 12) from §6.3.

Each ``run_figure*`` returns its snapshot section as ``{name: section}``.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence

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
from .harness import EngineLoadDriver, build_cluster_with_threads, run_closed_loop, systems


# --------------------------------------------------------------------------------------
# Figure 9: prediction-serving latency across platforms
# --------------------------------------------------------------------------------------
def run_figure9(requests: int = 50, seed: int = 0,
                image_side: int = 512) -> dict:
    """Cloudburst vs native Python, SageMaker, Lambda (mock) and Lambda
    (actual), serving the 3-stage MobileNet-style pipeline."""
    image = make_image(side=image_side, seed=seed)

    cluster = CloudburstCluster(executor_vms=1, threads_per_vm=3, seed=seed)
    deployment = deploy_on_cloudburst(cluster)
    deployment.serve(image)  # warm the model into the executor cache

    def cloudburst_request(i: int) -> float:
        _, latency = deployment.serve(image)
        return latency

    recorders = [run_closed_loop("Cloudburst", cloudburst_request, requests)]

    baselines = PredictionBaselines(LatencyModel(RandomSource(seed).spawn("figure9")))

    def measure(runner, i: int) -> float:
        ctx = RequestContext()
        runner(image, ctx)
        return ctx.clock.now_ms

    for label, runner in (("Python", baselines.run_python),
                          ("AWS Sagemaker", baselines.run_sagemaker),
                          ("Lambda (Mock)", baselines.run_lambda_mock),
                          ("Lambda (Actual)", baselines.run_lambda_actual)):
        recorders.append(run_closed_loop(
            label, lambda i, runner=runner: measure(runner, i), requests))
    return {"figure9_prediction": {"systems": systems(*recorders)}}


# --------------------------------------------------------------------------------------
# Figures 10 and 12: throughput/latency scaling with executor thread count
# --------------------------------------------------------------------------------------
def _scaling_sweep(name: str, thread_counts: Sequence[int], clients_for,
                   requests_per_point: int, point_runner) -> dict:
    """Thread-count sweep: each point runs real requests on a fresh cluster.

    ``point_runner(threads, clients, requests)`` must return a
    :class:`~repro.sim.SimulationResult` produced by driving concurrent
    clients through the public ``cloud.call``/``cloud.call_dag`` API — there
    is no synthetic service-time model anywhere on this path.
    """
    cpu = time.process_time()
    points = []
    for threads in thread_counts:
        clients = max(1, clients_for(threads))
        sim: SimulationResult = point_runner(threads, clients, requests_per_point)
        summary = sim.latencies.summary()
        points.append({"threads": threads, "clients": clients,
                       "requests_per_s": round(sim.overall_throughput_per_s, 2),
                       "median_ms": round(summary.median_ms, 3),
                       "p99_ms": round(summary.p99_ms, 3)})
    cpu = time.process_time() - cpu
    return {name: {
        "requests_per_point": requests_per_point,
        # Host speed of the sweep (cluster set-up included) in simulated
        # requests per CPU-second: the ledger's trend row for the simulator.
        "sim_requests_per_cpu_s": round(len(points) * requests_per_point / cpu, 2),
        "points": points,
    }}


def run_figure10(thread_counts: Sequence[int] = (10, 20, 40, 80, 160),
                 requests_per_point: int = 2_000, seed: int = 0,
                 image_side: int = 512) -> dict:
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
        return EngineLoadDriver(
            cluster, request, clients=clients, max_requests=requests,
            label=f"figure10-{threads}t", record_charges=False,
            keep_latency_samples=False).run()

    return _scaling_sweep(
        "figure10_prediction_scaling",
        thread_counts=thread_counts,
        clients_for=lambda threads: threads // 3,
        requests_per_point=requests_per_point,
        point_runner=run_point,
    )


# --------------------------------------------------------------------------------------
# Figure 11: Retwis latency and anomaly prevention
# --------------------------------------------------------------------------------------
def run_figure11(requests: int = 2_000, user_count: int = 1_000,
                 seed_tweets: int = 5_000, executor_vms: int = 4,
                 propagation_interval_ms: float = 200.0,
                 seed: int = 0) -> dict:
    """Cloudburst (LWW), Cloudburst (causal) and Retwis-over-Redis: request
    latency, and each Cloudburst mode's anomaly rate.

    One closed-loop client per system.  Anna propagates key updates to the
    caches every ``propagation_interval_ms`` of virtual time; between rounds
    caches serve stale versions, which is where the anomalies come from.
    """
    recorders = []
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
        recorders.append(recorder)
        anomaly_rates[label] = app.stats.anomaly_rate

    redis_app = RetwisOnRedis(LatencyModel(RandomSource(seed).spawn("redis")))
    redis_app.load_graph(graph)
    recorder = LatencyRecorder(label="Redis")
    for request in requests_stream:
        recorder.record(redis_app.execute(request))
    recorders.append(recorder)
    return {"figure11_retwis": {"systems": systems(*recorders),
                                "anomaly_rate": anomaly_rates}}


def run_figure12(thread_counts: Sequence[int] = (10, 20, 40, 80, 160),
                 requests_per_point: int = 5_000, seed: int = 0,
                 user_count: int = 200, seed_tweets: int = 1_000) -> dict:
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
        return EngineLoadDriver(
            cluster, request, clients=clients, max_requests=requests,
            label=f"figure12-{threads}t", record_charges=False,
            keep_latency_samples=False).run()

    return _scaling_sweep(
        "figure12_retwis_scaling",
        thread_counts=thread_counts,
        clients_for=lambda threads: threads,
        requests_per_point=requests_per_point,
        point_runner=run_point,
    )
