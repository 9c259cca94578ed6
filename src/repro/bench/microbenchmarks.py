"""Mechanism microbenchmarks: Figures 1, 5, 6 and 7 (§6.1).

Each ``run_figure*`` function is self-contained: it builds the systems under
test, drives the workload, and returns its ``BENCH_throughput.json`` section
as ``{name: section}``, which the figure registry (:mod:`repro.bench.figures`)
records, gates and prints.  Parameters default to paper-scale values; the
registry declares the smaller budgets.

The Cloudburst sides of Figures 5 and 6 run through
:class:`~repro.bench.harness.EngineLoadDriver`: concurrent closed-loop
clients issue requests through the real stack on the cluster's
discrete-event timeline — every charged KVS operation waits out the target
storage node's bounded work queue, writes land on one replica and reach the
rest via periodic anti-entropy gossip, so the locality and gossip-vs-gather
numbers include real storage contention (``clients=1`` is the uncontended
closed loop).  The simulated Lambda/Redis/S3/DynamoDB baselines have no
storage-node model: each of their requests runs on a fresh zero-based clock.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..anna import StorageAutoscaler, StorageAutoscalerConfig
from ..apps.gossip import GatherAggregation, GossipAggregation
from ..baselines import (
    DaskCluster,
    LambdaComposition,
    SandPlatform,
    SimulatedDynamoDB,
    SimulatedLambda,
    SimulatedRedis,
    SimulatedS3,
    StepFunctions,
)
from ..cloudburst import CloudburstCluster, CloudburstReference
from ..cloudburst.controlplane import ComputeControlPlane, MonitoringConfig
from ..sim import LatencyModel, RandomSource, RequestContext, ZipfGenerator
from ..workloads.arrays import (
    ELEMENTS_PER_ARRAY,
    FIGURE5_TOTAL_SIZES,
    LocalityWorkloadKeys,
    make_arrays,
    sum_arrays,
    sum_arrays_with_library,
)
from .harness import (
    EngineLoadDriver,
    build_cluster_with_threads,
    latency_summary,
    run_closed_loop,
    systems,
)


# --------------------------------------------------------------------------------------
# Figure 1: function composition latency across platforms
# --------------------------------------------------------------------------------------
def _increment(x: int) -> int:
    return x + 1


def _square(x: int) -> int:
    return x * x


def run_figure1(requests: int = 1000, seed: int = 0) -> dict:
    """square(increment(x)) on Cloudburst, Dask, SAND, Lambda variants, Step Functions.

    Median / p99 over serial requests, per platform.
    """
    recorders = []
    rng = RandomSource(seed)
    shared_model = LatencyModel(rng.spawn("baselines"))

    # -- Cloudburst (one executor VM with 3 worker threads, as in §6.1.1) ------------
    cluster = CloudburstCluster(executor_vms=1, threads_per_vm=3, seed=seed)
    cloud = cluster.connect()
    cloud.register(_increment, name="increment")
    cloud.register(_square, name="square")
    cloud.register_dag("composition", ["increment", "square"],
                       [("increment", "square")])

    recorders.append(run_closed_loop(
        "Cloudburst", lambda i: cloud.call_dag(
            "composition", {"increment": [i]}, store_in_kvs=True).latency_ms, requests))
    recorders.append(run_closed_loop(
        "CB (Single)", lambda i: cloud.call(
            "square", [i], store_in_kvs=True).latency_ms, requests))

    # -- Dask and SAND -----------------------------------------------------------------
    dask = DaskCluster(shared_model)
    dask.register(_increment, "increment")
    dask.register(_square, "square")

    def dask_request(i: int) -> float:
        ctx = RequestContext()
        dask.run_pipeline(["increment", "square"], i, ctx)
        return ctx.clock.now_ms

    recorders.append(run_closed_loop("Dask", dask_request, requests))

    sand = SandPlatform(shared_model, rng=rng.spawn("sand"))
    sand.register(_increment, "increment")
    sand.register(_square, "square")

    def sand_request(i: int) -> float:
        ctx = RequestContext()
        sand.run_pipeline(["increment", "square"], i, ctx)
        return ctx.clock.now_ms

    recorders.append(run_closed_loop("SAND", sand_request, requests))

    # -- AWS Lambda variants --------------------------------------------------------------
    platform = SimulatedLambda(shared_model)
    platform.register(_increment, "increment")
    platform.register(_square, "square")
    s3 = SimulatedS3(shared_model)
    dynamo = SimulatedDynamoDB(shared_model)
    direct = LambdaComposition(platform)
    via_s3 = LambdaComposition(platform, s3)
    via_dynamo = LambdaComposition(platform, dynamo)
    step_functions = StepFunctions(platform, shared_model)

    def lambda_request(runner, i: int) -> float:
        ctx = RequestContext()
        runner(["increment", "square"], i, ctx)
        return ctx.clock.now_ms

    recorders.append(run_closed_loop(
        "Lambda", lambda i: lambda_request(direct.run_direct, i), requests))
    recorders.append(run_closed_loop(
        "Lambda (Single)", lambda i: lambda_request(
            lambda fns, arg, ctx: platform.invoke("square", (arg,), ctx), i), requests))
    recorders.append(run_closed_loop(
        "Lambda + S3", lambda i: lambda_request(via_s3.run_through_storage, i), requests))
    recorders.append(run_closed_loop(
        "Lambda + Dynamo",
        lambda i: lambda_request(via_dynamo.run_through_storage, i), requests))
    recorders.append(run_closed_loop(
        "Step Functions", lambda i: lambda_request(step_functions.execute, i), requests))
    return {"figure1_composition": {"systems": systems(*recorders)}}


# --------------------------------------------------------------------------------------
# Figure 5: data locality (sum of 10 arrays, 80 KB - 80 MB total)
# --------------------------------------------------------------------------------------
#: Default number of concurrent closed-loop clients on the
#: locality/aggregation figures.  Small: Figures 5 and 6 are latency figures,
#: so the point is real (but light) storage contention, not saturation.
DEFAULT_MICRO_CLIENTS = 3


def run_figure5(requests_per_size: int = 100,
                sizes: Sequence[str] = FIGURE5_TOTAL_SIZES,
                seed: int = 0,
                clients: int = DEFAULT_MICRO_CLIENTS) -> dict:
    """Cloudburst hot/cold caches vs Lambda over ElastiCache (Redis) and S3,
    the sum of 10 arrays at each total input size."""
    rng = RandomSource(seed)
    by_size = {}
    for label in sizes:
        # Large inputs need fewer repetitions to keep runtime reasonable.
        requests = requests_per_size if ELEMENTS_PER_ARRAY[label] <= 100_000 \
            else max(10, requests_per_size // 5)
        by_size[label] = _figure5_one_size(label, requests, rng.spawn(label), clients)
    return {"figure5_locality": {"driver": "engine", "sizes": by_size}}


def _figure5_one_size(label: str, requests: int, rng: RandomSource,
                      clients: int) -> dict:
    recorders = []
    arrays = make_arrays(label, seed=rng.randint(0, 1 << 16))
    keys = LocalityWorkloadKeys.shared(label)
    elements = sum(int(a.size) for a in arrays)

    # -- Cloudburst: 7 executor VMs as in the paper --------------------------------------
    cluster = CloudburstCluster(executor_vms=7, seed=rng.randint(0, 1 << 16))
    cloud = cluster.connect()
    for key, array in zip(keys.keys, arrays):
        cloud.put(key, array)
    cloud.register(sum_arrays_with_library, name="sum_arrays")
    references = [CloudburstReference(key) for key in keys.keys]

    def hot_request(cloud_client, ctx: RequestContext, _index: int):
        return cloud_client.call("sum_arrays", references, ctx=ctx)

    def cold_request(cloud_client, ctx: RequestContext, _index: int):
        # Cold: every retrieval misses the executor cache and goes to Anna.
        for vm in cluster.vms:
            vm.cache.clear()
        return cloud_client.call("sum_arrays", references, ctx=ctx)

    # One warm-up request so "hot" measures steady-state cache hits.
    cloud.call("sum_arrays", references)
    for label, request in (("Cloudburst (Hot)", hot_request),
                           ("Cloudburst (Cold)", cold_request)):
        recorders.append(EngineLoadDriver(
            cluster, request, clients=clients, max_requests=requests,
            label=label).run().latencies)

    # -- Lambda over Redis and S3 ------------------------------------------------------------
    model = LatencyModel(rng.spawn("lambda-model"))
    platform = SimulatedLambda(model)
    redis = SimulatedRedis(model)
    s3 = SimulatedS3(model)
    for key, array in zip(keys.keys, arrays):
        redis.preload(key, array)
        s3.preload(key, array)

    compute_ms = elements * 4.0 / 1e6  # same per-element cost the executors charge

    def summation(*args):
        return sum_arrays(*args)

    summation._cloudburst_compute_ms = compute_ms
    platform.register(summation, "sum_arrays")

    def lambda_storage_request(storage, i: int) -> float:
        ctx = RequestContext()
        fetched = [storage.get(key, ctx) for key in keys.keys]
        platform.invoke("sum_arrays", fetched, ctx, payload_bytes=0)
        return ctx.clock.now_ms

    recorders.append(run_closed_loop(
        "Lambda (Redis)", lambda i: lambda_storage_request(redis, i), requests))
    recorders.append(run_closed_loop(
        "Lambda (S3)", lambda i: lambda_storage_request(s3, i), requests))
    return systems(*recorders)


# --------------------------------------------------------------------------------------
# Figure 6: distributed aggregation (gossip vs gather)
# --------------------------------------------------------------------------------------
def run_figure6(repetitions: int = 100, actor_count: int = 10,
                seed: int = 0,
                clients: int = DEFAULT_MICRO_CLIENTS) -> dict:
    """Gossip on Cloudburst vs centralized gather on Cloudburst/Redis/Dynamo/S3.

    The two Cloudburst-backed algorithms run as concurrent aggregations on
    the cluster's timeline, with the gather leader's storage reads queueing
    at real Anna nodes; the Lambda gathers are simulated baselines, one
    request at a time.
    """
    recorders = []
    rng = RandomSource(seed)
    cluster = CloudburstCluster(executor_vms=4, threads_per_vm=3, seed=seed)
    gossip = GossipAggregation(cluster, actor_count=actor_count, seed=seed)
    cloudburst_gather = GatherAggregation(
        GatherAggregation.BACKEND_CLOUDBURST, actor_count, cluster=cluster,
        seed=seed + 1)
    lambda_gathers = {
        "Lambda+Redis (gather)": GatherAggregation(
            GatherAggregation.BACKEND_REDIS, actor_count,
            latency_model=LatencyModel(rng.spawn("redis")), seed=seed + 2),
        "Lambda+Dynamo (gather)": GatherAggregation(
            GatherAggregation.BACKEND_DYNAMODB, actor_count,
            latency_model=LatencyModel(rng.spawn("dynamo")), seed=seed + 3),
        "Lambda+S3 (gather)": GatherAggregation(
            GatherAggregation.BACKEND_S3, actor_count,
            latency_model=LatencyModel(rng.spawn("s3")), seed=seed + 4),
    }

    # The aggregation protocols drive the request context directly (they are
    # not function invocations), so the request fns complete synchronously.
    def gossip_request(_cloud, ctx: RequestContext, _index: int) -> None:
        gossip.run(ctx=ctx)

    def gather_request(_cloud, ctx: RequestContext, _index: int) -> None:
        cloudburst_gather.run(ctx=ctx)

    for label, request in (("Cloudburst (gossip)", gossip_request),
                           ("Cloudburst (gather)", gather_request)):
        recorders.append(EngineLoadDriver(
            cluster, request, clients=clients, max_requests=repetitions,
            label=label).run().latencies)
    for label, gather in lambda_gathers.items():
        recorders.append(run_closed_loop(label, lambda i, g=gather: g.run().latency_ms,
                                         repetitions))
    return {"figure6_aggregation": {"driver": "engine", "systems": systems(*recorders)}}


# --------------------------------------------------------------------------------------
# Figure 7: autoscaling responsiveness
# --------------------------------------------------------------------------------------
def _sleep_workload_function(cloudburst, key_a, key_b, write_key):
    """The Figure 7 workload: sleep 50 ms, read two Zipf keys, write a third.

    The written payload is a small fixed-size digest of the two reads: the
    write target is itself a Zipf key, so writing the raw concatenation would
    snowball hot-key values (each rewrite embeds previous rewrites).
    """
    a = cloudburst.get(key_a.key if hasattr(key_a, "key") else key_a)
    b = cloudburst.get(key_b.key if hasattr(key_b, "key") else key_b)
    cloudburst.simulate_compute(50.0)
    digest = f"{str(a)[:16]}/{str(b)[:16]}"
    cloudburst.put(write_key.key if hasattr(write_key, "key") else write_key, digest)
    return True


def run_figure7(initial_threads: int = 18, client_count: int = 40,
                load_duration_s: float = 90.0,
                total_duration_s: float = 120.0,
                policy_interval_ms: float = 5_000.0,
                monitoring_config: Optional[MonitoringConfig] = None,
                storage_config: Optional[StorageAutoscalerConfig] = None,
                key_count: int = 2_000,
                seed: int = 0,
                tracer=None) -> dict:
    """Reproduce the Figure 7 timeline: load spike, stepwise scale-up, drain.

    Unlike the paper's 180-thread/400-client deployment, the default scale is
    a tenth of that — every request here *really executes* on the Cloudburst
    stack (scheduler placement, executor work queues, caches, Anna) rather
    than being drawn from a measured service-time distribution, and the
    ~3 million real invocations of the full-scale timeline would be wasteful.
    The dynamics the figure shows (a saturated plateau, stepwise scale-up
    after the node startup delay, drain to the minimum pinned threads when
    load stops) are scale-free; the absolute throughput is threads / 54 ms
    either way.
    """
    config = monitoring_config or MonitoringConfig(
        vms_per_scale_up=2,
        node_startup_delay_ms=15_000.0,
        max_vms=30,
    )
    cluster = build_cluster_with_threads(
        initial_threads, seed=seed, tracer=tracer)
    cloud = cluster.connect()
    zipf = ZipfGenerator(key_count, 1.0, RandomSource(seed).spawn("keys"))
    populated = min(2_000, key_count)
    for index in range(populated):
        cloud.put(f"autoscale-{index}", index)
    cloud.register(_sleep_workload_function, name="sleep_workload")
    # Pin the workload function as the paper's monitoring system would (§4.4):
    # pins are what the control plane migrates off draining executors at
    # scale-down.  Three replicas > the 2-thread drain floor, so the final
    # drain always has at least one pin to migrate.
    cluster.schedulers[0].pin_function("sleep_workload", replicas=3)

    # The storage tier scales on its own policy, as a recurring engine event
    # on the same timeline: hot Zipf keys gain replicas, access spikes add
    # Anna nodes (the hash ring rebalances on each membership change).
    storage_scaler = StorageAutoscaler(
        cluster.kvs,
        storage_config or StorageAutoscalerConfig(
            scale_up_accesses_per_node=800.0,
            scale_down_accesses_per_node=50.0,
            hot_key_threshold=150,
            max_nodes=16,
        ))
    cluster.kvs.set_autoscaler(storage_scaler, interval_ms=policy_interval_ms)

    def request(cloud_client, ctx: RequestContext, index: int):
        a = f"autoscale-{zipf.next() % populated}"
        b = f"autoscale-{zipf.next() % populated}"
        w = f"autoscale-{zipf.next() % populated}"
        return cloud_client.call("sleep_workload", [a, b, w], ctx=ctx)

    # The real §4.4 loop: executors publish metrics to Anna on a recurring
    # engine tick, the control plane aggregates those published keys (alive
    # VMs only) and actuates add_vm after the EC2 startup delay / drains
    # threads with pin migration.
    control_plane = ComputeControlPlane(
        cluster, config=config, policy_interval_ms=policy_interval_ms)
    driver = EngineLoadDriver(
        cluster, request,
        clients=client_count,
        stop_ms=load_duration_s * 1000.0,
        max_duration_ms=total_duration_s * 1000.0,
        control_plane=control_plane,
        throughput_bucket_ms=max(1_000.0, total_duration_s * 1000.0 / 60.0),
        label="figure7",
    )
    sim = driver.run()
    section = {
        "initial_threads": initial_threads,
        "clients": client_count,
        "requests_per_s": round(sim.overall_throughput_per_s, 2),
        "peak_requests_per_s": round(max(
            (p.requests_per_s for p in sim.throughput_curve), default=0.0), 2),
        "completed_requests": sim.completed_requests,
        "capacity_timeline": sim.capacity_timeline,
        "throughput_curve": [[p.time_s, p.requests_per_s, p.allocated_threads]
                             for p in sim.throughput_curve],
        "latency": latency_summary(sim.latencies),
        # What the run cost at the Anna tier: node count, queue busy time,
        # rejections, demotions, gossip traffic.
        "storage": driver.storage_report(),
        # (ms since the run started, storage nodes) after every storage tick.
        "storage_node_timeline": [(at_ms - driver.started_ms, nodes) for at_ms, nodes
                                  in storage_scaler.node_count_timeline],
        "controlplane": control_plane.snapshot(),
    }

    # Per-key cache-index overhead (§6.1.4), measured on a live cluster where
    # many caches hold overlapping Zipfian key sets.
    index_cluster = CloudburstCluster(executor_vms=8, seed=seed + 1)
    cloud = index_cluster.connect()
    zipf = ZipfGenerator(5_000, 1.0, RandomSource(seed + 2))
    for index in range(1_000):
        cloud.put(f"idx-{index}", index)
    for vm in index_cluster.vms:
        for _ in range(400):
            key = f"idx-{zipf.next() % 1_000}"
            try:
                with index_cluster.request() as ctx:
                    vm.cache.get_or_fetch(key, ctx)
            except Exception:
                continue
        vm.cache.publish_cached_keys()
    overhead = index_cluster.kvs.cache_index.overhead()
    section["index_overhead"] = {"median_bytes": overhead.median_bytes,
                                 "p99_bytes": overhead.p99_bytes,
                                 "max_bytes": overhead.max_bytes,
                                 "tracked_keys": overhead.tracked_keys}
    return {"figure7_autoscaling": section}
