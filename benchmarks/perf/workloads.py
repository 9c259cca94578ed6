"""The four closed-loop workloads of the repository's benchmark.

Each builder does the whole set-up (graph, cluster, load, registration,
warm-up) through the public API and returns a :class:`Prepared` run: the
cluster, the driver request function and the output checks.  Threads, clients
and request mixes are fixed; only the measured request count scales, by the
one common factor :data:`REQUEST_SCALE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.anna import AnnaCluster
from repro.apps.prediction import (
    PIPELINE_DAG,
    deploy_on_cloudburst,
    make_image,
    make_model_weights,
    render_prediction,
    resize_image,
    run_model,
)
from repro.apps.retwis import RetwisOnCloudburst
from repro.bench.harness import build_cluster_with_threads
from repro.cloudburst import CloudburstCluster, ConsistencyLevel
from repro.sim import RandomSource
from repro.workloads.dags import ConsistencyWorkload
from repro.workloads.social import SocialWorkloadGenerator

#: Common factor on every workload's measured request count.  1.0 is the
#: issue's shape (3000/2000/2500/3000 requests, ~35 s per three-repetition
#: run here); the builder's contract caps 92 runs at 3420 s, so the recorded
#: baseline and the driver use 0.4.
REQUEST_SCALE = 0.4

DSC = ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL


@dataclass
class Prepared:
    """One set-up, ready for ``EngineLoadDriver``."""

    cluster: CloudburstCluster
    #: ``(cloud, ctx, index) -> Optional[CloudburstFuture]``
    request_fn: Callable
    #: Says whether one request's resolved value is the expected output.
    result_ok: Callable[[Any], bool] = lambda value: True
    #: Counts read after the run that must all be zero (each one counted is a
    #: request whose output was wrong).
    violations: Callable[[], Dict[str, int]] = dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    clients: int
    requests: int  # at REQUEST_SCALE 1.0
    build: Callable[[int, int, Optional[object]], Prepared] = field(repr=False)

    def measured_requests(self, scale: float) -> int:
        return max(self.clients, int(self.requests * scale))


def _retwis(threads: int, write_fraction: float):
    """Figure 12's deployment: Retwis under DSC, clients = executor threads."""

    def build(seed: int, requests: int, tracer) -> Prepared:
        generator = SocialWorkloadGenerator(
            user_count=200, seed_tweet_count=1_000,
            write_fraction=write_fraction, seed=seed)
        graph = generator.build_graph()
        cluster = build_cluster_with_threads(
            threads, threads_per_vm=3, seed=seed + threads, consistency=DSC,
            tracer=tracer)
        app = RetwisOnCloudburst(cluster)
        app.load_graph(graph)
        # Steady state, as in the paper: hot followers/posts lists are already
        # replicated onto the (initially cold) caches of every VM.
        for warm_request in generator.request_stream(threads * 8):
            app.execute(warm_request)
        stream = generator.request_stream(requests)

        def request(_cloud, ctx, index):
            app.execute(stream[index], ctx=ctx)

        def violations() -> Dict[str, int]:
            return {
                "anomalous_timelines": app.stats.anomalous_timelines,
                "causal_deps_unresolved": sum(
                    vm.cache.stats.causal_deps_unresolved for vm in cluster.vms),
            }

        return Prepared(cluster, request, violations=violations)

    return build


def _predict_dag(seed: int, requests: int, tracer) -> Prepared:
    """Figure 10's pipeline at 160 threads: three-stage ``call_dag`` under LWW."""
    image = make_image(side=512, seed=seed)
    cluster = build_cluster_with_threads(160, threads_per_vm=3, seed=seed + 160,
                                         tracer=tracer)
    deployment = deploy_on_cloudburst(cluster)
    deployment.serve(image)  # warm the model into the executor caches
    expected = render_prediction(run_model(resize_image(image), make_model_weights()))

    def request(cloud, ctx, index):
        return cloud.call_dag(PIPELINE_DAG, {"cb_resize": [image]}, ctx=ctx)

    return Prepared(cluster, request,
                    result_ok=lambda value: value["label"] == expected["label"])


def _session_dags(seed: int, requests: int, tracer) -> Prepared:
    """The §6.2 workload: random linear DAGs as distributed sessions under DSC."""
    cluster = CloudburstCluster(
        executor_vms=5, threads_per_vm=3, consistency=DSC, seed=seed,
        anna_propagation=AnnaCluster.PROPAGATE_PERIODIC,
        propagation_interval_ms=50.0, tracer=tracer)
    client = cluster.connect(consistency=DSC)
    workload = ConsistencyWorkload(dag_count=100, seed=seed)
    workload.populate(client, populated_keys=2_000)
    dags = workload.generate_dags(client)
    rng = RandomSource(seed).spawn("dag-choice")

    def request(cloud, ctx, index):
        dag = rng.choice(dags)
        function_args, _sink_key = workload.sample_request(dag)
        return cloud.call_dag(dag.name, function_args, consistency=DSC, ctx=ctx)

    return Prepared(cluster, request,
                    result_ok=lambda value: isinstance(value, str))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "retwis_read",
        "Fig 12's hard point: 160 threads, 10% writes; host time is lattice sizing "
        "and causal-read bookkeeping, virtual tail is the 160-thread p99",
        clients=160, requests=3_000, build=_retwis(160, 0.10)),
    Workload(
        "retwis_write",
        "same app at 80 threads, 30% writes: time moves to clock/lattice merges, "
        "Anna puts and update pushes, so a read-side memo that costs writes shows",
        clients=80, requests=2_000, build=_retwis(80, 0.30)),
    Workload(
        "predict_dag",
        "Fig 10 pipeline via call_dag under LWW: bypasses the causal layer, so "
        "host time is executor, engine and scheduler; lattice changes must not move it",
        clients=53, requests=2_500, build=_predict_dag),
    Workload(
        "session_dags",
        "Sec 6.2 random 2-5 function DAG sessions under DSC with periodic Anna "
        "propagation: snapshots and upstream fetches Retwis never takes",
        clients=8, requests=3_000, build=_session_dags),
)}
