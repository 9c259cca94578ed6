"""The DR-16 request-path rewrite is host-only: seeded runs prove it.

The twin of ``test_host_only_placement.py`` for the Retwis request path.
Each workload runs twice in this process — once shipped and once with the
parent commit's bodies patched in (``tests/reference_request_path.py``: the
per-interval reservation walk and the sorted timeline) — and must agree
sample for sample.  Latencies carry every storage-queue wait, so a
reservation placed at another start fails here; the storage queues' interval
lists are compared too.

The Cloudburst run puts 24 clients on one Anna node, so reservations queue
behind runs of back-to-back intervals.  The Redis baseline (Fig 11's third
system) shares the timeline's top-k.
"""

from repro.apps.retwis import RetwisOnCloudburst, RetwisOnRedis
from repro.bench.harness import EngineLoadDriver, build_cluster_with_threads
from repro.cloudburst import ConsistencyLevel
from repro.sim import LatencyModel, RandomSource
from repro.workloads.social import SocialWorkloadGenerator

import reference_request_path as reference

SEED = 7


def _generator(write_fraction=0.2):
    return SocialWorkloadGenerator(user_count=60, seed_tweet_count=400,
                                   write_fraction=write_fraction, seed=SEED)


def _cloudburst_run():
    generator = _generator()
    cluster = build_cluster_with_threads(
        24, threads_per_vm=3, seed=SEED, anna_nodes=1, anna_replication=1,
        consistency=ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
    app = RetwisOnCloudburst(cluster)
    app.load_graph(generator.build_graph())
    stream = generator.request_stream(400)

    def request(_cloud, ctx, index):
        app.execute(stream[index], ctx=ctx)

    result = EngineLoadDriver(cluster, request, clients=24, max_requests=400).run()
    queues = [cluster.kvs.node(node_id).work_queue for node_id in cluster.kvs.node_ids]
    return {
        "latencies_ms": result.latencies.samples_ms,
        "anomalous": app.stats.anomalous_timelines,
        "intervals": [(q._starts, q._ends, q.busy_ms, q.completed) for q in queues],
        "runs_walked": sum(len(q._starts) - len(q._run_starts) for q in queues),
    }


def _redis_run():
    generator = _generator(write_fraction=0.3)
    app = RetwisOnRedis(LatencyModel(RandomSource(SEED).spawn("redis")))
    app.load_graph(generator.build_graph())
    return [app.execute(request) for request in generator.request_stream(300)]


def test_seeded_retwis_is_identical_on_the_reference_request_path(monkeypatch):
    shipped = _cloudburst_run()
    reference.patch_in(monkeypatch)
    on_reference = _cloudburst_run()

    # Reservations must actually have met touching intervals to walk.
    assert shipped["runs_walked"] > 0
    assert shipped["latencies_ms"] == on_reference["latencies_ms"]
    assert shipped["anomalous"] == on_reference["anomalous"]
    assert shipped["intervals"] == on_reference["intervals"]


def test_seeded_redis_baseline_is_identical_on_the_reference_timeline(monkeypatch):
    shipped = _redis_run()
    reference.patch_in(monkeypatch)
    assert _redis_run() == shipped
