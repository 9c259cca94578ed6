"""The DR-11 lattice fast paths are host-only: a seeded run proves it.

Each small workload below runs twice in this process under distributed
session causal consistency — once on the shipped code and once with the
parent commit's slow implementations patched in
(``tests/reference_lattices.py``) — and must agree sample for sample.
Latencies cover every charge and RNG draw; the per-cache counters cover the
cut repair's and the session protocol's fetches; the dependency *order* of
every stored key is Invariant 1 (the cut repair walks it to order its KVS
reads), so a later fast path that builds a value-equal join in another order
fails here even where latencies happen to agree.

Retwis (one function per request, 30% writes, wide dependency sets) stresses
the merges, the size carry and the cut repair; the §6.2 DAG sessions cross
caches, so they also cover the session's dependency entries (which upstream a
constrained read fetches from) and ``_causally_valid``.
"""

from dataclasses import asdict

import pytest

import reference_lattices as reference
from repro.anna import AnnaCluster
from repro.apps.retwis import RetwisOnCloudburst
from repro.bench.harness import EngineLoadDriver, build_cluster_with_threads
from repro.cloudburst import CloudburstCluster, ConsistencyLevel
from repro.lattices import CausalLattice
from repro.sim import RandomSource
from repro.workloads.dags import ConsistencyWorkload
from repro.workloads.social import SocialWorkloadGenerator

DSC = ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL
SEED = 5


def _retwis():
    """12 threads, 12 closed-loop clients, 150 requests, 30% writes."""
    generator = SocialWorkloadGenerator(user_count=40, seed_tweet_count=150,
                                        write_fraction=0.30, seed=SEED)
    cluster = build_cluster_with_threads(12, threads_per_vm=3, seed=SEED,
                                         consistency=DSC)
    app = RetwisOnCloudburst(cluster)
    app.load_graph(generator.build_graph())
    for warm_request in generator.request_stream(48):
        app.execute(warm_request)
    stream = generator.request_stream(150)

    def request(_cloud, ctx, index):
        app.execute(stream[index], ctx=ctx)

    return cluster, request, 12, 150


def _dag_sessions():
    """Random 2-5 function DAG sessions over 4 VMs, periodic propagation.

    Only 30 keys, so sessions keep meeting dependencies another cache shipped
    (enough contention that dropping the ``cache_id`` rewrite in
    ``_track_dependencies`` moves this timeline).
    """
    cluster = CloudburstCluster(
        executor_vms=4, threads_per_vm=3, consistency=DSC, seed=SEED,
        anna_propagation=AnnaCluster.PROPAGATE_PERIODIC,
        propagation_interval_ms=50.0)
    client = cluster.connect(consistency=DSC)
    workload = ConsistencyWorkload(dag_count=20, seed=SEED)
    workload.populate(client, populated_keys=30)
    dags = workload.generate_dags(client)
    rng = RandomSource(SEED).spawn("dag-choice")

    def request(cloud, ctx, _index):
        dag = rng.choice(dags)
        function_args, _sink_key = workload.sample_request(dag)
        return cloud.call_dag(dag.name, function_args, consistency=DSC, ctx=ctx)

    return cluster, request, 8, 300


def _seeded_run(build):
    cluster, request, clients, requests = build()
    result = EngineLoadDriver(cluster, request, clients=clients,
                              max_requests=requests).run()
    assert len(result.latencies.samples_ms) == requests
    kvs = cluster.kvs
    stored = ((key, kvs.peek(key)) for key in kvs.keys())
    causal = {key: lattice for key, lattice in stored
              if isinstance(lattice, CausalLattice)}
    return {
        "latencies_ms": result.latencies.samples_ms,
        "cache_stats": [asdict(vm.cache.stats) for vm in cluster.vms],
        "dependency_order": {key: list(lattice.dependencies)
                             for key, lattice in causal.items()},
        "sizes": {key: (lattice.size_bytes(), lattice.metadata_bytes())
                  for key, lattice in causal.items()},
    }


@pytest.mark.parametrize("build", [_retwis, _dag_sessions])
def test_seeded_timeline_is_identical_on_the_reference_implementations(build, monkeypatch):
    shipped = _seeded_run(build)
    reference.patch_in(monkeypatch)
    on_reference = _seeded_run(build)

    # The run must actually exercise what the fast paths touch.
    assert any(len(order) > 1 for order in shipped["dependency_order"].values())
    assert sum(stats["update_pushes_received"] + stats["upstream_fetches"]
               for stats in shipped["cache_stats"]) > 0

    assert shipped["latencies_ms"] == on_reference["latencies_ms"]
    assert shipped["cache_stats"] == on_reference["cache_stats"]
    assert shipped["dependency_order"] == on_reference["dependency_order"]
    assert shipped["sizes"] == on_reference["sizes"]
