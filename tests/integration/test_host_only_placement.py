"""The DR-13 placement rewrite is host-only: a seeded run proves it.

The twin of ``test_host_only_fast_paths.py`` for the scheduler.  Each small
workload runs twice in this process — once on the shipped placement and once
with the parent commit's bodies patched in (``tests/reference_placement.py``:
per-thread utilization re-sums, every thread scored, the bisect ``depth``) —
and must agree sample for sample.  Latencies cover every charge, every queue
wait a placement caused and every RNG draw, so a pool handed to
``scheduler.rng.choice`` in another order, or a second draw, fails here.

The pinned pipeline is ``predict_dag`` in small: more clients than pins, so
most placements find the pins busy and spill, and its middle stage (three
replicas) takes a ``CloudburstReference`` — the locality path over pinned
candidates.  Retwis places every call over all live threads by locality.
"""

import pytest

import reference_placement as reference
from repro.bench.harness import EngineLoadDriver
from repro.cloudburst import CloudburstCluster, CloudburstReference, simulated_compute
from test_host_only_fast_paths import _retwis

SEED = 11


@simulated_compute(4.0)
def _resize(x):
    return x + 1


@simulated_compute(9.0)
def _score(x, weights):
    return x * weights


@simulated_compute(2.0)
def _render(x):
    return {"label": x}


def _pinned_pipeline():
    """5 VMs x 3 threads, 9 closed-loop clients, 240 three-stage requests."""
    cluster = CloudburstCluster(executor_vms=5, threads_per_vm=3, seed=SEED)
    client = cluster.connect("pipeline-client")
    client.put("weights", 3)
    for function in (_resize, _score, _render):
        client.register(function, name=function.__name__)
    client.register_dag("pipeline", ["_resize", "_score", "_render"],
                        [("_resize", "_score"), ("_score", "_render")])
    # A second and third replica of the slow stage, in the (shuffled) order
    # pin_function drew them: pinned candidates reach the RNG in pin order.
    cluster.schedulers[0].pin_function("_score", replicas=3)
    args = {"_resize": [1], "_score": [CloudburstReference("weights")]}
    assert client.call_dag("pipeline", args).get() == {"label": 6}  # warm

    def request(cloud, ctx, _index):
        return cloud.call_dag("pipeline", args, ctx=ctx)

    return cluster, request, 9, 240


def _seeded_run(build):
    cluster, request, clients, requests = build()
    result = EngineLoadDriver(cluster, request, clients=clients,
                              max_requests=requests).run()
    assert len(result.latencies.samples_ms) == requests
    stats = cluster.schedulers[0].stats
    return {
        "latencies_ms": result.latencies.samples_ms,
        "locality": (stats.locality_hits, stats.locality_misses),
        "invocations": [thread.invocation_count
                        for vm in cluster.vms for thread in vm.threads],
    }


@pytest.mark.parametrize("build", [_pinned_pipeline, _retwis])
def test_seeded_timeline_is_identical_on_the_reference_placement(build, monkeypatch):
    shipped = _seeded_run(build)
    reference.patch_in(monkeypatch)
    on_reference = _seeded_run(build)

    # The run must actually exercise placement: both locality outcomes, and
    # work spread over more threads than any pin set holds.
    hits, misses = shipped["locality"]
    assert hits > 0 and misses > 0
    assert sum(1 for count in shipped["invocations"] if count) > 3

    assert shipped["latencies_ms"] == on_reference["latencies_ms"]
    assert shipped["locality"] == on_reference["locality"]
    assert shipped["invocations"] == on_reference["invocations"]
