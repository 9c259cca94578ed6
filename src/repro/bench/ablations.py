"""Ablation benchmarks for the design choices DESIGN.md calls out.

These are not figures from the paper; they quantify the contribution of the
individual mechanisms the paper's design rests on:

* locality-aware scheduling vs random placement,
* executor-local caches vs always reading from Anna,
* backpressure-driven hot-key replication,
* direct TCP messaging vs the Anna-inbox fallback.

Each ``run_*_ablation`` returns its part of the ``ablations`` snapshot
section; :func:`run_ablations` runs all four and returns the section.
"""

from __future__ import annotations

from typing import Dict

from ..cloudburst import CloudburstCluster, CloudburstReference
from ..cloudburst.policy import DEFAULT_PLACEMENT_POLICY, RANDOM_PLACEMENT_POLICY
from ..sim import LatencyRecorder
from ..workloads.arrays import LocalityWorkloadKeys, make_arrays, sum_arrays_with_library
from .harness import run_closed_loop, systems


def run_ablations(seed: int, scheduling: dict, caching: dict,
                  hot_key_replication: dict, messaging: dict) -> dict:
    """Every ablation with its own keyword arguments; the ``ablations`` section."""
    return {"ablations": {
        "scheduling": run_scheduling_ablation(seed=seed, **scheduling),
        "caching": run_caching_ablation(seed=seed, **caching),
        "hot_key_replication": run_hot_key_replication_ablation(
            seed=seed, **hot_key_replication),
        "messaging": run_messaging_ablation(seed=seed, **messaging),
    }}


def run_scheduling_ablation(requests: int = 200, size_label: str = "800KB",
                            executor_vms: int = 7, seed: int = 0) -> dict:
    """Same reference-heavy workload with and without locality scheduling."""
    recorders = []
    hit_rates: Dict[str, float] = {}
    for label, policy in (("Locality scheduling", DEFAULT_PLACEMENT_POLICY),
                          ("Random placement", RANDOM_PLACEMENT_POLICY)):
        # Prefetch off: this ablation varies the *placement policy* alone.
        # With reference prefetching on, even random placement warms the
        # chosen cache before the invoke and the hit-rate signal vanishes.
        cluster = CloudburstCluster(executor_vms=executor_vms, seed=seed,
                                    prefetch_references=False)
        cloud = cluster.connect()
        arrays = make_arrays(size_label, seed=seed)
        keys = LocalityWorkloadKeys.shared(size_label)
        for key, array in zip(keys.keys, arrays):
            cloud.put(key, array)
        cloud.register(sum_arrays_with_library, name="sum_arrays")
        for scheduler in cluster.schedulers:
            scheduler.placement_policy = policy
        references = [CloudburstReference(key) for key in keys.keys]
        cloud.call("sum_arrays", references)  # warm one cache
        recorders.append(run_closed_loop(
            label, lambda i: cloud.call("sum_arrays", references).latency_ms, requests))
        hit_rates[label] = cluster.cache_hit_rate()
    return {"systems": systems(*recorders), "hit_rate": hit_rates}


def run_caching_ablation(requests: int = 200, size_label: str = "800KB",
                         seed: int = 0) -> dict:
    """Executor-local caches on vs off (every read forced through Anna)."""
    recorders = []
    for label, caches_enabled in (("Caches enabled", True), ("Caches disabled", False)):
        cluster = CloudburstCluster(executor_vms=3, seed=seed)
        cloud = cluster.connect()
        arrays = make_arrays(size_label, seed=seed)
        keys = LocalityWorkloadKeys.shared(size_label)
        for key, array in zip(keys.keys, arrays):
            cloud.put(key, array)
        cloud.register(sum_arrays_with_library, name="sum_arrays")
        references = [CloudburstReference(key) for key in keys.keys]
        cloud.call("sum_arrays", references)

        def request(i: int) -> float:
            if not caches_enabled:
                for vm in cluster.vms:
                    vm.cache.clear()
            return cloud.call("sum_arrays", references).latency_ms

        recorders.append(run_closed_loop(label, request, requests))
    return {"systems": systems(*recorders)}


#: How long the hot-key ablation keeps a hot VM's threads occupied: longer
#: than the hop from the client to the scheduler's placement decision,
#: shorter than one request, so the next request finds the VM free again.
_HOT_VM_BUSY_MS = 1.0


def run_hot_key_replication_ablation(requests: int = 300, executor_vms: int = 6,
                                     seed: int = 0) -> dict:
    """Backpressure-driven replication of a hot key across executor caches.

    With the overload threshold in place, the scheduler diverts requests away
    from the saturated executor that first cached the hot key; the newly
    chosen executors fetch and cache it, raising its replication factor.
    Reports how many caches hold the key with and without backpressure.
    """
    counts: Dict[str, int] = {}
    total = 0
    for label, backpressure in (("backpressure", True), ("no_backpressure", False)):
        cluster = CloudburstCluster(executor_vms=executor_vms, seed=seed)
        cloud = cluster.connect()
        cloud.put("hot-key", list(range(256)))
        cloud.register(lambda cloudburst, ref: len(cloudburst.get("hot-key")),
                       name="touch_hot")
        reference = CloudburstReference("hot-key")
        for index in range(requests):
            if backpressure:
                # Saturate whichever VM currently caches the hot key so the
                # scheduler's overload avoidance kicks in: every one of its
                # threads is busy with other work while this call is placed.
                now_ms = cluster.engine.now_ms
                for vm in cluster.vms:
                    if vm.cache.contains("hot-key"):
                        for thread in vm.threads:
                            busy_from = thread.work_queue.admit(now_ms)
                            thread.work_queue.release(
                                busy_from + _HOT_VM_BUSY_MS)
            cloud.call("touch_hot", [reference])
            if index % 20 == 0:
                cluster.publish_all_metrics()
        counts[label] = sum(
            1 for vm in cluster.vms if vm.cache.contains("hot-key"))
        total = len(cluster.vms)
    return {"caches_with_hot_key": counts, "total_caches": total}


def run_messaging_ablation(messages: int = 500, seed: int = 0) -> dict:
    """Direct TCP messaging vs falling back to the Anna inbox."""
    recorders = []
    for label, reachable in (("Direct TCP", True), ("Anna inbox fallback", False)):
        cluster = CloudburstCluster(executor_vms=2, seed=seed)
        threads = [t for vm in cluster.vms for t in vm.threads]
        sender, receiver = threads[0], threads[1]
        if not reachable:
            cluster.router.mark_unreachable(receiver.thread_id)
        recorder = LatencyRecorder(label=label)
        for index in range(messages):
            with cluster.request() as ctx:
                start_ms = ctx.clock.now_ms
                cluster.router.send(sender.thread_id, receiver.thread_id,
                                    f"ping-{index}", ctx)
                cluster.router.recv(receiver.thread_id, ctx)
            recorder.record(ctx.clock.now_ms - start_ms)
        recorders.append(recorder)
    return {"systems": systems(*recorders)}
