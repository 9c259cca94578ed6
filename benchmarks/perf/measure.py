"""One repetition of one workload: set-up, the timed section, and its numbers.

Two kinds of number come out, and every metric says which it is: **host**
(what the Python process costs; noisy) and **virt** (what the modelled
Cloudburst deployment does on the virtual clock; repeats bit-for-bit for a
fixed seed).  Counters are read from the public stats objects before and after
the timed section, so they cover the measured requests only.

Host seconds are CPU seconds of this process (``process_time``).  Set-up and
the timed section are single-threaded and do no I/O, so on a quiet machine
that is the elapsed time (measured ratio 0.993); on this sandbox a neighbour
can steal the CPU for a minute and double every elapsed time, which CPU
seconds leave out.  ``wall_s`` is kept beside them to show when that happened.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Optional

from repro.bench.harness import EngineLoadDriver
from repro.lattices import CausalLattice
from repro.obs import Tracer
from repro.sim import median, percentile

from trace import SpanRecorder
from workloads import Workload

#: Share of requests the program's own virtual-time tracer samples when traced.
VIRT_TRACE_SAMPLE_RATE = 0.05

_CACHE_COUNTERS = (
    "hits", "misses", "causal_dep_fetches", "causal_deps_unresolved",
    "snapshots_created", "update_pushes_received", "upstream_fetches",
    "prefetches_issued", "prefetch_hits", "prefetch_wasted",
)
_LAYERS = ("lattices", "consistency", "cache", "anna", "scheduler", "executor",
           "sim", "apps")


@dataclass
class Repetition:
    """What one set-up plus timed section produced."""

    #: CPU seconds of everything before ``driver.run()``.
    setup_s: float
    #: CPU seconds, and elapsed seconds, of ``driver.run()`` alone.
    run_s: float
    wall_s: float
    issued: int
    completed: int
    #: Driver failures plus requests whose output check failed.
    failed: int
    #: Per-request virtual latency (ms) of every completed request.
    latencies_ms: List[float]
    #: Completions per virtual second between the p10 and p90 completion
    #: instants: makespan is stretched by the last straggler, and
    #: SimulationResult.duration_ms rounds up to a background tick.
    virt_throughput_rps: float
    #: Public counters over the timed section; deterministic like ``virt``.
    counters: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    #: Traced repetitions only: per-layer host self time, virtual time per
    #: request and call counts, by metric name.
    traced: Dict[str, float] = field(default_factory=dict)

    @property
    def req_per_host_s(self) -> float:
        return self.completed / self.run_s

    def virtual_results(self) -> Dict[str, object]:
        """Everything that must repeat bit-for-bit for a fixed seed."""
        return {"latencies_ms": self.latencies_ms,
                "virt_throughput_rps": self.virt_throughput_rps, **self.counters}


def _cumulative_counters(cluster) -> Dict[str, float]:
    kvs = cluster.kvs
    counters: Dict[str, float] = {
        f"cache.{name}": sum(getattr(vm.cache.stats, name) for vm in cluster.vms)
        for name in _CACHE_COUNTERS}
    counters.update({
        "anna.ops": kvs.total_access_count(),
        "anna.queue_busy_virt_ms": kvs.total_queue_busy_ms(),
        "anna.gossip_rounds": kvs.gossip_rounds,
        "anna.gossip_key_exchanges": kvs.gossip_key_exchanges,
        "anna.rejections": kvs.total_rejections(),
        "anna.read_redirects": kvs.total_read_redirects(),
        "scheduler.calls": sum(sum(s.stats.calls_per_function.values())
                               for s in cluster.schedulers),
        "scheduler.dag_calls": sum(sum(s.stats.calls_per_dag.values())
                                   for s in cluster.schedulers),
        "executor.invocations": cluster.total_invocations(),
    })
    return counters


def _causal_metadata_bytes(cluster) -> List[int]:
    kvs = cluster.kvs
    lattices = (kvs.peek(key) for key in kvs.keys())
    return [lattice.metadata_bytes() for lattice in lattices
            if isinstance(lattice, CausalLattice)]


def _virt_ms_per_request(tracer: Tracer) -> Dict[str, float]:
    """Virtual milliseconds per sampled request, by the tier that charged them.

    Durations are summed over each tier's outermost spans (a ``cache_miss``
    under a ``multi_get`` counts once); overlapped fetches of one batch each
    count, so ``anna`` is work done, not time the request waited.  Background
    traces (prefetches, gossip rounds) are not sampled per request and are
    left out.
    """
    by_id = {span.span_id: span for span in tracer.spans}
    requests = {span.trace_id for span in tracer.spans if span.tier == "client"}
    totals = dict.fromkeys((
        "cache.virt_ms_per_req", "anna.virt_ms_per_req",
        "anna.queue_wait_virt_ms_per_req", "scheduler.virt_ms_per_req",
        "executor.queue_virt_ms_per_req", "executor.invoke_virt_ms_per_req"), 0.0)
    for span in tracer.spans:
        if span.trace_id not in requests:
            continue
        parent = by_id.get(span.parent_id)
        if span.tier == "executor":
            part = "queue" if span.name == "executor_queue" else "invoke"
            totals[f"executor.{part}_virt_ms_per_req"] += span.duration_ms
        elif span.tier == "scheduler":
            if span.name == "schedule":
                totals["scheduler.virt_ms_per_req"] += span.duration_ms
        elif span.tier in ("cache", "anna"):
            if span.name == "kvs_queue":
                totals["anna.queue_wait_virt_ms_per_req"] += span.duration_ms
            if parent is None or parent.tier != span.tier:
                totals[f"{span.tier}.virt_ms_per_req"] += span.duration_ms
    return {name: total / max(1, len(requests)) for name, total in totals.items()}


def _measured_counters(cluster, driver, before: Dict[str, float]) -> Dict[str, float]:
    """Counters over the timed section, plus end-of-run state of the stores."""
    for vm in cluster.vms:
        vm.cache.settle_prefetch_accounting()
    after = _cumulative_counters(cluster)
    counters = {name: after[name] - before[name] for name in after}
    reads = counters["cache.hits"] + counters["cache.misses"]
    counters["cache.hit_ratio"] = counters["cache.hits"] / reads if reads else 0.0
    counters["cache.cut_violations_end"] = sum(
        len(vm.cache.violates_causal_cut()) for vm in cluster.vms)
    metadata = _causal_metadata_bytes(cluster)
    counters["lattices.causal_metadata_bytes_p50"] = median(metadata) if metadata else 0
    counters["lattices.causal_metadata_bytes_p99"] = (
        percentile(metadata, 99.0) if metadata else 0)
    events = driver.engine.stats()["events_processed"]
    counters["sim.events"] = events
    counters["sim.events_per_req"] = events / max(1, driver.completed)
    return counters


def run_once(workload: Workload, seed: int, scale: float,
             recorder: Optional[SpanRecorder] = None) -> Repetition:
    """Set up a fresh cluster and time ``driver.run()`` on it once.

    With a ``recorder`` the repetition is the traced pass: the host-span
    wrappers are installed for its duration and the cluster carries the
    program's own virtual-time tracer.
    """
    requests = workload.measured_requests(scale)
    tracer = Tracer(sample_rate=VIRT_TRACE_SAMPLE_RATE) if recorder else None
    if recorder is not None:
        recorder.install()
    try:
        gc.collect()
        setup_start = process_time()
        prepared = workload.build(seed, requests, tracer)
        starts: Dict[int, float] = {}
        ends: Dict[int, float] = {}
        wrong_outputs = 0

        def request(cloud, ctx, index):
            starts[index] = ctx.clock.now_ms
            future = prepared.request_fn(cloud, ctx, index)
            if future is None:
                ends[index] = ctx.clock.now_ms
                return None

            def done(resolved):
                nonlocal wrong_outputs
                if resolved.exception() is None:
                    result = resolved.result()
                    ends[index] = result.ctx.clock.now_ms
                    if not prepared.result_ok(result.value):
                        wrong_outputs += 1

            future.add_done_callback(done)
            return future

        driver = EngineLoadDriver(
            prepared.cluster,
            recorder.wrap_request(request) if recorder else request,
            clients=workload.clients, max_requests=requests,
            record_charges=False, keep_latency_samples=True, label=workload.name)
        setup_s = process_time() - setup_start

        before = _cumulative_counters(prepared.cluster)
        if tracer is not None:
            tracer.clear()  # warm-up requests are not the measured ones
        gc.collect()
        run_start, wall_start = process_time(), perf_counter()
        driver.run()
        run_s, wall_s = process_time() - run_start, perf_counter() - wall_start
    finally:
        if recorder is not None:
            recorder.restore()

    counters = _measured_counters(prepared.cluster, driver, before)
    violations = prepared.violations()
    counters["consistency.anomalous_timelines"] = violations.get("anomalous_timelines", 0)
    problems = [f"{name} = {count}" for name, count in violations.items() if count]
    if wrong_outputs:
        problems.append(f"{wrong_outputs} requests returned a wrong output")
    if driver.issued != driver.completed + driver.failed:
        problems.append(f"issued {driver.issued} != completed {driver.completed} "
                        f"+ failed {driver.failed}")
    if len(ends) != driver.completed:
        problems.append(f"{len(ends)} end times recorded for {driver.completed} completions")
    failed = min(driver.issued,
                 driver.failed + wrong_outputs + sum(violations.values()))

    end_times = sorted(ends.values())
    low, high = int(0.1 * len(end_times)), int(0.9 * len(end_times))
    repetition = Repetition(
        setup_s=setup_s, run_s=run_s, wall_s=wall_s, issued=driver.issued,
        completed=driver.completed, failed=failed,
        latencies_ms=[ends[index] - starts[index] for index in sorted(ends)],
        virt_throughput_rps=(high - low) / (end_times[high] - end_times[low]) * 1000.0,
        counters=counters, problems=problems)

    if recorder is not None:
        self_s = recorder.layer_self_s()
        repetition.traced = {
            **{f"{layer}.host_self_s": self_s.get(layer, 0.0) for layer in _LAYERS},
            **_virt_ms_per_request(tracer),
            "lattices.merge_calls": recorder.calls("lattices", (".merge",)),
            "lattices.size_calls": recorder.calls("lattices", (".size_bytes",)),
            "consistency.read_calls": recorder.calls("consistency", (".read", ".read_many")),
            "consistency.write_calls": recorder.calls("consistency", (".write",)),
        }
        leftover = recorder.unrestored()
        if leftover:
            problems.append(f"wrappers not restored: {leftover}")
    return repetition
