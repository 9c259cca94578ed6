"""Consistency-model experiments: Figure 8 and Table 2 (§6.2).

Workload (matching the paper): random linear DAGs of 2-5 string-manipulation
functions whose arguments are Zipfian KVS references; each DAG's sink writes
its result to one of the keys the DAG read.  Figure 8 measures per-DAG latency
(normalised by DAG depth) under the five consistency levels; Table 2 runs the
system under last-writer-wins and counts the anomalies each stricter level
would have prevented.

Both experiments run many concurrent ``CloudburstClient``s that issue DAGs
through the public futures-first API (``cloud.call_dag`` returns a
:class:`CloudburstFuture` whose resolution is driven by engine events) on the
cluster's discrete-event timeline, and Anna's update propagation is a
periodic engine event (``propagation_interval_ms``).  Staleness windows and
anomaly counts therefore emerge from genuine interleaving of in-flight
sessions on virtual time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..anna import AnnaCluster
from ..cloudburst import AnomalyTracker, CloudburstCluster, ConsistencyLevel
from ..lattices import CausalLattice
from ..sim import LatencyRecorder, RandomSource, median, percentile
from ..workloads.dags import KEY_PREFIX, ConsistencyWorkload
from .harness import EngineLoadDriver, systems

#: Default virtual-time period of Anna's update propagation.
#: Plays the role the paper's periodic cache-update gossip plays: between two
#: ticks, caches serve stale data, which is the window in which the §6.2
#: anomalies arise.
DEFAULT_PROPAGATION_INTERVAL_MS = 50.0

#: Default number of concurrent closed-loop session clients.
DEFAULT_CLIENTS = 4


def _build_workload(level: ConsistencyLevel, dag_count: int, populated_keys: int,
                    executor_vms: int, seed: int,
                    anomaly_tracker: Optional[AnomalyTracker],
                    propagation: str, propagation_interval_ms: float = 0.0):
    cluster = CloudburstCluster(executor_vms=executor_vms, consistency=level,
                                seed=seed, anomaly_tracker=anomaly_tracker,
                                anna_propagation=propagation,
                                propagation_interval_ms=propagation_interval_ms)
    client = cluster.connect(consistency=level)
    workload = ConsistencyWorkload(dag_count=dag_count, seed=seed)
    workload.populate(client, populated_keys=populated_keys)
    dags = workload.generate_dags(client)
    return cluster, client, workload, dags


def _run_level(level: ConsistencyLevel, dag_count: int, requests: int,
               populated_keys: int, executor_vms: int, seed: int,
               clients: int = DEFAULT_CLIENTS,
               propagation_interval_ms: float = DEFAULT_PROPAGATION_INTERVAL_MS,
               anomaly_tracker: Optional[AnomalyTracker] = None
               ) -> Tuple[CloudburstCluster, LatencyRecorder]:
    """Drive the §6.2 workload with concurrent clients on the engine.

    ``clients`` closed-loop ``CloudburstClient``s issue DAGs through
    ``cloud.call_dag``, which returns a pending :class:`CloudburstFuture`
    and decomposes the DAG into engine events — in-flight sessions
    interleave their cache and snapshot accesses, and Anna propagates
    updates on a periodic ``propagation_interval_ms`` engine tick.
    """
    propagation = (AnnaCluster.PROPAGATE_PERIODIC if propagation_interval_ms > 0
                   else AnnaCluster.PROPAGATE_IMMEDIATE)
    cluster, _client, workload, dags = _build_workload(
        level, dag_count, populated_keys, executor_vms, seed, anomaly_tracker,
        propagation, propagation_interval_ms)
    recorder = LatencyRecorder(label=level.short_name)
    rng = RandomSource(seed).spawn("dag-choice")

    def request(cloud, ctx, _index):
        dag = rng.choice(dags)
        function_args, _sink_key = workload.sample_request(dag)
        depth = dag.longest_path_length()
        future = cloud.call_dag(dag.name, function_args, consistency=level,
                                ctx=ctx)

        def record(resolved):
            # A session that exhausts its retries resolves with an error and
            # is dropped (the driver counts it failed); the others keep going.
            if resolved.exception() is None:
                # Figure 8 normalises latency by the depth of the DAG.
                recorder.record(resolved.result().latency_ms / depth)

        future.add_done_callback(record)
        return future

    EngineLoadDriver(cluster, request, clients=clients, max_requests=requests,
                     label=level.short_name).run()
    return cluster, recorder


def _metadata_overhead(cluster: CloudburstCluster) -> Dict[str, float]:
    """Median and p99 per-key causal metadata bytes in Anna after the run
    (§6.2.1: median 624 B, p99 7.1 KB), over at most the first 2,000
    workload keys."""
    sizes: List[int] = []
    for key in cluster.kvs.keys():
        if not key.startswith(f"{KEY_PREFIX}-"):
            continue
        lattice = cluster.kvs.background_get(key)
        if isinstance(lattice, CausalLattice):
            sizes.append(lattice.metadata_bytes())
        if len(sizes) >= 2_000:
            break
    if not sizes:
        return {"median": 0.0, "p99": 0.0}
    return {"median": round(median(sizes), 1), "p99": round(percentile(sizes, 99.0), 1)}


def run_figure8(requests_per_level: int = 2_000, dag_count: int = 100,
                populated_keys: int = 2_000, executor_vms: int = 5,
                seed: int = 0,
                clients: int = DEFAULT_CLIENTS,
                propagation_interval_ms: float = DEFAULT_PROPAGATION_INTERVAL_MS,
                levels: Sequence[ConsistencyLevel] = tuple(ConsistencyLevel)
                ) -> dict:
    """Per-DAG latency (normalised by DAG depth) under each consistency level.

    ``clients`` concurrent sessions per level with Anna propagating updates
    every ``propagation_interval_ms`` of virtual time.  The staleness between
    ticks is what forces the distributed session protocols to take their
    remote-fetch slow paths and therefore what separates the tail latencies
    in this figure.
    """
    recorders = []
    overheads: Dict[str, Dict[str, float]] = {}
    for offset, level in enumerate(levels):
        cluster, recorder = _run_level(
            level, dag_count=dag_count, requests=requests_per_level,
            populated_keys=populated_keys, executor_vms=executor_vms,
            seed=seed + offset, clients=clients,
            propagation_interval_ms=propagation_interval_ms)
        recorders.append(recorder)
        if level.is_causal:
            overheads[level.short_name] = _metadata_overhead(cluster)
    return {"figure8_consistency": {
        "clients": clients,
        "propagation_interval_ms": propagation_interval_ms,
        "levels": systems(*recorders),
        "metadata_overhead_bytes": overheads,
    }}


def run_table2(executions: int = 4_000, dag_count: int = 100,
               populated_keys: int = 1_000, executor_vms: int = 5,
               seed: int = 0,
               clients: int = 2 * DEFAULT_CLIENTS,
               propagation_interval_ms: float = DEFAULT_PROPAGATION_INTERVAL_MS
               ) -> dict:
    """Run the workload under LWW and count would-be anomalies per level.

    The anomalies come from genuinely concurrent sessions interleaving on
    shared caches, with the staleness window set by
    ``propagation_interval_ms`` (a wider window raises the counts).  The
    paper observes 904 SK / +35 MK / +104 DSC / 46 DSRR anomalies over 4,000
    executions.
    """
    tracker = AnomalyTracker()
    _run_level(ConsistencyLevel.LWW, dag_count=dag_count, requests=executions,
               populated_keys=populated_keys, executor_vms=executor_vms, seed=seed,
               anomaly_tracker=tracker, clients=clients,
               propagation_interval_ms=propagation_interval_ms)
    report = tracker.report
    return {"table2_anomalies": {
        "clients": clients,
        "propagation_interval_ms": propagation_interval_ms,
        "executions": report.executions,
        "anomalies": report.as_row(),
        "multi_key_additional": report.multi_key_additional,
        "distributed_session_additional": report.distributed_session_additional,
        # Single source of truth: AnomalyReport.invariant_violations (§6.2.2).
        "invariant_violations": report.invariant_violations(),
    }}
