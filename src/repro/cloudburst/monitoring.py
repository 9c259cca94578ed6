"""Monitoring and resource management (§4.4).

Cloudburst uses Anna as the substrate for metric collection: executors and
schedulers publish metrics to well-known KVS keys, and the monitoring system
asynchronously aggregates them and feeds a policy engine.  The policy:

* if a DAG's incoming request rate significantly exceeds its completion rate,
  pin the DAG's functions onto more executors;
* if overall executor CPU utilization exceeds 70 %, add compute nodes (EC2
  instance startup takes ~2.5 minutes, which produces the plateaus in
  Figure 7);
* if utilization drops below 20 %, deallocate resources.

Two pieces live here: :class:`MonitoringSystem` aggregates the published
metrics of a :class:`~repro.cloudburst.cluster.CloudburstCluster` and applies
the function-level pinning rule, and :class:`AutoscalingPolicy` packages the
thresholds as the policy function the
:class:`~repro.cloudburst.controlplane.ComputeAutoscaler` ticks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import DagNotFoundError, SchedulingError
from ..sim import AutoscalerDecision
from .executor import EXECUTOR_METRICS_PREFIX

#: Anna key prefix under which schedulers publish their call statistics
#: (§4.1: schedulers, like executors, report metrics through the KVS).
SCHEDULER_METRICS_PREFIX = "__cloudburst_scheduler_metrics__/"

#: Signature of an autoscaling policy: (now_ms, metrics) -> decision or None.
PolicyFn = Callable[[float, Dict[str, float]], Optional[AutoscalerDecision]]


@dataclass
class MonitoringConfig:
    """Thresholds of the §4.4 policy."""

    scale_up_utilization: float = 0.70
    scale_down_utilization: float = 0.20
    #: VMs added per scale-up event (the paper adds 20 EC2 instances at a time).
    vms_per_scale_up: int = 20
    #: Worker threads per VM (c5.2xlarge: 3 Python cores + 1 cache core).
    threads_per_vm: int = 3
    #: EC2 instance spin-up delay in ms (~2.5 minutes in the paper).
    node_startup_delay_ms: float = 150_000.0
    #: Pin a function to more executors when arrivals exceed completions by this ratio.
    backlog_ratio_threshold: float = 1.2
    max_vms: int = 200
    min_vms: int = 1
    #: Threads to keep for a function when its load disappears (paper drains to 2).
    min_pinned_threads: int = 2


class MonitoringSystem:
    """Aggregates executor and scheduler metrics from the KVS (§4.4)."""

    def __init__(self, cluster, config: Optional[MonitoringConfig] = None):
        self.cluster = cluster
        self.config = config or MonitoringConfig()

    # -- metric aggregation -------------------------------------------------------
    def _published(self, vm) -> Optional[Dict]:
        # peek: monitoring reads are system traffic — no charges, and no
        # access accounting that would skew the storage-load statistics.
        metrics = self.cluster.kvs.peek(EXECUTOR_METRICS_PREFIX + vm.vm_id)
        return metrics.reveal() if metrics is not None else None

    def collect_compute_aggregates(self) -> Dict[str, float]:
        """One pass over the published executor metrics (alive VMs only).

        Only *alive* VMs are aggregated: a drained VM's stale metrics key (or
        its zero-utilization ghost) would deflate the mean right after a
        scale-down and delay the next scale-up.  Reading each VM's metrics
        key once and deriving every aggregate from it keeps a policy tick at
        one KVS read per VM rather than one per VM per aggregate.
        """
        samples: List[float] = []
        invocations = 0.0
        capacity = 0
        for vm in self.cluster.vms:
            if not vm.alive:
                continue
            published = self._published(vm)
            if published is not None:
                samples.append(float(published.get("utilization", 0.0)))
                invocations += float(published.get("invocations", 0))
                capacity += int(published.get("threads_alive", len(vm.threads)))
            else:
                samples.append(vm.utilization())
                invocations += float(vm.invocation_count())
                capacity += sum(1 for t in vm.threads if t.alive)
        return {
            "utilization": sum(samples) / len(samples) if samples else 0.0,
            "invocation_total": invocations,
            "capacity_threads": float(capacity),
        }

    def collect_utilization(self) -> float:
        """Mean executor-VM utilization, read from the published KVS metrics."""
        return self.collect_compute_aggregates()["utilization"]

    def collect_metrics(self) -> Dict[str, float]:
        alive = [vm for vm in self.cluster.vms if vm.alive]
        return {
            "utilization": self.collect_utilization(),
            "vm_count": float(len(alive)),
            "thread_count": float(sum(
                1 for vm in alive for t in vm.threads if t.alive)),
        }

    def collect_invocation_total(self) -> float:
        """Total invocations across alive VMs, from the published metrics."""
        return self.collect_compute_aggregates()["invocation_total"]

    def _call_units(self, scheduler, function_calls: float,
                    dag_calls_by_name: Dict[str, int]) -> float:
        """Arrivals in *function-execution units*, comparable with the
        executors' published invocation totals.

        A k-function DAG call is k units of arriving work: counting it as one
        while completions count every function execution would make the
        §4.4 backlog condition (arrivals > threshold x completions)
        unsatisfiable for any DAG workload.  A deleted DAG's topology is
        gone, so its historical calls weigh 1 unit each.
        """
        units = float(function_calls)
        for name, count in dag_calls_by_name.items():
            try:
                units += count * len(scheduler.dag_registry.get(name).functions)
            except DagNotFoundError:
                units += count
        return units

    def collect_scheduler_call_total(self) -> float:
        """Total arriving call units across schedulers (published stats)."""
        total = 0.0
        for scheduler in self.cluster.schedulers:
            metrics = self.cluster.kvs.peek(
                SCHEDULER_METRICS_PREFIX + scheduler.scheduler_id)
            if metrics is not None:
                payload = metrics.reveal()
                total += self._call_units(
                    scheduler, payload.get("function_calls", 0),
                    payload.get("dag_calls_by_name", {}))
            else:
                stats = scheduler.stats
                total += self._call_units(
                    scheduler, sum(stats.calls_per_function.values()),
                    stats.calls_per_dag)
        return total

    def collect_tail_latency(self) -> Dict[str, float]:
        """Cluster-wide request-latency percentiles from the published metrics.

        Each scheduler publishes its completion histogram's summary under its
        metrics key (``MetricsPublisher``); this merges them into one
        cluster-wide view the same way the other aggregates work — via
        ``peek`` (system traffic, no charges, no access accounting), falling
        back to the scheduler's live histogram when nothing is published yet.
        Cross-scheduler p99 is approximated as the worst per-scheduler p99:
        without merging raw histograms through the KVS that is the
        conservative (never understating) choice an SLO policy wants.
        """
        count = 0
        worst: Dict[str, float] = {"p50_ms": 0.0, "p95_ms": 0.0,
                                   "p99_ms": 0.0, "max_ms": 0.0}
        for scheduler in self.cluster.schedulers:
            metrics = self.cluster.kvs.peek(
                SCHEDULER_METRICS_PREFIX + scheduler.scheduler_id)
            summary = None
            if metrics is not None:
                summary = metrics.reveal().get("latency")
            if summary is None:
                summary = scheduler.latency_histogram.summary()
            count += int(summary.get("count", 0))
            for field_name in worst:
                worst[field_name] = max(worst[field_name],
                                        float(summary.get(field_name, 0.0)))
        worst["count"] = count
        return worst

    # -- §4.4 function-level pinning ---------------------------------------------
    def repin_backlogged(self) -> Dict[str, int]:
        """Add one pinned replica per function (arrivals outpacing completions).

        Applied by the
        :class:`~repro.cloudburst.controlplane.ComputeAutoscaler` tick.
        Capped at the live thread count, and a scheduler with no live
        executors is skipped rather than raising.
        """
        repinned: Dict[str, int] = {}
        for scheduler in self.cluster.schedulers:
            live = len(scheduler._live_threads())
            for name in list(scheduler.function_pins):
                before = len(scheduler.function_pins[name])
                if before >= live:
                    continue
                try:
                    scheduler.pin_function(name, replicas=before + 1)
                except SchedulingError:
                    continue
                repinned[name] = len(scheduler.function_pins[name])
        return repinned


class AutoscalingPolicy:
    """The §4.4 cluster-level elasticity policy (Figure 7).

    Watches utilization and arrival/completion rates and decides when to add
    VMs (after the EC2 startup delay) and when to drain capacity.
    """

    def __init__(self, config: Optional[MonitoringConfig] = None):
        self.config = config or MonitoringConfig()
        self.pending_threads = 0
        self.decisions: List[AutoscalerDecision] = []
        self._pending_until_ms = 0.0

    def __call__(self, now_ms: float, metrics: Dict[str, float]) -> Optional[AutoscalerDecision]:
        config = self.config
        utilization = metrics.get("utilization", 0.0)
        arrival = metrics.get("arrival_rate_per_s", 0.0)
        completion = metrics.get("completion_rate_per_s", 0.0)
        capacity = int(metrics.get("capacity_threads", 0))
        decision: Optional[AutoscalerDecision] = None

        scale_up_pending = now_ms < self._pending_until_ms
        if (utilization >= config.scale_up_utilization and arrival > 0
                and not scale_up_pending):
            # One batch of EC2 instances at a time: while the previous batch is
            # still booting (the ~2.5 minute plateaus in Figure 7), the policy
            # waits rather than requesting ever more capacity.
            add = config.vms_per_scale_up * config.threads_per_vm
            decision = AutoscalerDecision(
                add_threads=add,
                add_delay_ms=config.node_startup_delay_ms,
                note=f"utilization {utilization:.2f} >= {config.scale_up_utilization}: "
                     f"adding {config.vms_per_scale_up} VMs",
            )
            self.pending_threads += add
            self._pending_until_ms = now_ms + config.node_startup_delay_ms
        elif arrival == 0.0 and completion == 0.0 and capacity > config.min_pinned_threads:
            # Load disappeared: drain down to the minimum pinned threads.
            # Urgent: the compute control plane's scale-down grace period is
            # skipped — the paper drains to 2 threads "within seconds".
            decision = AutoscalerDecision(
                remove_threads=capacity - config.min_pinned_threads,
                note="request rate dropped to zero: draining executors",
                urgent=True,
            )
        elif (utilization < config.scale_down_utilization and arrival > 0
                and capacity > config.threads_per_vm * config.min_vms):
            decision = AutoscalerDecision(
                remove_threads=config.threads_per_vm,
                note=f"utilization {utilization:.2f} < {config.scale_down_utilization}",
            )
        if decision is not None:
            self.decisions.append(decision)
        return decision
