"""The compute-tier control plane (§4.1, §4.4), as a first-class subsystem.

The paper's control loop is a standalone system, not benchmark plumbing:

1. executor VMs *publish* utilization and cached-key metrics to Anna on a
   periodic tick (§4.1) — :class:`MetricsPublisher`;
2. a monitoring system *aggregates* those published KVS keys (alive VMs
   only) and feeds a policy engine — the aggregation helpers live on
   :class:`~repro.cloudburst.monitoring.MonitoringSystem`;
3. the policy engine adds EC2 instances (after the instance startup delay),
   drains executors at low utilization — with a grace period, so one quiet
   tick can't flap capacity — and **migrates pinned functions off departing
   executors** before their threads go dark (§4.4) —
   :class:`ComputeAutoscaler`.

:class:`ComputeControlPlane` composes the three and runs them as recurring
events on the cluster's discrete-event engine (virtual time) between
``start()`` and ``stop()``, so *any* workload driven through
:class:`~repro.bench.harness.EngineLoadDriver` — not just the Figure 7
benchmark — executes under real autoscaling.  All control-plane traffic is
uncharged/unqueued background load (``ctx=None``), so running a publish-only
control plane changes no request's latency accounting — the parity tests pin
that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import SchedulingError
from .monitoring import (
    SCHEDULER_METRICS_PREFIX,
    AutoscalingPolicy,
    MonitoringConfig,
    PolicyFn,
)


@dataclass
class PinMigration:
    """One function's pins moved off draining executor threads (§4.4).

    ``to_threads`` may be empty when every surviving thread already held the
    function (nothing left to place); ``shortfall`` records how many replicas
    of the target quota the survivors could not absorb — nonzero means the
    function now runs with fewer pinned replicas than before the drain.
    """

    at_ms: float
    scheduler_id: str
    function: str
    from_threads: List[str]
    to_threads: List[str]
    shortfall: int = 0

    def as_tuple(self) -> Tuple:
        return (self.at_ms, self.scheduler_id, self.function,
                tuple(self.from_threads), tuple(self.to_threads),
                self.shortfall)


@dataclass
class ControlPlaneReport:
    """What one autoscaler tick observed and decided (history entry)."""

    at_ms: float
    utilization: float
    arrival_rate_per_s: float
    completion_rate_per_s: float
    capacity_threads: int
    vms_added: int = 0
    threads_drained: int = 0
    migrations: int = 0
    functions_repinned: Dict[str, int] = field(default_factory=dict)
    note: str = ""


class MetricsPublisher:
    """§4.1: VMs and schedulers publish metrics to Anna on a periodic tick.

    Replaces the on-demand ``CloudburstCluster.publish_all_metrics()`` calls:
    while the control plane runs, every alive VM publishes its utilization /
    invocation / cached-key metrics (and its cache's key-set snapshot) every
    ``publish_interval_ms`` of virtual time, and every scheduler publishes
    its call totals.  Publishes are uncharged background traffic.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.published_ticks = 0

    def publish(self) -> None:
        """One publish tick: alive VMs + scheduler call totals."""
        for vm in self.cluster.vms:
            if vm.alive:
                vm.publish_metrics()
        for scheduler in self.cluster.schedulers:
            stats = scheduler.stats
            self.cluster.kvs.put_plain(
                SCHEDULER_METRICS_PREFIX + scheduler.scheduler_id,
                {
                    "scheduler_id": scheduler.scheduler_id,
                    "function_calls": sum(stats.calls_per_function.values()),
                    "dag_calls": sum(stats.calls_per_dag.values()),
                    # Per-DAG counts so the aggregation can weigh a k-function
                    # DAG call as k units of arriving work (comparable with
                    # the executors' invocation totals).
                    "dag_calls_by_name": dict(stats.calls_per_dag),
                    # Tail latency from the scheduler's completion histogram —
                    # the seam an SLO-aware autoscaling policy would consume
                    # (count/p50/p95/p99 of every request this scheduler
                    # finished so far).
                    "latency": scheduler.latency_histogram.summary(),
                },
                count_access=False)
        self.published_ticks += 1


class ComputeAutoscaler:
    """The §4.4 policy engine for the compute tier, actuating a real cluster.

    Consumes only *aggregated published metrics* (via the cluster's
    :class:`~repro.cloudburst.monitoring.MonitoringSystem`), never the
    driver's private counters.  Decisions come from a pluggable
    ``(now_ms, metrics) -> AutoscalerDecision`` policy (default: the paper's
    :class:`~repro.cloudburst.monitoring.AutoscalingPolicy`); actuation is:

    * ``add_threads`` — new executor VMs come online after the decision's
      EC2 startup delay (scheduled as a future engine event);
    * ``remove_threads`` — executor threads drain in place, **after** every
      function pinned on them is re-pinned onto surviving threads (the §4.4
      pin migration); non-urgent scale-downs additionally wait
      ``grace_ticks`` consecutive low-utilization ticks before actuating.
    """

    def __init__(self, cluster, config: Optional[MonitoringConfig] = None,
                 policy: Optional[PolicyFn] = None,
                 min_threads: Optional[int] = None,
                 grace_ticks: int = 2,
                 enabled: bool = True):
        self.cluster = cluster
        self.config = config or MonitoringConfig()
        self.policy: PolicyFn = policy or AutoscalingPolicy(self.config)
        self.min_threads = (self.config.min_pinned_threads
                            if min_threads is None else min_threads)
        self.grace_ticks = max(1, grace_ticks)
        self.enabled = enabled
        self.interval_ms = 5_000.0
        #: ``(virtual_ms, live_thread_count)`` at every capacity change —
        #: the compute analogue of the storage autoscaler's node timeline.
        self.capacity_timeline: List[Tuple[float, int]] = []
        #: ``(virtual_ms, alive_vm_count)`` after every tick.
        self.node_count_timeline: List[Tuple[float, int]] = []
        self.history: List[ControlPlaneReport] = []
        self.migrations: List[PinMigration] = []
        self.scale_up_events = 0
        self.threads_drained_total = 0
        self._event = None
        self._low_ticks = 0
        self._last_arrival_total: Optional[float] = None
        self._last_completion_total: Optional[float] = None
        #: Invocation totals of VMs fully drained (their published metrics
        #: are deleted, so the aggregate would otherwise drop and read as a
        #: negative completion rate).
        self._retired_invocations = 0.0
        #: ``(thread, invocation_count_at_drain)`` — if a drained thread's
        #: counter ever moves again, the scheduler routed a call to it.
        self._drained_snapshot: List[Tuple[object, int]] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self, interval_ms: float = 5_000.0,
              horizon_ms: Optional[float] = None) -> None:
        """Run :meth:`tick` as a recurring engine event on virtual time.

        ``horizon_ms`` (from now) keeps the tick alive on an idle engine: see
        :meth:`ComputeControlPlane.start`.
        """
        if interval_ms <= 0:
            raise ValueError("autoscaler interval must be positive")
        self.stop()
        engine = self.cluster.engine
        self.interval_ms = float(interval_ms)
        if not self.capacity_timeline:
            self.capacity_timeline.append(
                (engine.now_ms, self._live_thread_count()))
        # Seed the rate baselines from the current totals: the first tick
        # must see this run's window, not the whole lifetime of
        # calls/invocations as one interval's delta.
        monitoring = self.cluster.monitoring
        self._last_arrival_total = monitoring.collect_scheduler_call_total()
        self._last_completion_total = (monitoring.collect_invocation_total()
                                       + self._retired_invocations)
        self._event = engine.every(
            self.interval_ms, lambda: self.tick(engine.now_ms),
            horizon_ms=horizon_ms)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    # -- aggregation (published KVS keys only) -----------------------------
    def aggregate(self, now_ms: float) -> Dict[str, float]:
        """One monitoring pass over the published metrics (alive VMs only)."""
        monitoring = self.cluster.monitoring
        interval_s = self.interval_ms / 1000.0
        aggregates = monitoring.collect_compute_aggregates()
        arrival_total = monitoring.collect_scheduler_call_total()
        completion_total = (aggregates["invocation_total"]
                            + self._retired_invocations)
        last_arrival = (self._last_arrival_total
                        if self._last_arrival_total is not None else 0.0)
        last_completion = (self._last_completion_total
                           if self._last_completion_total is not None else 0.0)
        self._last_arrival_total = arrival_total
        self._last_completion_total = completion_total
        return {
            "utilization": aggregates["utilization"],
            "arrival_rate_per_s": max(0.0, arrival_total - last_arrival) / interval_s,
            "completion_rate_per_s": max(0.0, completion_total - last_completion) / interval_s,
            "capacity_threads": aggregates["capacity_threads"],
        }

    # -- the policy tick ---------------------------------------------------
    def tick(self, now_ms: float) -> ControlPlaneReport:
        metrics = self.aggregate(now_ms)
        report = ControlPlaneReport(
            at_ms=now_ms,
            utilization=metrics["utilization"],
            arrival_rate_per_s=metrics["arrival_rate_per_s"],
            completion_rate_per_s=metrics["completion_rate_per_s"],
            capacity_threads=int(metrics["capacity_threads"]),
        )
        decision = self.policy(now_ms, metrics) if self.enabled else None
        if decision is not None:
            report.note = decision.note
            if decision.add_threads > 0:
                add = decision.add_threads
                if decision.add_delay_ms > 0:
                    # EC2 instance startup: capacity arrives after the delay
                    # (foreground — a booting batch is real pending work).
                    # The originating tick's report is updated when the
                    # batch comes online.
                    def boot(report=report, add=add):
                        report.vms_added = self.add_capacity(add)

                    self.cluster.engine.at(now_ms + decision.add_delay_ms, boot)
                else:
                    report.vms_added = self.add_capacity(add)
            if decision.remove_threads > 0:
                # Grace period: a low-utilization scale-down must persist for
                # ``grace_ticks`` consecutive ticks; urgent drains (load
                # disappeared) actuate immediately.
                if not decision.urgent:
                    self._low_ticks += 1
                if decision.urgent or self._low_ticks >= self.grace_ticks:
                    self._low_ticks = 0
                    migrated_before = len(self.migrations)
                    report.threads_drained = self.drain_capacity(
                        decision.remove_threads, now_ms)
                    report.migrations = len(self.migrations) - migrated_before
            else:
                self._low_ticks = 0
        else:
            self._low_ticks = 0
        # §4.4 function-level pinning: a backlogged workload (arrivals
        # outpacing completions) gets more pinned replicas.
        if (report.completion_rate_per_s > 0 and report.arrival_rate_per_s > 0
                and report.arrival_rate_per_s
                > self.config.backlog_ratio_threshold * report.completion_rate_per_s
                and self.enabled):
            report.functions_repinned = self.cluster.monitoring.repin_backlogged()
        self.history.append(report)
        self.node_count_timeline.append(
            (now_ms, sum(1 for vm in self.cluster.vms if vm.alive)))
        return report

    # -- actuation ---------------------------------------------------------
    def add_capacity(self, thread_count: int) -> int:
        """Scale up: bring new executor VMs online (cold caches, no pins).

        Capped at ``config.max_vms`` alive VMs, so a burst that outlasts the
        instance-startup delay cannot grow the fleet forever.
        """
        per_vm = max(1, self.cluster.threads_per_vm)
        added = 0
        while thread_count > 0:
            if (sum(1 for vm in self.cluster.vms if vm.alive)
                    >= self.config.max_vms):
                break
            size = min(thread_count, per_vm)
            self.cluster.add_vm(threads=size)
            thread_count -= size
            added += 1
        if added:
            # Counted at actuation, not decision: a decision capped away by
            # max_vms (or whose boot event never fires before the run ends)
            # is not a scale-up event.
            self.scale_up_events += 1
            self.capacity_timeline.append(
                (self.cluster.engine.now_ms, self._live_thread_count()))
        return added

    def drain_capacity(self, thread_count: int, now_ms: Optional[float] = None) -> int:
        """Scale down: migrate pins off departing threads, then drain them.

        Never drains below ``min_threads``.  Fully drained VMs retire (cache
        closed, metrics key deleted); partially drained VMs republish their
        metrics so the aggregate capacity stays truthful between ticks.
        """
        if now_ms is None:
            now_ms = self.cluster.engine.now_ms
        removable = max(0, self._live_thread_count() - self.min_threads)
        count = min(thread_count, removable)
        if count <= 0:
            return 0
        departed = []
        touched_vms = []
        for vm in reversed(self.cluster.vms):
            if not vm.alive:
                continue
            took_from_vm = False
            for thread in reversed(vm.threads):
                if count <= 0:
                    break
                if thread.alive:
                    thread.alive = False
                    self.cluster.router.mark_unreachable(thread.thread_id)
                    departed.append(thread)
                    took_from_vm = True
                    count -= 1
            if took_from_vm:
                touched_vms.append(vm)
            if count <= 0:
                break
        # §4.4: migrate pinned functions to survivors *before* retiring the
        # VMs — the replica quota never transits through zero.
        self._migrate_pins({t.thread_id for t in departed}, now_ms)
        for vm in touched_vms:
            if not any(thread.alive for thread in vm.threads):
                self._retired_invocations += vm.invocation_count()
                self.cluster.drain_vm(vm)
            else:
                vm.publish_metrics()
        for thread in departed:
            self._drained_snapshot.append((thread, thread.invocation_count))
        self.threads_drained_total += len(departed)
        self.capacity_timeline.append((now_ms, self._live_thread_count()))
        return len(departed)

    def _migrate_pins(self, departed_ids, now_ms: float) -> None:
        for scheduler in self.cluster.schedulers:
            for name, pins in list(scheduler.function_pins.items()):
                lost = [p for p in pins if p in departed_ids]
                if not lost:
                    continue
                target = len(pins)
                scheduler.function_pins[name] = [p for p in pins
                                                 if p not in departed_ids]
                try:
                    new_pins = scheduler.pin_function(name, replicas=target)
                except SchedulingError:
                    new_pins = list(scheduler.function_pins.get(name, []))
                gained = [p for p in new_pins if p not in pins]
                self.migrations.append(PinMigration(
                    at_ms=now_ms, scheduler_id=scheduler.scheduler_id,
                    function=name, from_threads=lost, to_threads=gained,
                    shortfall=max(0, target - len(new_pins))))

    # -- observability -----------------------------------------------------
    def calls_routed_to_drained(self) -> int:
        """Invocations that landed on a thread after it was drained (must be 0)."""
        return sum(max(0, thread.invocation_count - at_drain)
                   for thread, at_drain in self._drained_snapshot)

    def migration_log(self) -> List[Tuple]:
        """The migrations as comparable tuples (determinism tests diff these)."""
        return [migration.as_tuple() for migration in self.migrations]

    # -- helpers -----------------------------------------------------------
    def _live_thread_count(self) -> int:
        return self.cluster.live_thread_count()


class ComputeControlPlane:
    """Publisher + monitoring aggregation + autoscaler on the cluster's engine.

    Construct it against a cluster, hand it to
    :class:`~repro.bench.harness.EngineLoadDriver` (``control_plane=``), and
    the whole §4.4 loop runs as recurring engine events for the duration of
    the run (the driver calls :meth:`start` and :meth:`stop`): metrics
    publish every ``publish_interval_ms`` (default: half the policy
    interval, so every policy tick sees fresh aggregates), the autoscaler
    ticks every ``policy_interval_ms``.

    ``autoscaling=False`` keeps the publish/aggregate loop (observability)
    but never actuates — running such a control plane changes no latency
    sample.
    """

    def __init__(self, cluster,
                 config: Optional[MonitoringConfig] = None,
                 policy: Optional[PolicyFn] = None,
                 publish_interval_ms: Optional[float] = None,
                 policy_interval_ms: float = 5_000.0,
                 min_threads: Optional[int] = None,
                 grace_ticks: int = 2,
                 autoscaling: bool = True):
        if policy_interval_ms <= 0:
            raise ValueError("policy interval must be positive")
        self.cluster = cluster
        self.config = config or MonitoringConfig()
        self.policy_interval_ms = float(policy_interval_ms)
        self.publish_interval_ms = float(publish_interval_ms
                                         if publish_interval_ms is not None
                                         else policy_interval_ms / 2.0)
        if self.publish_interval_ms <= 0:
            raise ValueError("publish interval must be positive")
        self.autoscaling = autoscaling
        self.publisher = MetricsPublisher(cluster)
        self.autoscaler = ComputeAutoscaler(
            cluster, config=self.config, policy=policy,
            min_threads=min_threads, grace_ticks=grace_ticks,
            enabled=autoscaling)
        self._publish_event = None

    # -- lifecycle ---------------------------------------------------------
    def start(self, horizon_ms: Optional[float] = None) -> None:
        """Start the publish and policy ticks on the cluster's engine.

        ``horizon_ms`` keeps both ticks alive on an idle engine for that
        much virtual time from now — the autoscaler must observe the *end*
        of a burst (zero arrivals and completions) to drain, which by
        definition happens after the foreground work is gone.
        """
        self.stop()
        engine = self.cluster.engine
        # Seed fresh published metrics at start so the first policy tick
        # aggregates this run's state, not a previous run's.
        self.publisher.publish()
        self._publish_event = engine.every(
            self.publish_interval_ms, self.publisher.publish,
            horizon_ms=horizon_ms)
        self.autoscaler.start(self.policy_interval_ms, horizon_ms=horizon_ms)

    def stop(self) -> None:
        if self._publish_event is not None:
            self._publish_event.cancel()
            self._publish_event = None
        self.autoscaler.stop()

    # -- observability passthroughs ----------------------------------------
    @property
    def capacity_timeline(self) -> List[Tuple[float, int]]:
        return self.autoscaler.capacity_timeline

    @property
    def node_count_timeline(self) -> List[Tuple[float, int]]:
        return self.autoscaler.node_count_timeline

    @property
    def migrations(self) -> List[PinMigration]:
        return self.autoscaler.migrations

    @property
    def history(self) -> List[ControlPlaneReport]:
        return self.autoscaler.history

    def snapshot(self) -> Dict[str, object]:
        """Machine-readable summary for bench snapshots and CI gates."""
        timeline = self.autoscaler.capacity_timeline
        capacities = [capacity for _, capacity in timeline]
        return {
            "publish_interval_ms": self.publish_interval_ms,
            "policy_interval_ms": self.policy_interval_ms,
            "publish_ticks": self.publisher.published_ticks,
            "policy_ticks": len(self.autoscaler.history),
            "scale_up_events": self.autoscaler.scale_up_events,
            "threads_drained": self.autoscaler.threads_drained_total,
            "migrations": len(self.autoscaler.migrations),
            "calls_routed_to_drained": self.autoscaler.calls_routed_to_drained(),
            "baseline_threads": capacities[0] if capacities else 0,
            "peak_threads": max(capacities) if capacities else 0,
            "final_threads": capacities[-1] if capacities else 0,
            "min_threads": self.autoscaler.min_threads,
        }
