"""The compute-tier control plane (§4.1, §4.4): one loop, one class.

Executor VMs and schedulers *publish* metrics to well-known Anna keys on a
periodic tick (§4.1); a monitoring pass *aggregates* those keys (alive VMs
only); the policy adds EC2 instances after the startup delay, drains
executors at low utilization (with a grace period, so one quiet tick can't
flap capacity), pins a backlogged function onto more executors, and
**migrates pinned functions off departing executors** before their threads
go dark (§4.4).  Both ticks are recurring events on the cluster's engine,
so any workload driven through :class:`~repro.bench.harness.EngineLoadDriver`
runs under real autoscaling.  Control-plane traffic is uncharged background
load (``ctx=None``): a plane whose policy never acts changes no latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import DagNotFoundError, SchedulingError
from .executor import EXECUTOR_METRICS_PREFIX

#: Anna key prefix under which schedulers publish their call statistics
#: (§4.1: schedulers, like executors, report metrics through the KVS).
SCHEDULER_METRICS_PREFIX = "__cloudburst_scheduler_metrics__/"

#: §4.4: add compute nodes when mean executor utilization exceeds 70 % ...
SCALE_UP_UTILIZATION = 0.70
#: ... and deallocate resources when it drops below 20 %.
SCALE_DOWN_UTILIZATION = 0.20
#: §4.4: pin a function onto more executors when its incoming request rate
#: exceeds its completion rate by this ratio.
BACKLOG_RATIO = 1.2
#: A low-utilization scale-down never goes below this many VMs' threads.
MIN_VMS = 1
#: Threads kept when load disappears (the paper drains to 2 "within seconds").
MIN_PINNED_THREADS = 2
#: Consecutive low-utilization ticks before a non-urgent scale-down actuates.
GRACE_TICKS = 2


@dataclass
class MonitoringConfig:
    """The deployment-specific knobs of the §4.4 policy."""

    #: VMs added per scale-up event (the paper adds 20 EC2 instances at a time).
    vms_per_scale_up: int = 20
    #: EC2 instance spin-up delay in ms (~2.5 minutes in the paper).
    node_startup_delay_ms: float = 150_000.0
    max_vms: int = 200


@dataclass
class AutoscalerDecision:
    """What the policy wants the cluster to do at one tick."""

    add_threads: int = 0
    remove_threads: int = 0
    add_delay_ms: float = 0.0
    note: str = ""
    #: Scale-downs marked urgent (load disappeared entirely) skip the grace
    #: period; ordinary low-utilization scale-downs must repeat for
    #: ``GRACE_TICKS`` consecutive ticks before they actuate.
    urgent: bool = False


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


@dataclass
class ControlPlaneReport:
    """What one policy tick observed and decided (history entry)."""

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


class ComputeControlPlane:
    """Publisher, monitoring aggregation and §4.4 policy on the cluster's engine.

    Hand it to :class:`~repro.bench.harness.EngineLoadDriver`
    (``control_plane=``), which calls :meth:`start` and :meth:`stop` around
    the run.  Metrics publish every ``policy_interval_ms / 2``, so every
    policy tick sees fresh aggregates; the policy reads nothing else.
    """

    def __init__(self, cluster, config: Optional[MonitoringConfig] = None,
                 policy_interval_ms: float = 5_000.0):
        if policy_interval_ms <= 0:
            raise ValueError("policy interval must be positive")
        self.cluster = cluster
        self.config = config or MonitoringConfig()
        self.policy_interval_ms = float(policy_interval_ms)
        self.publish_interval_ms = self.policy_interval_ms / 2.0
        #: ``(virtual_ms, live_thread_count)`` at every capacity change —
        #: the compute analogue of the storage autoscaler's node timeline.
        self.capacity_timeline: List[Tuple[float, int]] = []
        #: ``(virtual_ms, alive_vm_count)`` after every tick.
        self.node_count_timeline: List[Tuple[float, int]] = []
        self.history: List[ControlPlaneReport] = []
        self.migrations: List[PinMigration] = []
        self.published_ticks = 0
        self.scale_up_events = 0
        self.threads_drained_total = 0
        self._events: List[object] = []
        self._low_ticks = 0
        self._pending_until_ms = 0.0
        self._last_arrival_total = 0.0
        self._last_completion_total = 0.0
        #: Invocation totals of fully drained VMs, whose metrics keys are
        #: deleted (else the completion total would drop at a scale-down).
        self._retired_invocations = 0.0
        #: ``(thread, invocation_count_at_drain)`` — if a drained thread's
        #: counter ever moves again, the scheduler routed a call to it.
        self._drained_snapshot: List[Tuple[object, int]] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self, horizon_ms: Optional[float] = None) -> None:
        """Start the publish and policy ticks on the cluster's engine.

        ``horizon_ms`` keeps both ticks alive on an idle engine for that
        much virtual time from now — the policy must observe the *end* of a
        burst (zero arrivals and completions) to drain, which by definition
        happens after the foreground work is gone.
        """
        self.stop()
        engine = self.cluster.engine
        # Fresh published metrics first, so the rate baselines and the first
        # policy tick aggregate this run's state, not a previous run's.
        self.publish()
        publish_event = engine.every(self.publish_interval_ms, self.publish,
                                     horizon_ms=horizon_ms)
        if not self.capacity_timeline:
            self.capacity_timeline.append(
                (engine.now_ms, self.cluster.live_thread_count()))
        # Seed the rate baselines from the current totals: the first tick
        # must see this run's window, not the whole lifetime of
        # calls/invocations as one interval's delta.
        self.aggregate()
        self._events = [publish_event, engine.every(
            self.policy_interval_ms, lambda: self.tick(engine.now_ms),
            horizon_ms=horizon_ms)]

    def stop(self) -> None:
        for event in self._events:
            event.cancel()
        self._events = []

    # -- §4.1: publish ------------------------------------------------------
    def publish(self) -> None:
        """One publish tick: alive VMs' metrics plus scheduler call totals."""
        self.cluster.publish_all_metrics()
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
                },
                count_access=False)
        self.published_ticks += 1

    # -- aggregation (published KVS keys only) -----------------------------
    def aggregate(self) -> Dict[str, float]:
        """One monitoring pass over the published metrics (alive VMs only).

        A drained VM's stale key would deflate the mean right after a
        scale-down and delay the next scale-up.  Reads ``peek``: no charges
        and no access accounting.  Rates cover the time since the last pass.
        """
        kvs = self.cluster.kvs
        samples: List[float] = []
        invocations = 0.0
        capacity = 0
        for vm in self.cluster.vms:
            published = (kvs.peek(EXECUTOR_METRICS_PREFIX + vm.vm_id)
                         if vm.alive else None)
            if published is not None:
                metrics = published.reveal()
                samples.append(float(metrics["utilization"]))
                invocations += float(metrics["invocations"])
                capacity += int(metrics["threads_alive"])
        arrival_total = 0.0
        for scheduler in self.cluster.schedulers:
            published = kvs.peek(SCHEDULER_METRICS_PREFIX + scheduler.scheduler_id)
            if published is not None:
                arrival_total += self._call_units(scheduler, published.reveal())
        completion_total = invocations + self._retired_invocations
        interval_s = self.policy_interval_ms / 1000.0
        aggregates = {
            "utilization": sum(samples) / len(samples) if samples else 0.0,
            "arrival_rate_per_s":
                max(0.0, arrival_total - self._last_arrival_total) / interval_s,
            "completion_rate_per_s":
                max(0.0, completion_total - self._last_completion_total) / interval_s,
            "capacity_threads": float(capacity),
        }
        self._last_arrival_total = arrival_total
        self._last_completion_total = completion_total
        return aggregates

    @staticmethod
    def _call_units(scheduler, published: Dict) -> float:
        """Arrivals in *function-execution units*, like the invocation totals.

        A k-function DAG call is k units of work, or the §4.4 backlog rule
        could never fire for a DAG workload; a deleted DAG's calls weigh 1.
        """
        units = float(published["function_calls"])
        for name, count in published["dag_calls_by_name"].items():
            try:
                units += count * len(scheduler.dag_registry.get(name).functions)
            except DagNotFoundError:
                units += count
        return units

    # -- §4.4: the policy ----------------------------------------------------
    def decide(self, now_ms: float,
               metrics: Dict[str, float]) -> Optional[AutoscalerDecision]:
        """The cluster-level elasticity policy behind Figure 7."""
        per_vm = self.cluster.threads_per_vm
        utilization = metrics["utilization"]
        arrival = metrics["arrival_rate_per_s"]
        capacity = int(metrics["capacity_threads"])
        if (utilization >= SCALE_UP_UTILIZATION and arrival > 0
                and now_ms >= self._pending_until_ms):
            # One batch of EC2 instances at a time: while the previous batch is
            # still booting (the ~2.5 minute plateaus in Figure 7), the policy
            # waits rather than requesting ever more capacity.
            config = self.config
            self._pending_until_ms = now_ms + config.node_startup_delay_ms
            return AutoscalerDecision(
                add_threads=config.vms_per_scale_up * per_vm,
                add_delay_ms=config.node_startup_delay_ms,
                note=f"utilization {utilization:.2f} >= {SCALE_UP_UTILIZATION}: "
                     f"adding {config.vms_per_scale_up} VMs")
        if (arrival == 0.0 and metrics["completion_rate_per_s"] == 0.0
                and capacity > MIN_PINNED_THREADS):
            # Load disappeared: drain down to the minimum pinned threads,
            # skipping the grace period.
            return AutoscalerDecision(
                remove_threads=capacity - MIN_PINNED_THREADS,
                note="request rate dropped to zero: draining executors",
                urgent=True)
        if (utilization < SCALE_DOWN_UTILIZATION and arrival > 0
                and capacity > per_vm * MIN_VMS):
            return AutoscalerDecision(
                remove_threads=per_vm,
                note=f"utilization {utilization:.2f} < {SCALE_DOWN_UTILIZATION}")
        return None

    def tick(self, now_ms: float) -> ControlPlaneReport:
        """One policy tick: aggregate, decide, actuate, record."""
        metrics = self.aggregate()
        report = ControlPlaneReport(
            at_ms=now_ms,
            utilization=metrics["utilization"],
            arrival_rate_per_s=metrics["arrival_rate_per_s"],
            completion_rate_per_s=metrics["completion_rate_per_s"],
            capacity_threads=int(metrics["capacity_threads"]),
        )
        decision = self.decide(now_ms, metrics)
        if decision is None or decision.remove_threads <= 0:
            self._low_ticks = 0
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
                if not decision.urgent:
                    self._low_ticks += 1
                if decision.urgent or self._low_ticks >= GRACE_TICKS:
                    self._low_ticks = 0
                    migrated_before = len(self.migrations)
                    report.threads_drained = self.drain_capacity(
                        decision.remove_threads, now_ms)
                    report.migrations = len(self.migrations) - migrated_before
        # §4.4 function-level pinning: a backlogged workload (arrivals
        # outpacing completions) gets more pinned replicas.
        if (report.completion_rate_per_s > 0 and report.arrival_rate_per_s
                > BACKLOG_RATIO * report.completion_rate_per_s):
            report.functions_repinned = self.repin_backlogged()
        self.history.append(report)
        self.node_count_timeline.append(
            (now_ms, sum(1 for vm in self.cluster.vms if vm.alive)))
        return report

    # -- actuation ---------------------------------------------------------
    def add_capacity(self, thread_count: int) -> int:
        """Scale up: bring new executor VMs online (cold caches, no pins).

        Capped at ``config.max_vms`` alive VMs, so a burst that outlasts the
        instance-startup delay cannot grow the fleet forever.  Each new VM
        publishes its metrics as it boots.
        """
        per_vm = self.cluster.threads_per_vm
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
                (self.cluster.engine.now_ms, self.cluster.live_thread_count()))
        return added

    def drain_capacity(self, thread_count: int, now_ms: Optional[float] = None) -> int:
        """Scale down: migrate pins off departing threads, then drain them.

        Never drains below ``MIN_PINNED_THREADS``.  Fully drained VMs retire
        (cache closed, metrics key deleted); partially drained VMs republish
        their metrics so the aggregate capacity stays truthful between ticks.
        """
        if now_ms is None:
            now_ms = self.cluster.engine.now_ms
        removable = max(0, self.cluster.live_thread_count() - MIN_PINNED_THREADS)
        count = min(thread_count, removable)
        if count <= 0:
            return 0
        departed = []
        touched_vms = []
        for vm in reversed(self.cluster.vms):
            if count <= 0:
                break
            if not vm.alive:
                continue
            taken = [t for t in reversed(vm.threads) if t.alive][:count]
            for thread in taken:
                thread.alive = False
                self.cluster.router.mark_unreachable(thread.thread_id)
            if taken:
                departed.extend(taken)
                touched_vms.append(vm)
                count -= len(taken)
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
        self.capacity_timeline.append((now_ms, self.cluster.live_thread_count()))
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

    def repin_backlogged(self) -> Dict[str, int]:
        """Add one pinned replica per function (arrivals outpacing completions).

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

    # -- observability -----------------------------------------------------
    def calls_routed_to_drained(self) -> int:
        """Invocations that landed on a thread after it was drained (must be 0)."""
        return sum(max(0, thread.invocation_count - at_drain)
                   for thread, at_drain in self._drained_snapshot)

    def snapshot(self) -> Dict[str, object]:
        """Machine-readable summary for bench snapshots and CI gates."""
        capacities = [capacity for _, capacity in self.capacity_timeline]
        return {
            "publish_interval_ms": self.publish_interval_ms,
            "policy_interval_ms": self.policy_interval_ms,
            "publish_ticks": self.published_ticks,
            "policy_ticks": len(self.history),
            "scale_up_events": self.scale_up_events,
            "threads_drained": self.threads_drained_total,
            "migrations": len(self.migrations),
            "calls_routed_to_drained": self.calls_routed_to_drained(),
            "baseline_threads": capacities[0] if capacities else 0,
            "peak_threads": max(capacities) if capacities else 0,
            "final_threads": capacities[-1] if capacities else 0,
            "min_threads": MIN_PINNED_THREADS,
        }
