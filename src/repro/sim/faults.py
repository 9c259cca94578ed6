"""Fault plane (§4.5): seeded, recoverable failures injected at every tier.

The paper's fault-tolerance story is exercised end to end only if failures
are *real* — a killed VM must surface as the same :class:`ExecutorFailedError`
the retry machinery already handles, a dropped storage replica must re-home
its keys through the consistent-hash ring, a partitioned replica must stall
anti-entropy without losing updates, and a crashed scheduler must strand its
in-flight sessions until ``restart()`` re-executes each from its record in
the :class:`~repro.cloudburst.journal.SessionJournal`.  :class:`FaultPlane`
drives all four from a recurring engine event with per-class seeded schedules:

* ``executor_kill`` — ``ExecutorVM.fail()`` mid-DAG; each session whose current
  attempt ran on the victim gets a ``fail`` event (``DagSession.fail_attempt``).
* ``storage_drop`` — ``AnnaCluster.remove_node`` (keys re-home), later
  rejoined under the same node id; with a durable SQLite cold tier attached
  it becomes ``crash_node``/``restart_node`` — the memory tier is lost and
  the cold set is recovered from disk.
* ``gossip_partition`` — ``AnnaCluster.partition_node`` defers anti-entropy
  for one replica; healing flushes the backlog with a gossip round.
* ``scheduler_crash`` — ``Scheduler.crash()`` freezes its sessions;
  ``restart()`` recovers every one from the journal.

Determinism (the fault bench gates on it): each class draws its schedule from
its own ``rng.spawn("fault-plane/<class>")`` stream, so the timeline of one
class never shifts because another class drew a sample — identical seeds
replay the fault timeline sample-for-sample across processes.

Liveness: injections happen only while the workload has foreground events
outstanding (recoveries excluded), so the plane can never self-sustain an
engine run after the workload drains; every recovery is a *foreground* event,
so a run cannot end with a fault outstanding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .rng import RandomSource

#: The four fault classes, one per tier of the stack.
EXECUTOR_KILL = "executor_kill"
STORAGE_DROP = "storage_drop"
GOSSIP_PARTITION = "gossip_partition"
SCHEDULER_CRASH = "scheduler_crash"

DEFAULT_FAULT_CLASSES: Tuple[str, ...] = (
    EXECUTOR_KILL, STORAGE_DROP, GOSSIP_PARTITION, SCHEDULER_CRASH)


@dataclass(frozen=True)
class FaultEvent:
    """One entry in the fault timeline: an injection or a recovery."""

    at_ms: float     # virtual ms since the fault plane started
    fault: str       # fault class, e.g. "executor_kill"
    action: str      # "inject" | "recover"
    target: str      # vm id / storage node id / scheduler id

    def to_dict(self) -> Dict[str, Any]:
        return {"at_ms": self.at_ms, "fault": self.fault,
                "action": self.action, "target": self.target}


class _FaultClass:
    """Per-class schedule state: its own rng stream and one outstanding slot."""

    __slots__ = ("name", "rng", "next_at_ms", "outstanding", "injected",
                 "recovered", "max_recovery_ms")

    def __init__(self, name: str, rng: RandomSource):
        self.name = name
        self.rng = rng
        self.next_at_ms: Optional[float] = None
        #: (target id, injected_at_ms, recover fn) while a fault is live.
        self.outstanding: Optional[Tuple[str, float, Callable[[], None]]] = None
        self.injected = 0
        self.recovered = 0
        self.max_recovery_ms = 0.0


class FaultPlane:
    """Inject seeded failures into a live cluster from recurring engine events.

    ``start()`` begins a periodic tick on the cluster's engine; each tick
    draws against every enabled class's private schedule and, when a class's
    time has come *and* its guard holds (never kill the last live VM, never
    drop below the replication factor, never crash the last scheduler),
    injects the fault and schedules its recovery ``downtime_ms`` later as a
    foreground event.
    At most one fault per class is outstanding at any instant, so the §4.5
    oracle's "recovered within bound" check is per-injection, not amortised.
    """

    def __init__(self, cluster, rng: RandomSource,
                 classes: Sequence[str] = DEFAULT_FAULT_CLASSES,
                 mean_interval_ms: float = 1_500.0,
                 downtime_ms: float = 400.0,
                 tick_interval_ms: float = 50.0):
        unknown = [name for name in classes if name not in DEFAULT_FAULT_CLASSES]
        if unknown:
            raise ValueError(f"unknown fault classes: {unknown!r}")
        if mean_interval_ms <= 0 or downtime_ms <= 0 or tick_interval_ms <= 0:
            raise ValueError("fault-plane intervals must be positive")
        self.cluster = cluster
        self.mean_interval_ms = mean_interval_ms
        self.downtime_ms = downtime_ms
        self.tick_interval_ms = tick_interval_ms
        # Satellite requirement: one spawn namespace per class.  Which class
        # fires never perturbs another class's sample stream, so a seed pins
        # the whole timeline even if classes are enabled/disabled.
        self._classes: Dict[str, _FaultClass] = {
            name: _FaultClass(name, rng.spawn(f"fault-plane/{name}"))
            for name in classes}
        self.timeline: List[FaultEvent] = []
        self.engine = cluster.engine
        #: Virtual time :meth:`start` was called at; the timeline counts from it.
        self.started_ms = 0.0
        self._tick_event = None
        self._outstanding_recoveries = 0
        self._inject: Dict[str, Callable[[_FaultClass], Optional[str]]] = {
            EXECUTOR_KILL: self._inject_executor_kill,
            STORAGE_DROP: self._inject_storage_drop,
            GOSSIP_PARTITION: self._inject_gossip_partition,
            SCHEDULER_CRASH: self._inject_scheduler_crash,
        }

    # -- lifecycle ---------------------------------------------------------------------
    def start(self, horizon_ms: Optional[float] = None) -> None:
        """Start the fault tick (``horizon_ms`` from now keeps it alive on an
        idle engine)."""
        if self._tick_event is not None:
            raise RuntimeError("fault plane is already running")
        engine = self.engine
        self.started_ms = engine.now_ms
        for fault in self._classes.values():
            fault.next_at_ms = engine.now_ms + fault.rng.exponential(
                self.mean_interval_ms)
        self._tick_event = engine.every(self.tick_interval_ms, self._tick,
                                        horizon_ms=horizon_ms)

    def stop(self) -> None:
        """Stop the tick and force-recover anything still outstanding.

        Outstanding faults are recovered immediately (recorded in the
        timeline) so the cluster is whole again when the run is over.
        """
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        for fault in self._classes.values():
            if fault.outstanding is not None:
                self._recover(fault)

    # -- the tick ----------------------------------------------------------------------
    def _tick(self) -> None:
        engine = self.engine
        # Inject only while the *workload* still has foreground events —
        # our own pending recoveries don't count.  Without this, the last
        # recovery's foreground event would let the tick re-arm, inject
        # again, and keep the run alive forever.
        if engine.foreground_pending - self._outstanding_recoveries <= 0:
            return
        now = engine.now_ms
        for fault in self._classes.values():
            if fault.outstanding is not None or now < fault.next_at_ms:
                continue
            target = self._inject[fault.name](fault)
            if target is None:
                # Guard refused (e.g. one live VM left).  Re-draw so the
                # next attempt lands later instead of retrying every tick.
                fault.next_at_ms = now + fault.rng.exponential(
                    self.mean_interval_ms)
                continue
            fault.injected += 1
            self._record(fault, "inject", target)
            self._outstanding_recoveries += 1
            # Foreground on purpose: the run cannot drain while a fault is
            # unrecovered, which is exactly the §4.5 bounded-recovery oracle.
            engine.schedule(self.downtime_ms, lambda f=fault: self._recover(f))

    def _record(self, fault: _FaultClass, action: str, target: str) -> None:
        self.timeline.append(FaultEvent(self.engine.now_ms - self.started_ms,
                                        fault.name, action, target))

    def _recover(self, fault: _FaultClass) -> None:
        if fault.outstanding is None:
            return  # already force-recovered by stop()
        target, injected_at, recover_fn = fault.outstanding
        fault.outstanding = None
        recover_fn()
        now = self.engine.now_ms
        fault.recovered += 1
        fault.max_recovery_ms = max(fault.max_recovery_ms, now - injected_at)
        self._record(fault, "recover", target)
        self._outstanding_recoveries -= 1
        fault.next_at_ms = now + fault.rng.exponential(self.mean_interval_ms)

    # -- per-class injections ----------------------------------------------------------
    def _inject_executor_kill(self, fault: _FaultClass) -> Optional[str]:
        live = [vm for vm in self.cluster.vms if vm.alive]
        if len(live) < 2:
            return None  # never kill the last live VM
        victim = fault.rng.choice(live)
        victim.fail()
        # Sessions whose current attempt ran functions on the victim lost
        # intermediate results with its cache: fail those attempts through
        # the normal §4.5 retry machinery (fresh execution id, released
        # snapshots), exactly as an in-line ExecutorFailedError would.
        for scheduler in self.cluster.schedulers:
            for session in scheduler.journal.live_sessions():
                if session.record.uses_vm(victim.vm_id):
                    session.fail_attempt(
                        reason=f"executor VM {victim.vm_id!r} killed")
        fault.outstanding = (victim.vm_id, self.engine.now_ms, victim.recover)
        return victim.vm_id

    def _inject_storage_drop(self, fault: _FaultClass) -> Optional[str]:
        kvs = self.cluster.kvs
        if kvs.node_count() <= kvs.replication_factor:
            return None  # keep at least one full replica set
        # Never drop a replica another class currently holds partitioned:
        # removing it would strand the partition's heal on a missing node.
        candidates = [node_id for node_id in kvs.node_ids
                      if node_id not in kvs.partitioned_nodes()]
        if not candidates:
            return None
        node_id = fault.rng.choice(candidates)
        if kvs.has_durable_tier():
            # Durable cold tier attached: a drop is a *crash* — the memory
            # tier dies with the node, the SQLite cold set stays on disk, and
            # recovery re-opens it (the restart path §4.5 actually exercises).
            kvs.crash_node(node_id)

            def rejoin() -> None:
                kvs.restart_node(node_id)
        else:
            kvs.remove_node(node_id)

            def rejoin() -> None:
                kvs.add_node(node_id=node_id)

        fault.outstanding = (node_id, self.engine.now_ms, rejoin)
        return node_id

    def _inject_gossip_partition(self, fault: _FaultClass) -> Optional[str]:
        kvs = self.cluster.kvs
        candidates = [node_id for node_id in kvs.node_ids
                      if node_id not in kvs.partitioned_nodes()]
        if len(candidates) < 2:
            return None  # leave at least one reachable gossip peer
        node_id = fault.rng.choice(candidates)
        kvs.partition_node(node_id)

        def heal() -> None:
            kvs.heal_partition(node_id)
            # Flush the anti-entropy backlog the partition deferred.
            kvs.run_gossip_round()

        fault.outstanding = (node_id, self.engine.now_ms, heal)
        return node_id

    def _inject_scheduler_crash(self, fault: _FaultClass) -> Optional[str]:
        live = self.cluster.live_schedulers()
        if len(live) < 2:
            return None  # never crash the last live scheduler
        victim = fault.rng.choice(live)
        victim.crash()

        def restart() -> None:
            victim.restart()

        fault.outstanding = (victim.scheduler_id, self.engine.now_ms, restart)
        return victim.scheduler_id

    # -- reporting ---------------------------------------------------------------------
    @property
    def recovery_bound_ms(self) -> float:
        """Upper bound on any single fault's virtual recovery time."""
        # Recovery fires exactly downtime_ms after injection; the tick
        # interval is slack for the restart work recovery itself schedules.
        return self.downtime_ms + self.tick_interval_ms

    def injected_count(self) -> int:
        return sum(fault.injected for fault in self._classes.values())

    def recovered_count(self) -> int:
        return sum(fault.recovered for fault in self._classes.values())

    def max_recovery_ms(self) -> float:
        return max((fault.max_recovery_ms for fault in self._classes.values()),
                   default=0.0)

    def timeline_signature(self) -> Tuple[Tuple[float, str, str, str], ...]:
        """Hashable timeline fingerprint for seed-determinism assertions."""
        return tuple((round(event.at_ms, 6), event.fault, event.action,
                      event.target) for event in self.timeline)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible summary (per class and total) for the bench gate."""
        return {
            "classes": {
                name: {
                    "injected": fault.injected,
                    "recovered": fault.recovered,
                    "max_recovery_ms": fault.max_recovery_ms,
                }
                for name, fault in self._classes.items()
            },
            "injected": self.injected_count(),
            "recovered": self.recovered_count(),
            "max_recovery_ms": self.max_recovery_ms(),
            "recovery_bound_ms": self.recovery_bound_ms,
            "timeline": [event.to_dict() for event in self.timeline],
        }
