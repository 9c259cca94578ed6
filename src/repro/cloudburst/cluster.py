"""Cluster assembly: everything in Figure 3 wired together.

A :class:`CloudburstCluster` owns the Anna KVS, the executor VMs (threads +
VM-local caches), the message router, one or more schedulers and the
monitoring system, and hands out clients.  It is the single entry point used
by the examples, tests and benchmarks:

    cluster = CloudburstCluster(executor_vms=3)
    cloud = cluster.connect()
    sq = cloud.register(lambda x: x * x, name="square")
    assert sq(3) == 9
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from ..anna import AnnaCluster
from ..sim import (ComputeModel, Engine, LatencyModel, RandomSource,
                   RequestContext, SimClock)
from .cache import ExecutorCache
from .client import CloudburstClient
from .consistency.anomalies import AnomalyTracker
from .consistency.levels import ConsistencyLevel
from .dag import DagRegistry
from .executor import (
    DEFAULT_WORK_QUEUE_BOUND,
    EXECUTOR_METRICS_PREFIX,
    ExecutorVM,
)
from .messaging import MessageRouter
from .monitoring import MonitoringConfig, MonitoringSystem
from .scheduler import DEFAULT_FAULT_TIMEOUT_MS, OVERLOAD_THRESHOLD, Scheduler


class CloudburstCluster:
    """An in-process Cloudburst deployment."""

    def __init__(self,
                 executor_vms: int = 3,
                 threads_per_vm: int = 3,
                 scheduler_count: int = 1,
                 anna_nodes: int = 4,
                 anna_replication: int = 2,
                 consistency: ConsistencyLevel = ConsistencyLevel.LWW,
                 seed: int = 0,
                 latency_model: Optional[LatencyModel] = None,
                 compute_model: Optional[ComputeModel] = None,
                 anomaly_tracker: Optional[AnomalyTracker] = None,
                 monitoring_config: Optional[MonitoringConfig] = None,
                 anna_propagation: str = AnnaCluster.PROPAGATE_IMMEDIATE,
                 propagation_interval_ms: float = 0.0,
                 anna_memory_capacity_keys: Optional[int] = None,
                 anna_durable_path=None,
                 overload_threshold: float = OVERLOAD_THRESHOLD,
                 fault_timeout_ms: float = DEFAULT_FAULT_TIMEOUT_MS,
                 work_queue_bound: Optional[int] = DEFAULT_WORK_QUEUE_BOUND,
                 tracer=None,
                 prefetch_references: bool = True):
        if executor_vms <= 0:
            raise ValueError("executor_vms must be positive")
        if scheduler_count <= 0:
            raise ValueError("scheduler_count must be positive")
        self.rng = RandomSource(seed)
        self.latency_model = latency_model or LatencyModel(self.rng.spawn("latency"))
        self.compute_model = compute_model or ComputeModel(rng=self.rng.spawn("compute"))
        self.consistency = consistency
        self.threads_per_vm = threads_per_vm
        self.anomaly_tracker = anomaly_tracker
        self.overload_threshold = overload_threshold
        self.fault_timeout_ms = fault_timeout_ms
        self.work_queue_bound = work_queue_bound
        #: Scheduler-driven DAG-reference prefetch (§4.2).  False disables
        #: the placement-time cache warming (the §4.2 ablation).
        self.prefetch_references = prefetch_references
        #: The one discrete-event engine of this cluster's lifetime: Anna's
        #: storage nodes, every executor VM and every scheduler live on it.
        self.engine = Engine()
        #: Optional ``repro.obs.Tracer`` shared by every tier.  None (the
        #: default) keeps the entire cluster on the untraced fast path.
        self.tracer = tracer

        anna_kwargs = {}
        if anna_memory_capacity_keys is not None:
            anna_kwargs["memory_capacity_keys"] = anna_memory_capacity_keys
        if anna_durable_path is not None:
            # Real SQLite/WAL cold tier behind the storage nodes; demotions
            # persist and storage_drop faults crash/restart instead of
            # drain/rejoin (see repro.durable).
            anna_kwargs["durable_path"] = anna_durable_path
        self.kvs = AnnaCluster(node_count=anna_nodes, replication_factor=anna_replication,
                               latency_model=self.latency_model,
                               propagation_mode=anna_propagation,
                               propagation_interval_ms=propagation_interval_ms,
                               tracer=tracer, engine=self.engine,
                               **anna_kwargs)
        self.router = MessageRouter(self.kvs, self.latency_model)
        self.cache_registry: Dict[str, ExecutorCache] = {}
        self.vms: List[ExecutorVM] = []
        self._vm_sequence = 0
        for _ in range(executor_vms):
            self.add_vm(publish_metrics=False)

        self.dag_registry = DagRegistry()
        self.schedulers: List[Scheduler] = []
        for index in range(scheduler_count):
            scheduler = Scheduler(
                scheduler_id=f"scheduler-{index}",
                kvs=self.kvs,
                vms=self.vms,
                dag_registry=self.dag_registry,
                latency_model=self.latency_model,
                rng=self.rng.spawn(f"scheduler-{index}"),
                default_consistency=consistency,
                fault_timeout_ms=fault_timeout_ms,
                overload_threshold=overload_threshold,
                anomaly_tracker=anomaly_tracker,
                prefetch_references=prefetch_references,
            )
            self.schedulers.append(scheduler)

        self.monitoring = MonitoringSystem(self, monitoring_config)
        self._client_sequence = 0
        self.publish_all_metrics()

    # -- compute-tier membership ------------------------------------------------------
    def add_vm(self, vm_id: Optional[str] = None, publish_metrics: bool = True,
               threads: Optional[int] = None) -> ExecutorVM:
        """Add one executor VM (threads + local cache) to the cluster.

        ``threads`` overrides the cluster-wide ``threads_per_vm`` so thread
        totals that are not multiples of the VM size can be built exactly
        (the scaling sweeps use 10, 20, ... threads over 3-thread VMs).
        """
        if vm_id is None:
            vm_id = f"vm-{self._vm_sequence}"
            self._vm_sequence += 1
        vm = ExecutorVM(
            vm_id=vm_id,
            kvs=self.kvs,
            router=self.router,
            threads_per_vm=threads or self.threads_per_vm,
            latency_model=self.latency_model,
            compute_model=self.compute_model,
            consistency_level=self.consistency,
            cache_registry=self.cache_registry,
            work_queue_bound=self.work_queue_bound,
        )
        self.vms.append(vm)
        if publish_metrics:
            vm.publish_metrics()
        return vm

    # -- the shared timeline ----------------------------------------------------------
    @contextmanager
    def request(self, ctx: Optional[RequestContext] = None
                ) -> Iterator[RequestContext]:
        """The request context of one client operation.

        A caller's ``ctx`` is used as it is and the engine is not moved:
        drivers and apps own their timelines.  Without one the operation
        starts at the engine's current virtual time and, unless it was issued
        from inside an engine event (which cannot block), returns with the
        engine advanced to the operation's completion time — so operations
        issued one after another are one closed-loop client on the shared
        timeline, with gossip, propagation and policy ticks firing between
        them.
        """
        if ctx is not None:
            yield ctx
            return
        ctx = RequestContext(clock=SimClock(self.engine.now_ms))
        try:
            yield ctx
        finally:
            if not self.engine.running:
                self.advance_to(ctx.clock.now_ms)

    def advance_to(self, at_ms: float) -> None:
        """Fire engine events until virtual time stands at ``at_ms``.

        ``step()``, never ``run()``: a blocked client is not a run of the
        engine.  The marker is a foreground event — a client waiting for an
        answer is pending work, so the recurring ticks keep firing.
        """
        reached: List[bool] = []
        self.engine.at(at_ms, lambda: reached.append(True))
        while not reached:
            self.engine.step()

    def settle(self) -> float:
        """Let the cluster come to rest; returns the virtual time it rests at.

        Fires whatever is still in flight — invocations nobody waited for,
        the gossip and propagation round that follows the last write — until
        the engine is idle (where the recurring ticks pause themselves), and
        stops on the next whole millisecond.  Load-driver runs start from
        here, so a run's rounds and policy ticks fall at whole-millisecond
        offsets from its start however long set-up took, and replicas enter
        it converged.
        """
        engine = self.engine
        while engine.step():
            pass
        engine.at(math.ceil(engine.now_ms), lambda: None, background=True)
        engine.step()
        return engine.now_ms

    def scrub_pins(self, departed_thread_ids) -> None:
        """Drop function pins that refer to departed executor threads.

        Shared by :meth:`remove_vm` and :meth:`drain_vm` (the latter used to
        leave stale pins behind, so a drained VM's thread ids kept counting
        toward a function's replica quota while serving nothing).  The §4.4
        control plane migrates pins to survivors *before* scrubbing; callers
        that deallocate without a control plane just scrub.
        """
        departed = set(departed_thread_ids)
        for scheduler in self.schedulers:
            for name, pins in scheduler.function_pins.items():
                scheduler.function_pins[name] = [p for p in pins
                                                 if p not in departed]

    def _forget_metrics(self, vm: ExecutorVM) -> None:
        """Remove a departed VM's published metrics key from Anna.

        The monitoring system aggregates alive VMs only, but leaving the key
        behind would still hand stale data to anything reading the metrics
        prefix directly.
        """
        self.kvs.delete(EXECUTOR_METRICS_PREFIX + vm.vm_id)

    def remove_vm(self, vm_id: Optional[str] = None) -> ExecutorVM:
        """Deallocate an executor VM (the last one by default)."""
        if not self.vms:
            raise ValueError("no executor VMs to remove")
        if vm_id is None:
            vm = self.vms.pop()
        else:
            matches = [v for v in self.vms if v.vm_id == vm_id]
            if not matches:
                raise KeyError(f"unknown VM: {vm_id!r}")
            vm = matches[0]
            self.vms.remove(vm)
        for thread in vm.threads:
            self.router.unregister_thread(thread.thread_id)
        # close() deregisters the Anna update listener, drops the cache's
        # index entries and removes it from the shared peer registry
        # (self.cache_registry) — a removed VM must stop receiving pushes.
        vm.cache.close()
        self.scrub_pins(vm.thread_ids())
        self._forget_metrics(vm)
        return vm

    def drain_vm(self, vm: ExecutorVM) -> None:
        """Deactivate a VM at scale-down without removing it from the roster.

        The compute autoscaler drains executor threads in place; once a VM
        has no live threads its cache must be closed — otherwise drained VMs
        keep receiving Anna's update pushes and leak peer-registry entries
        for as long as the cluster lives.  Pins onto the drained threads are
        scrubbed (same helper as :meth:`remove_vm`): stale pin entries used
        to satisfy replica quotas while routing nowhere, so a pinned
        function silently lost its replicas at every drain.
        """
        vm.alive = False
        for thread in vm.threads:
            if thread.alive:
                thread.alive = False
                self.router.mark_unreachable(thread.thread_id)
        vm.cache.close()
        self.scrub_pins(vm.thread_ids())
        self._forget_metrics(vm)

    def vm(self, vm_id: str) -> ExecutorVM:
        for vm in self.vms:
            if vm.vm_id == vm_id:
                return vm
        raise KeyError(f"unknown VM: {vm_id!r}")

    # -- scheduler faults (§4.5) ---------------------------------------------------------
    def scheduler(self, scheduler_id: str) -> Scheduler:
        for candidate in self.schedulers:
            if candidate.scheduler_id == scheduler_id:
                return candidate
        raise KeyError(f"unknown scheduler: {scheduler_id!r}")

    def crash_scheduler(self, scheduler_id: str) -> Scheduler:
        """Fault injection: crash a scheduler; its in-flight sessions freeze.

        Clients fail over to the surviving schedulers; the crashed one's
        journaled sessions are recovered by :meth:`restart_scheduler`.
        """
        scheduler = self.scheduler(scheduler_id)
        scheduler.crash()
        return scheduler

    def restart_scheduler(self, scheduler_id: str) -> int:
        """Restart a crashed scheduler; returns sessions recovered from its journal."""
        return self.scheduler(scheduler_id).restart()

    def live_schedulers(self) -> List[Scheduler]:
        return [scheduler for scheduler in self.schedulers if scheduler.alive]

    def abandoned_session_count(self) -> int:
        """In-flight journal records across all schedulers (should be zero at rest)."""
        return sum(s.journal.in_flight_count() for s in self.schedulers)

    # -- clients and observability -------------------------------------------------------
    def connect(self, client_id: Optional[str] = None,
                consistency: Optional[ConsistencyLevel] = None) -> CloudburstClient:
        """Create a client bound to this cluster's schedulers (Figure 2, line 2)."""
        if client_id is None:
            client_id = f"client-{self._client_sequence}"
            self._client_sequence += 1
        return CloudburstClient(self.schedulers, self, client_id=client_id,
                                consistency=consistency or self.consistency)

    def publish_all_metrics(self) -> None:
        """Have every alive VM publish its metrics and cached-key snapshot (§4.1).

        On-demand publication, used at construction and by tests; driver
        runs with a control plane publish on a periodic tick instead (the
        :class:`~repro.cloudburst.controlplane.MetricsPublisher` inside
        :class:`~repro.cloudburst.controlplane.ComputeControlPlane`).
        """
        for vm in self.vms:
            if vm.alive:
                vm.publish_metrics()

    def total_threads(self) -> int:
        return sum(len(vm.threads) for vm in self.vms if vm.alive)

    def live_thread_count(self) -> int:
        """Alive threads on alive VMs — the capacity signal every layer shares
        (scheduler placement, the compute autoscaler, the load driver)."""
        return sum(1 for vm in self.vms if vm.alive
                   for thread in vm.threads if thread.alive)

    def total_invocations(self) -> int:
        return sum(vm.invocation_count() for vm in self.vms)

    def cache_hit_rate(self) -> float:
        hits = sum(vm.cache.stats.hits for vm in self.vms)
        misses = sum(vm.cache.stats.misses for vm in self.vms)
        total = hits + misses
        return hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CloudburstCluster(vms={len(self.vms)}, "
                f"threads={self.total_threads()}, "
                f"schedulers={len(self.schedulers)}, "
                f"anna_nodes={self.kvs.node_count()})")
