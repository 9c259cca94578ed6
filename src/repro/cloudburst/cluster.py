"""Cluster assembly: everything in Figure 3 wired together.

A :class:`CloudburstCluster` owns the Anna KVS, the executor VMs (threads +
VM-local caches), the message router and one or more schedulers, and hands
out clients.  It is the single entry point used by the examples, tests and
benchmarks:

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
from ..anna.storage_node import MEMORY_CAPACITY_KEYS
from ..sim import ComputeModel, LatencyModel, RandomSource, RequestContext, SimClock
from .cache import ExecutorCache
from .client import CloudburstClient
from .consistency.anomalies import AnomalyTracker
from .consistency.levels import ConsistencyLevel
from .dag import DagRegistry
from .executor import EXECUTOR_METRICS_PREFIX, ExecutorThread, ExecutorVM
from .messaging import MessageRouter
from .policy import IdleRoster
from .scheduler import DEFAULT_FAULT_TIMEOUT_MS, Scheduler

#: Replicas of every Anna key (k-fault tolerance, §2.2).
ANNA_REPLICATION = 2


class CloudburstCluster:
    """An in-process Cloudburst deployment."""

    def __init__(self,
                 executor_vms: int = 3,
                 threads_per_vm: int = 3,
                 scheduler_count: int = 1,
                 anna_nodes: int = 4,
                 consistency: ConsistencyLevel = ConsistencyLevel.LWW,
                 seed: int = 0,
                 latency_model: Optional[LatencyModel] = None,
                 anomaly_tracker: Optional[AnomalyTracker] = None,
                 anna_propagation: str = AnnaCluster.PROPAGATE_IMMEDIATE,
                 propagation_interval_ms: float = 0.0,
                 anna_memory_capacity_keys: int = MEMORY_CAPACITY_KEYS,
                 anna_durable_path=None,
                 fault_timeout_ms: float = DEFAULT_FAULT_TIMEOUT_MS,
                 tracer=None,
                 prefetch_references: bool = True):
        if executor_vms <= 0:
            raise ValueError("executor_vms must be positive")
        if scheduler_count <= 0:
            raise ValueError("scheduler_count must be positive")
        self.rng = RandomSource(seed)
        self.latency_model = latency_model or LatencyModel(self.rng.spawn("latency"))
        self.compute_model = ComputeModel(rng=self.rng.spawn("compute"))
        self.consistency = consistency
        self.threads_per_vm = threads_per_vm
        self.anomaly_tracker = anomaly_tracker
        self.fault_timeout_ms = fault_timeout_ms
        #: Scheduler-driven DAG-reference prefetch (§4.2).  False disables
        #: the placement-time cache warming (the §4.2 ablation).
        self.prefetch_references = prefetch_references
        #: Optional ``repro.obs.Tracer`` shared by every tier.  None (the
        #: default) keeps the entire cluster on the untraced fast path.
        self.tracer = tracer
        # A durable path puts a real SQLite/WAL cold tier behind the storage
        # nodes: demotions persist, and storage_drop faults crash/restart
        # instead of drain/rejoin (see repro.durable).
        self.kvs = AnnaCluster(node_count=anna_nodes, replication_factor=ANNA_REPLICATION,
                               latency_model=self.latency_model,
                               memory_capacity_keys=anna_memory_capacity_keys,
                               propagation_mode=anna_propagation,
                               propagation_interval_ms=propagation_interval_ms,
                               durable_path=anna_durable_path, tracer=tracer)
        #: The one discrete-event engine of this cluster's lifetime: Anna's
        #: storage nodes, every executor VM and every scheduler live on it.
        self.engine = self.kvs.engine
        self.router = MessageRouter(self.kvs)
        self.cache_registry: Dict[str, ExecutorCache] = {}
        self.vms: List[ExecutorVM] = []
        #: ``thread_id -> thread`` over the whole roster, dead threads too:
        #: threads are only created with their VM, and the roster never
        #: shrinks, so this is filled in :meth:`add_vm` and nowhere else.
        self.threads_by_id: Dict[str, ExecutorThread] = {}
        #: The live threads and the §4.3 spill's idle pool, kept by every
        #: queue write and ``alive`` write (``policy.IdleRoster``).
        self.roster = IdleRoster()
        self._vm_sequence = 0
        for _ in range(executor_vms):
            self.add_vm(publish_metrics=False)

        self.dag_registry = DagRegistry()
        self.schedulers = [Scheduler(self, f"scheduler-{index}")
                           for index in range(scheduler_count)]

        self._client_sequence = 0
        self.publish_all_metrics()

    # -- compute-tier membership ------------------------------------------------------
    def add_vm(self, publish_metrics: bool = True,
               threads: Optional[int] = None) -> ExecutorVM:
        """Add one executor VM (threads + local cache) to the cluster.

        ``threads`` overrides the cluster-wide ``threads_per_vm`` so thread
        totals that are not multiples of the VM size can be built exactly
        (the scaling sweeps use 10, 20, ... threads over 3-thread VMs).
        """
        vm = ExecutorVM(self, f"vm-{self._vm_sequence}", threads or self.threads_per_vm)
        self._vm_sequence += 1
        self.vms.append(vm)
        for thread in vm.threads:
            self.threads_by_id[thread.thread_id] = thread
        self.roster.add_vm(vm)
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
                self.engine.advance_to(ctx.clock.now_ms)

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

    def drain_vm(self, vm: ExecutorVM) -> None:
        """Deactivate a VM at scale-down without removing it from the roster.

        The compute autoscaler drains executor threads in place; once a VM
        has no live threads its cache must be closed — otherwise drained VMs
        keep receiving Anna's update pushes and leak peer-registry entries
        for as long as the cluster lives.  Pins onto the drained threads are
        dropped: stale pin entries used to satisfy replica quotas while
        routing nowhere, so a pinned function silently lost its replicas at
        every drain (the §4.4 control plane migrates pins to survivors
        first).  The VM's published metrics key goes too, so nothing reading
        the metrics prefix sees a departed VM.
        """
        vm.alive = False
        for thread in vm.threads:
            if thread.alive:
                thread.alive = False
                self.router.mark_unreachable(thread.thread_id)
        vm.cache.close()
        departed = set(vm.thread_ids())
        for scheduler in self.schedulers:
            for name, pins in scheduler.function_pins.items():
                scheduler.function_pins[name] = [p for p in pins
                                                 if p not in departed]
        self.kvs.background_delete(EXECUTOR_METRICS_PREFIX + vm.vm_id)

    # -- scheduler faults (§4.5) ---------------------------------------------------------
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
        return CloudburstClient(self, client_id, consistency or self.consistency)

    def publish_all_metrics(self) -> None:
        """Have every alive VM publish its load and cache metrics (§4.1).

        On-demand publication, used at construction and by tests; driver
        runs with a control plane publish on a periodic tick instead
        (:meth:`~repro.cloudburst.controlplane.ComputeControlPlane.publish`).
        """
        for vm in self.vms:
            if vm.alive:
                vm.publish_metrics()

    def live_thread_count(self) -> int:
        """Alive threads on alive VMs — the capacity signal every layer shares
        (scheduler placement, the compute autoscaler, the load driver)."""
        return len(self.roster.live)

    def total_invocations(self) -> int:
        return sum(vm.invocation_count() for vm in self.vms)

    def cache_hit_rate(self) -> float:
        hits = sum(vm.cache.stats.hits for vm in self.vms)
        misses = sum(vm.cache.stats.misses for vm in self.vms)
        total = hits + misses
        return hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CloudburstCluster(vms={len(self.vms)}, "
                f"threads={self.live_thread_count()}, "
                f"schedulers={len(self.schedulers)}, "
                f"anna_nodes={self.kvs.node_count()})")
