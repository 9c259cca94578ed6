"""Function schedulers (§4.3).

Schedulers handle function/DAG registration, invocation requests and
crash/restart.  They make one decision per function, which executor runs it
(:meth:`Scheduler.pick_executor`), from metadata reported by executors:
cached key sets (for data locality) and executor load (for backpressure).
Hot data and functions end up replicated across executors because the
scheduler avoids saturated nodes, and the newly chosen nodes fetch and cache
the hot keys themselves.  Running an invocation is its
:class:`~repro.cloudburst.sessions.DagSession`'s: the session dispatches each
function, retries, and closes every attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from ..errors import FunctionNotFoundError, SchedulingError
from ..lattices import SetLattice
from ..sim import RequestContext
from .consistency.levels import ConsistencyLevel
from .dag import Dag
from .executor import ExecutorThread, FUNCTION_LIST_KEY, function_key
from .journal import SessionJournal
from .sessions import DagSession
from .policy import DEFAULT_PLACEMENT_POLICY, PlacementPolicy

if TYPE_CHECKING:
    from .cluster import CloudburstCluster

#: How long the platform waits before re-executing a DAG whose executor died (§4.5).
DEFAULT_FAULT_TIMEOUT_MS = 5_000.0


@dataclass
class SchedulerStats:
    """Per-scheduler call statistics (stored in the KVS in the paper)."""

    calls_per_function: Dict[str, int] = field(default_factory=dict)
    calls_per_dag: Dict[str, int] = field(default_factory=dict)
    locality_hits: int = 0
    locality_misses: int = 0
    #: Invocations dispatched onto a dead thread or dead VM.  Placement
    #: filters live threads, so anything counted here is a routing bug —
    #: the fault-recovery bench gates this at exactly zero.
    calls_routed_to_dead: int = 0

    def record_function_call(self, name: str) -> None:
        self.calls_per_function[name] = self.calls_per_function.get(name, 0) + 1

    def record_dag_call(self, name: str) -> None:
        self.calls_per_dag[name] = self.calls_per_dag.get(name, 0) + 1


class Scheduler:
    """One Cloudburst scheduler (the system runs several, independently)."""

    def __init__(self, cluster: "CloudburstCluster", scheduler_id: str):
        self.scheduler_id = scheduler_id
        # The shared parts of the deployment, read once from the cluster.
        self.kvs = cluster.kvs
        self.engine = cluster.engine
        self.vms = cluster.vms  # the cluster's roster, not a copy
        self.threads_by_id = cluster.threads_by_id  # ditto, keyed by thread id
        self.roster = cluster.roster  # its live threads and idle pool
        self.dag_registry = cluster.dag_registry
        self.latency_model = cluster.latency_model
        self.rng = cluster.rng.spawn(scheduler_id)
        self.default_consistency = cluster.consistency
        self.fault_timeout_ms = cluster.fault_timeout_ms
        #: ``cache_id -> cache`` for every open cache: the registry the caches
        #: serve upstream fetches through, and where a session's snapshots
        #: are evicted when it finalizes.
        self.cache_registry = cluster.cache_registry
        self.stats = SchedulerStats()
        #: False while crashed (fault injection); in-flight sessions
        #: freeze instead of executing against a dead scheduler and resume
        #: from the journal on :meth:`restart`.
        self.alive = True
        #: Durable per-session status transitions (§4.5 recovery source).
        self.journal = SessionJournal(scheduler_id)
        #: Pluggable placement policy (§4.2-§4.3): how this scheduler turns
        #: published cache/load metadata into an executor choice.  The §4.3
        #: ablation assigns another; see :mod:`repro.cloudburst.policy`.
        self.placement_policy: PlacementPolicy = DEFAULT_PLACEMENT_POLICY
        #: §4.2: at placement time, forward the placed function's
        #: ``CloudburstReference`` keys to the chosen VM's cache so it starts
        #: warming before the invoke arrives.  Policy knob; False disables.
        self.prefetch_references = cluster.prefetch_references
        self.functions: Dict[str, Callable] = {}
        #: function name -> executor thread ids the function is pinned on.
        self.function_pins: Dict[str, List[str]] = {}
        #: function name -> the unregistered one-node DAG :meth:`call` runs.
        self._call_dags: Dict[str, Dag] = {}
        self.anomaly_tracker = cluster.anomaly_tracker

    # -- lifecycle: crash / restart (§4.5 fault injection) ------------------------------
    def crash(self) -> None:
        """Kill this scheduler (fault injection).

        In-flight engine sessions freeze: their queued events return without
        executing, and clients stop routing new work here.  The sessions stay
        journaled, so :meth:`restart` can recover every one of them.
        """
        self.alive = False

    def restart(self) -> int:
        """Bring a crashed scheduler back and recover its in-flight DAGs.

        Each session closes its dead attempt as abandoned (snapshots evicted,
        shadow reads dropped) and the DAG re-executes (§4.5 at-least-once).
        Sessions the journal already saw complete are *not* resumed —
        re-running them would double-apply their sink writes.  Returns the
        number of sessions resumed from the journal.
        """
        self.alive = True
        sessions = self.journal.live_sessions()
        for session in sessions:
            session.recover_from_crash()
        return len(sessions)

    # -- registration (§4.3 "Scheduling Mechanisms") -----------------------------------
    def register_function(self, func: Callable, name: Optional[str] = None) -> str:
        """Store a function in Anna and add it to the registered-function list.

        Re-registering an existing name *overwrites* it everywhere the old
        body could still be served from: Anna (the source of truth new
        executors fetch from) and every executor thread that already pinned
        the previous body — otherwise a stale pinned copy would keep running
        on exactly the threads the name is routed to.  Registration is
        background traffic: its Anna writes are uncharged.
        """
        name = name or func.__name__
        self.functions[name] = func
        self.kvs.background_put(function_key(name), self.kvs.plain(func))
        self.kvs.background_put(FUNCTION_LIST_KEY, SetLattice({name}))
        for vm in self.vms:
            for thread in vm.threads:
                if thread.has_function(name):
                    thread.pin_function(name, func)
        return name

    def register_dag(self, dag: Dag, replicas_per_function: int = 1) -> None:
        """Verify the DAG's functions exist, pin them on executors, persist it."""
        for name in dag.functions:
            if not self.kvs.contains(function_key(name)):
                raise FunctionNotFoundError(name)
        self.dag_registry.register(dag)
        for name in dag.functions:
            self.pin_function(name, replicas=replicas_per_function)
        # DAG topologies are the scheduler's only persistent metadata (§4.3).
        topology = {
            "name": dag.name,
            "functions": list(dag.functions),
            "edges": [(edge.source, edge.target) for edge in dag.edges],
        }
        self.kvs.background_put(f"__cloudburst_dags__/{dag.name}",
                                self.kvs.plain(topology))

    def delete_dag(self, name: str) -> bool:
        """Remove a registered DAG (paper Table 1 ``delete_dag``).

        Later ``call_dag`` invocations of the name raise
        :class:`~repro.errors.DagDeletedError`.  The functions stay registered
        and pinned — other DAGs may share them.  Returns True if this call
        removed the DAG (False when it was already deleted); a name that was
        never registered raises :class:`~repro.errors.DagNotFoundError`.
        """
        removed = self.dag_registry.unregister(name)
        if removed:
            self.kvs.background_delete(f"__cloudburst_dags__/{name}")
        return removed

    def pin_function(self, name: str, replicas: int = 1) -> List[str]:
        """Cache ``name`` on ``replicas`` executor threads (monitoring adds more)."""
        pins = self.function_pins.setdefault(name, [])
        live_threads = self._live_threads()
        if not live_threads:
            raise SchedulingError("no live executors to pin functions on")
        candidates = self.rng.shuffle(
            [t for t in live_threads if t.thread_id not in pins])
        needed = max(0, replicas - len(pins))
        for thread in candidates[:needed]:
            thread.pin_function(name, self.functions.get(name))
            pins.append(thread.thread_id)
        # Ensure at least one pin exists even if every thread was already pinned
        # for some other caller (or replicas == 0 was requested).
        if not pins:
            thread = self.rng.choice(live_threads)
            thread.pin_function(name, self.functions.get(name))
            pins.append(thread.thread_id)
        return list(pins)

    def pinned_threads(self, name: str) -> List[ExecutorThread]:
        """The live threads ``name`` is pinned on, in pin order."""
        pinned = []
        for thread_id in self.function_pins.get(name, ()):
            thread = self.threads_by_id.get(thread_id)
            if thread is not None and thread.alive and thread.vm.alive:
                pinned.append(thread)
        return pinned

    # -- invocation (§3: a request is a DAG; one function is the one-node case) ------------
    def call(self, function_name: str, args: Sequence[Any] = (),
             consistency: Optional[ConsistencyLevel] = None,
             store_in_kvs: bool = False, *,
             ctx: RequestContext) -> DagSession:
        """Schedule and execute a single function invocation; returns its session.

        A bare call executes in the caller's request context: it runs as a
        one-function session on a private engine, which the session's wait
        fires before this returns (the caller may itself be an event of the
        cluster's engine, which cannot be re-entered), so ``session.future``
        is resolved.  Unlike a registered DAG's functions it is placed over
        every live thread, not only its pins.
        """
        dag = self._call_dags.get(function_name)
        if dag is None:
            dag = self._call_dags[function_name] = Dag(function_name, [function_name])
        session = self._open_session(dag, {function_name: args}, consistency,
                                     store_in_kvs, ctx, inline=True)
        self.stats.record_function_call(function_name)
        session.wait()
        return session

    def call_dag(self, dag_name: str, function_args: Optional[Dict[str, Sequence[Any]]] = None,
                 consistency: Optional[ConsistencyLevel] = None,
                 store_in_kvs: bool = False, *,
                 ctx: RequestContext) -> DagSession:
        """Schedule a registered DAG; returns its (pending) session.

        ``function_args`` supplies extra arguments per function; results of
        upstream functions are automatically prepended to downstream argument
        lists (§3).

        Every execution is a :class:`~repro.cloudburst.sessions.DagSession`:
        each function is an event on the cluster's engine, fired at its
        fork/join ready time, so concurrent sessions genuinely interleave.
        The outcome resolves ``session.future``: subscribe with
        ``add_done_callback``, or block outside any engine event with
        ``get()``/``result()``.
        """
        session = self._open_session(self.dag_registry.get(dag_name),
                                     function_args or {}, consistency,
                                     store_in_kvs, ctx)
        self.stats.record_dag_call(dag_name)
        return session

    def _open_session(self, dag: Dag, function_args: Dict[str, Sequence[Any]],
                      consistency: Optional[ConsistencyLevel], store_in_kvs: bool,
                      ctx: RequestContext, inline: bool = False) -> DagSession:
        """Charge the client→scheduler hop and start a journaled session.

        The one entry every invocation takes.  The session is journaled
        (:class:`SessionJournal`) before any of its functions is enqueued, so
        a scheduler that crashes and restarts resumes the in-flight ones.
        """
        if not self.alive:
            raise SchedulingError(f"scheduler {self.scheduler_id!r} is down")
        start_ms = ctx.clock.now_ms
        self.latency_model.charge(ctx, "cloudburst", "client_to_scheduler")
        self.latency_model.charge(ctx, "cloudburst", "schedule")
        if ctx.span is not None:
            ctx.record_span("schedule", "scheduler", start_ms,
                            node=self.scheduler_id)
        session = DagSession(self, dag, function_args, ctx, start_ms,
                             consistency or self.default_consistency,
                             store_in_kvs=store_in_kvs, inline=inline)
        session.start()
        return session

    # -- scheduling policy (§4.3 "Scheduling Policy") ---------------------------------------
    def pick_executor(self, function_name: str, args: Sequence[Any],
                      now_ms: float,
                      candidates: Optional[List[ExecutorThread]] = None
                      ) -> ExecutorThread:
        """The one decision per function: live ``candidates`` (else every live
        thread) handed to the placement policy at ``now_ms``."""
        threads = [t for t in candidates or () if t.alive and t.vm.alive]
        restricted = bool(threads)
        if not restricted:
            # Any live executor (also when every pinned replica died).
            threads = self._live_threads()
        if not threads:
            raise SchedulingError("no live executors available")
        return self.placement_policy.pick(self, threads, function_name, args,
                                          restricted, now_ms)

    # -- helpers ----------------------------------------------------------------------------
    def _live_threads(self) -> List[ExecutorThread]:
        """The roster's own list of live threads, in roster order (read only)."""
        return self.roster.live
