"""Function schedulers (§4.3).

Schedulers handle function/DAG registration and invocation requests.  They
make heuristic placement decisions from metadata reported by executors:
cached key sets (for data locality) and executor load (for backpressure).
Hot data and functions end up replicated across executors because the
scheduler avoids saturated nodes, and the newly chosen nodes fetch and cache
the hot keys themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..anna import AnnaCluster
from ..errors import FunctionNotFoundError, SchedulingError
from ..lattices import SetLattice
from ..sim import Engine, LatencyModel, RandomSource, RequestContext, SimClock
from .consistency.levels import ConsistencyLevel
from .consistency.protocols import ObservingProtocol, SessionState, make_protocol
from .dag import Dag, DagRegistry
from .cache import ExecutorCache
from .executor import ExecutorThread, ExecutorVM, FUNCTION_LIST_KEY, function_key
from .references import extract_references
from .sessions import DagSession, ExecutionResult, SessionJournal
from .policy import DEFAULT_PLACEMENT_POLICY, PlacementPolicy

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

    def __init__(self, scheduler_id: str, kvs: AnnaCluster, vms: List[ExecutorVM],
                 dag_registry: Optional[DagRegistry] = None,
                 latency_model: Optional[LatencyModel] = None,
                 rng: Optional[RandomSource] = None,
                 default_consistency: ConsistencyLevel = ConsistencyLevel.LWW,
                 fault_timeout_ms: float = DEFAULT_FAULT_TIMEOUT_MS,
                 anomaly_tracker=None,
                 prefetch_references: bool = True):
        self.scheduler_id = scheduler_id
        self.kvs = kvs
        #: The cluster's discrete-event engine (the one the KVS lives on).
        self.engine = kvs.engine
        self.vms = vms  # shared, mutable list owned by the cluster
        self.dag_registry = dag_registry or DagRegistry()
        self.latency_model = latency_model or kvs.latency_model
        self.rng = rng or RandomSource(23)
        self.default_consistency = default_consistency
        self.fault_timeout_ms = fault_timeout_ms
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
        self.prefetch_references = prefetch_references
        self.functions: Dict[str, Callable] = {}
        #: function name -> executor thread ids the function is pinned on.
        self.function_pins: Dict[str, List[str]] = {}
        #: function name -> the unregistered one-node DAG :meth:`call` runs.
        self._call_dags: Dict[str, Dag] = {}
        self.anomaly_tracker = anomaly_tracker

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

        Returns the number of sessions resumed from the journal.
        """
        self.alive = True
        return self.recover_sessions()

    def recover_sessions(self) -> int:
        """Resume every in-flight DAG session recorded in the journal.

        Each dead attempt's snapshots and shadow reads are released through
        the normal ``_release_session``/``abandon_execution`` path and the
        DAG re-executes (§4.5 at-least-once).  Sessions the journal already
        saw complete are *not* resumed — re-running them would double-apply
        their sink writes.
        """
        resumed = 0
        for session in self.journal.live_sessions():
            session.recover_from_crash()
            resumed += 1
        return resumed

    # -- registration (§4.3 "Scheduling Mechanisms") -----------------------------------
    def register_function(self, func: Callable, name: Optional[str] = None,
                          ctx: Optional[RequestContext] = None) -> str:
        """Store a function in Anna and add it to the registered-function list.

        Re-registering an existing name *overwrites* it everywhere the old
        body could still be served from: Anna (the source of truth new
        executors fetch from) and every executor thread that already pinned
        the previous body — otherwise a stale pinned copy would keep running
        on exactly the threads the name is routed to.
        """
        name = name or func.__name__
        self.functions[name] = func
        self.kvs.put_plain(function_key(name), func, ctx)
        self.kvs.put(FUNCTION_LIST_KEY, SetLattice({name}), ctx)
        for vm in self.vms:
            for thread in vm.threads:
                if thread.has_function(name):
                    thread.pin_function(name, func, ctx)
        return name

    def register_dag(self, dag: Dag, ctx: Optional[RequestContext] = None,
                     replicas_per_function: int = 1) -> None:
        """Verify the DAG's functions exist, pin them on executors, persist it."""
        for name in dag.functions:
            if not self.kvs.contains(function_key(name)):
                raise FunctionNotFoundError(name)
        self.dag_registry.register(dag)
        for name in dag.functions:
            self.pin_function(name, replicas=replicas_per_function, ctx=ctx)
        # DAG topologies are the scheduler's only persistent metadata (§4.3).
        topology = {
            "name": dag.name,
            "functions": list(dag.functions),
            "edges": [(edge.source, edge.target) for edge in dag.edges],
        }
        self.kvs.put_plain(f"__cloudburst_dags__/{dag.name}", topology, ctx)

    def delete_dag(self, name: str, ctx: Optional[RequestContext] = None) -> bool:
        """Remove a registered DAG (paper Table 1 ``delete_dag``).

        Later ``call_dag`` invocations of the name raise
        :class:`~repro.errors.DagDeletedError`.  The functions stay registered
        and pinned — other DAGs may share them.  Returns True if this call
        removed the DAG (False when it was already deleted); a name that was
        never registered raises :class:`~repro.errors.DagNotFoundError`.
        """
        removed = self.dag_registry.unregister(name)
        if removed:
            self.kvs.delete(f"__cloudburst_dags__/{name}", ctx)
        return removed

    def pin_function(self, name: str, replicas: int = 1,
                     ctx: Optional[RequestContext] = None) -> List[str]:
        """Cache ``name`` on ``replicas`` executor threads (monitoring adds more)."""
        pins = self.function_pins.setdefault(name, [])
        live_threads = self._live_threads()
        if not live_threads:
            raise SchedulingError("no live executors to pin functions on")
        candidates = self.rng.shuffle(
            [t for t in live_threads if t.thread_id not in pins])
        needed = max(0, replicas - len(pins))
        for thread in candidates[:needed]:
            thread.pin_function(name, self.functions.get(name), ctx)
            pins.append(thread.thread_id)
        # Ensure at least one pin exists even if every thread was already pinned
        # for some other caller (or replicas == 0 was requested).
        if not pins:
            thread = self.rng.choice(live_threads)
            thread.pin_function(name, self.functions.get(name), ctx)
            pins.append(thread.thread_id)
        return list(pins)

    def pinned_threads(self, name: str) -> List[ExecutorThread]:
        """The live threads ``name`` is pinned on, in pin order."""
        pins = self.function_pins.get(name)
        if not pins:
            return []
        wanted = set(pins)
        live = {thread.thread_id: thread for thread in self._live_threads()
                if thread.thread_id in wanted}
        return [live[tid] for tid in pins if tid in live]

    # -- invocation (§3: a request is a DAG; one function is the one-node case) ------------
    def call(self, function_name: str, args: Sequence[Any] = (),
             consistency: Optional[ConsistencyLevel] = None,
             store_in_kvs: bool = False,
             ctx: Optional[RequestContext] = None) -> ExecutionResult:
        """Schedule and execute a single function invocation.

        A bare call executes in the caller's request context: it runs as a
        one-function session on a private engine, driven to completion
        before this returns (the caller may itself be an event of the
        cluster's engine, which cannot be re-entered).  Unlike a registered
        DAG's functions it is placed over every live thread, not only its
        pins.
        """
        dag = self._call_dags.get(function_name)
        if dag is None:
            dag = self._call_dags[function_name] = Dag(function_name, [function_name])
        session = self._open_session(dag, {function_name: args}, consistency,
                                     store_in_kvs, ctx, Engine(), use_pins=False)
        self.stats.record_function_call(function_name)
        return session.drive()

    def call_dag(self, dag_name: str, function_args: Optional[Dict[str, Sequence[Any]]] = None,
                 consistency: Optional[ConsistencyLevel] = None,
                 store_in_kvs: bool = False,
                 ctx: Optional[RequestContext] = None,
                 on_complete: Optional[Callable[[ExecutionResult], None]] = None,
                 on_error: Optional[Callable[[Exception], None]] = None) -> DagSession:
        """Schedule a registered DAG; returns its (pending) session.

        ``function_args`` supplies extra arguments per function; results of
        upstream functions are automatically prepended to downstream argument
        lists (§3).

        Every execution is a :class:`~repro.cloudburst.sessions.DagSession`:
        each function is an event on the cluster's engine, fired at its
        fork/join ready time, so concurrent sessions genuinely interleave.
        Completion is delivered to ``on_complete``/``on_error``; outside an
        engine event, ``session.drive()`` fires the engine until the session
        resolves.
        """
        session = self._open_session(self.dag_registry.get(dag_name),
                                     function_args or {}, consistency,
                                     store_in_kvs, ctx, self.engine,
                                     on_complete, on_error)
        self.dag_registry.record_call(dag_name)
        self.stats.record_dag_call(dag_name)
        return session

    def _open_session(self, dag: Dag, function_args: Dict[str, Sequence[Any]],
                      consistency: Optional[ConsistencyLevel], store_in_kvs: bool,
                      ctx: Optional[RequestContext], engine: Engine,
                      on_complete: Optional[Callable[[ExecutionResult], None]] = None,
                      on_error: Optional[Callable[[Exception], None]] = None,
                      use_pins: bool = True) -> DagSession:
        """Charge the client→scheduler hop and start a journaled session.

        The one entry every invocation takes.  The session is journaled
        (:class:`SessionJournal`) before any of its functions is enqueued, so
        a scheduler that crashes and restarts resumes the in-flight ones.
        """
        if not self.alive:
            raise SchedulingError(f"scheduler {self.scheduler_id!r} is down")
        ctx = ctx or RequestContext(clock=SimClock(self.engine.now_ms))
        start_ms = ctx.clock.now_ms
        self.latency_model.charge(ctx, "cloudburst", "client_to_scheduler")
        self.latency_model.charge(ctx, "cloudburst", "schedule")
        if ctx.span is not None:
            ctx.span.child("schedule", "scheduler", start_ms,
                           node=self.scheduler_id).finish(ctx.clock.now_ms)
        session = DagSession(self, dag, function_args, ctx, start_ms,
                             consistency or self.default_consistency, engine,
                             on_complete, on_error, store_in_kvs=store_in_kvs,
                             use_pins=use_pins)
        session.start()
        return session

    def _dispatch_function(self, session: DagSession, name: str
                           ) -> Tuple[Any, RequestContext, ExecutorThread]:
        """Place and run one function of ``session`` at its fork/join ready time.

        Branch timing rides on the engine's :class:`~repro.sim.engine.ForkJoin`
        primitive: the function forks a branch context at the moment its
        upstream branches finish and its executor is picked with the
        utilization it will have *at that moment*, so two siblings forked at
        the same ready time queue against the same executor pool.  Returns
        ``(value, branch_context, thread)``; the thread feeds the session
        journal's placement record.
        """
        dag, ctx, state = session.dag, session.ctx, session.state
        upstream = dag.upstream_of(name)
        ready_ms = session.fork_join.ready_at(upstream)
        args = ([session.results[u] for u in upstream]
                + list(session.function_args.get(name, ())))
        pinned = self.pinned_threads(name) if session.use_pins else None
        thread = self._pick_executor(name, args, ready_ms, candidates=pinned)
        # Before the fork: the prefetch stamps its epoch into ctx.metadata,
        # and the branch must inherit it to pay its own prefetch_wait.
        self._prefetch_placed_references(thread, args, ready_ms, ctx, state)
        branch = RequestContext(clock=SimClock(ready_ms),
                                metadata=dict(ctx.metadata),
                                record_charges=ctx.record_charges)
        function_span = None
        if ctx.span is not None:
            # One child span per function, started at its fork/join ready
            # time; the executor/cache/storage spans nest under it via the
            # branch context.
            function_span = ctx.span.child(
                f"function:{name}", "scheduler", ready_ms,
                node=self.scheduler_id).annotate("thread", thread.thread_id)
            branch.span = function_span
        if not upstream:
            self.latency_model.charge(branch, "cloudburst", "scheduler_to_executor")
        else:
            # Downstream trigger ships the session's consistency metadata.
            self.latency_model.charge(branch, "cloudburst", "dag_trigger",
                                      size_bytes=state.metadata_bytes())
        try:
            value = self._run_on_thread(thread, name, args, branch, state,
                                        session.protocol)
        except Exception:
            if function_span is not None:
                function_span.annotate("error", True)
                function_span.finish(branch.clock.now_ms)
            raise
        if function_span is not None:
            function_span.finish(branch.clock.now_ms)
        return value, branch, thread

    def _prefetch_placed_references(self, thread: ExecutorThread,
                                    args: Sequence[Any], now_ms: float,
                                    ctx: RequestContext,
                                    state: SessionState) -> None:
        """Ship a placed function's reference keys ahead to its VM's cache.

        The paper's schedulers forward DAG reference metadata with the
        placement decision so the target cache fetches asynchronously and the
        invoke — one executor hop later — finds warm entries (§4.2).  The
        prefetch is background traffic: it charges nothing to this request
        and draws no RNG, so disabling the knob changes no charge stream.

        The execution id is stamped into the request context (and so into
        every branch forked from it) as the prefetch *epoch*: only reads by
        this execution — whose clock the readiness timestamps live on — pay
        the residual ``prefetch_wait``; later executions see landed entries.
        """
        if not self.prefetch_references:
            return
        keys = [ref.key for ref in extract_references(args)]
        if keys:
            ctx.metadata[ExecutorCache.PREFETCH_EPOCH_KEY] = state.execution_id
            thread.cache.prefetch(keys, now_ms, epoch=state.execution_id)

    def _run_on_thread(self, thread: ExecutorThread, function_name: str,
                       args: Sequence[Any], ctx: RequestContext,
                       state: SessionState, protocol) -> Any:
        if not thread.alive or not thread.vm.alive:
            # Placement filters live threads, so reaching a dead one here is
            # a routing bug; the fault bench gates this counter at zero.
            self.stats.calls_routed_to_dead += 1
        return thread.execute(function_name, args, ctx, state, protocol)

    # -- scheduling policy (§4.3 "Scheduling Policy") ---------------------------------------
    def _pick_executor(self, function_name: str, args: Sequence[Any],
                       now_ms: float,
                       candidates: Optional[List[ExecutorThread]] = None
                       ) -> ExecutorThread:
        """Filter candidates to live threads, then defer to the placement policy."""
        restricted = bool(candidates)
        threads = candidates if candidates else self._live_threads()
        threads = [t for t in threads if t.alive and t.vm.alive]
        if not threads:
            # Fall back to any live executor (e.g. all pinned replicas died).
            threads = self._live_threads()
            restricted = False
        if not threads:
            raise SchedulingError("no live executors available")
        return self.placement_policy.pick(self, threads, function_name, args,
                                          restricted, now_ms)

    # -- helpers ----------------------------------------------------------------------------
    def _live_threads(self) -> List[ExecutorThread]:
        return [thread for vm in self.vms if vm.alive
                for thread in vm.threads if thread.alive]

    def _cache_registry(self) -> Dict[str, Any]:
        return {vm.cache.cache_id: vm.cache for vm in self.vms}

    def _make_protocol(self, level: ConsistencyLevel):
        protocol = make_protocol(level)
        if self.anomaly_tracker is not None:
            protocol = ObservingProtocol(protocol, self.anomaly_tracker)
        return protocol

    def _complete_anomaly_tracking(self, state: SessionState) -> None:
        if self.anomaly_tracker is not None:
            self.anomaly_tracker.complete_execution(state.execution_id)

    def _release_session(self, state: SessionState, protocol) -> None:
        """Release an abandoned attempt's snapshots and shadow bookkeeping."""
        protocol.finalize(state, self._cache_registry())
        if self.anomaly_tracker is not None:
            self.anomaly_tracker.abandon_execution(state.execution_id)
