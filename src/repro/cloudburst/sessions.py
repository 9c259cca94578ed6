"""DAG sessions (§3, §4.5): the one body every invocation runs in.

* :class:`DagSession` — one execution of a DAG (a single function is the
  one-node case) decomposed into engine events.  It is the only place that
  opens an attempt, dispatches functions at their fork/join ready time (the
  scheduler only picks each function's executor), retries under §4.5, closes
  every attempt by finalizing its consistency protocol and builds the
  :class:`ExecutionResult`.  It owns its invocation's
  :class:`~repro.cloudburst.references.CloudburstFuture` and is the only code
  that resolves it: with the result when the last function finishes, with
  the error when the session fails — no engine event raises an invocation's
  failure.  The future's wait is the session's (:meth:`DagSession.wait`):
  ``Scheduler.call_dag`` runs the session on the cluster's engine, which a
  blocking ``get()`` steps; ``Scheduler.call`` runs it on a private engine
  and waits before returning, so its future is resolved on return.  On
  top of the in-line retry it supports externally injected attempt failures
  (:meth:`DagSession.fail_attempt`, used by the fault plane when an executor
  VM dies mid-DAG) and crash recovery (:meth:`DagSession.recover_from_crash`,
  used by a restarted scheduler): the dead attempt is closed like any other
  (:meth:`DagSession._close_attempt` evicts its snapshots and drops its
  shadow reads) and the whole DAG re-executes, so a scheduler restart leaves
  **zero** abandoned sessions.

* :class:`SessionJournal` — one per scheduler.  Sessions append status
  transitions (attempt started, function scheduled/completed, attempt
  failed, session closed) instead of mutating private state, so at any
  instant the journal describes exactly which DAGs are in flight, which
  functions of the current attempt have run, where they ran and which caches
  hold the attempt's snapshots.  It is bounded by what recovery needs: a
  session that completes on its first attempt is folded into a counter when
  it closes; sessions with a retry, a recovery or a failure keep their full
  record.  ``to_dict`` renders the journal as plain JSON-compatible data —
  the fault bench uploads it as a CI artifact.

The record is a session's only copy of its state, fork/join readiness
included, and its ids are counted (``<scheduler>/session-<n>/attempt-<k>``),
never drawn, so two runs of one seed journal and trace the same ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..errors import DagExecutionError, ExecutorFailedError, StorageOverloadError
from ..sim import Engine, RequestContext
from .consistency.levels import ConsistencyLevel
from .consistency.protocols import ObservingProtocol, SessionState, make_protocol
from .references import CloudburstFuture, extract_references

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scheduler imports us)
    from .dag import Dag
    from .executor import ExecutorThread
    from .scheduler import Scheduler

#: Session lifecycle states recorded in the journal.
SESSION_RUNNING = "running"
SESSION_COMPLETED = "completed"
SESSION_FAILED = "failed"

#: Attempt lifecycle states.  ``abandoned`` marks an attempt whose owning
#: scheduler crashed; its resources are released when the scheduler restarts.
ATTEMPT_IN_FLIGHT = "in_flight"
ATTEMPT_COMPLETED = "completed"
ATTEMPT_FAILED = "failed"
ATTEMPT_ABANDONED = "abandoned"

FUNCTION_SCHEDULED = "scheduled"
FUNCTION_COMPLETED = "completed"

#: §4.5: how many times a DAG re-executes after executor failures before the
#: session fails.
MAX_RETRIES = 2


@dataclass
class ExecutionResult:
    """What a scheduler returns for one invocation (single function or DAG)."""

    value: Any
    latency_ms: float
    execution_id: str
    ctx: RequestContext
    retries: int = 0
    result_key: Optional[str] = None
    session: Optional[SessionState] = None


@dataclass
class AttemptRecord:
    """Journal entry for one §4.5 execution attempt of a DAG session."""

    execution_id: str
    started_ms: float
    status: str = ATTEMPT_IN_FLIGHT
    #: function name -> "scheduled" | "completed" status transitions.
    function_status: Dict[str, str] = field(default_factory=dict)
    #: fork/join completion time of each finished function.
    finish_ms: Dict[str, float] = field(default_factory=dict)
    #: function name -> executor thread it ran on.
    placements: Dict[str, str] = field(default_factory=dict)
    #: VMs whose threads ran (and whose caches hold results of) this attempt.
    vms_used: List[str] = field(default_factory=list)
    #: caches holding this attempt's snapshots / shadow reads.
    caches_involved: List[str] = field(default_factory=list)
    failure: Optional[str] = None

    def uses_vm(self, vm_id: str) -> bool:
        return vm_id in self.vms_used

    def ready_at(self, upstream: Sequence[str]) -> float:
        """The attempt's start joined with ``upstream``'s finish times."""
        return max([self.started_ms, *(self.finish_ms[name] for name in upstream)])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "execution_id": self.execution_id,
            "started_ms": self.started_ms,
            "status": self.status,
            "function_status": dict(self.function_status),
            "finish_ms": dict(self.finish_ms),
            "placements": dict(self.placements),
            "vms_used": list(self.vms_used),
            "caches_involved": list(self.caches_involved),
            "failure": self.failure,
        }


@dataclass
class SessionRecord:
    """Everything the journal knows about one DAG session.

    ``function_args`` is kept on the live record so a restarted scheduler can
    re-execute the DAG; it is summarised (not embedded) in :meth:`to_dict`
    because user arguments are arbitrary Python objects.
    """

    session_id: str
    dag_name: str
    level: ConsistencyLevel
    store_in_kvs: bool
    start_ms: float
    function_args: Dict[str, Sequence[Any]] = field(default_factory=dict)
    retries: int = 0
    recoveries: int = 0
    status: str = SESSION_RUNNING
    attempts: List[AttemptRecord] = field(default_factory=list)

    def current_attempt(self) -> Optional[AttemptRecord]:
        return self.attempts[-1] if self.attempts else None

    def uses_vm(self, vm_id: str) -> bool:
        attempt = self.current_attempt()
        return attempt is not None and attempt.uses_vm(vm_id)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "dag_name": self.dag_name,
            "level": self.level.name,
            "store_in_kvs": self.store_in_kvs,
            "start_ms": self.start_ms,
            "function_arg_counts": {name: len(list(args))
                                    for name, args in self.function_args.items()},
            "retries": self.retries,
            "recoveries": self.recoveries,
            "status": self.status,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
        }


class SessionJournal:
    """Per-scheduler journal of DAG-session status transitions.

    The scheduler and its sessions *append* transitions here instead of
    mutating closure state; recovery after a crash walks
    :meth:`live_sessions`.  The journal intentionally stores only
    reconstructible facts (topology name, args, per-attempt progress and
    resource holdings) — intermediate function results are not durable state,
    because §4.5 recovery re-executes the whole DAG anyway.

    Every invocation is journaled, so the journal checkpoints: a session
    that completes on its first attempt with no recovery has nothing left
    that recovery or a fault post-mortem could need, and :meth:`close` folds
    it into a counter instead of keeping its record.
    """

    def __init__(self, scheduler_id: str):
        self.scheduler_id = scheduler_id
        #: In-flight records, plus closed ones with a retry, recovery or failure.
        self._records: Dict[str, SessionRecord] = {}
        #: session id -> live session object, for in-flight sessions only.
        self._sessions: Dict[str, "DagSession"] = {}
        self._sequence = 0
        self._clean_completions = 0

    # -- transitions appended by the scheduler / its sessions --------------------------
    def open(self, dag_name: str, function_args: Dict[str, Sequence[Any]],
             level: ConsistencyLevel, store_in_kvs: bool, start_ms: float,
             session: "DagSession") -> SessionRecord:
        session_id = f"{self.scheduler_id}/session-{self._sequence}"
        self._sequence += 1
        record = SessionRecord(session_id=session_id, dag_name=dag_name,
                               level=level, store_in_kvs=store_in_kvs,
                               start_ms=start_ms,
                               function_args=dict(function_args))
        self._records[session_id] = record
        self._sessions[session_id] = session
        return record

    def begin_attempt(self, record: SessionRecord, at_ms: float) -> AttemptRecord:
        attempt = AttemptRecord(
            execution_id=f"{record.session_id}/attempt-{len(record.attempts)}",
            started_ms=at_ms)
        record.attempts.append(attempt)
        return attempt

    def record_scheduled(self, record: SessionRecord, name: str) -> None:
        record.attempts[-1].function_status[name] = FUNCTION_SCHEDULED

    def record_completed(self, record: SessionRecord, name: str,
                         finish_ms: float, thread_id: str, vm_id: str,
                         state: SessionState) -> None:
        attempt = record.attempts[-1]
        attempt.function_status[name] = FUNCTION_COMPLETED
        attempt.finish_ms[name] = finish_ms
        attempt.placements[name] = thread_id
        if vm_id not in attempt.vms_used:
            attempt.vms_used.append(vm_id)
        attempt.caches_involved = sorted(state.caches_involved)

    def record_attempt_failure(self, record: SessionRecord, reason: str,
                               status: str, state: SessionState) -> None:
        attempt = record.attempts[-1]
        attempt.status = status
        attempt.failure = reason
        attempt.caches_involved = sorted(state.caches_involved)

    def record_retry(self, record: SessionRecord) -> int:
        record.retries += 1
        return record.retries

    def record_recovery(self, record: SessionRecord) -> None:
        record.recoveries += 1

    def close(self, record: SessionRecord, status: str) -> None:
        record.status = status
        attempt = record.current_attempt()
        if attempt is not None and status == SESSION_COMPLETED:
            attempt.status = ATTEMPT_COMPLETED
        self._sessions.pop(record.session_id, None)
        if (status == SESSION_COMPLETED and not record.retries
                and not record.recoveries):
            del self._records[record.session_id]
            self._clean_completions += 1

    # -- queries -----------------------------------------------------------------------
    @property
    def recovered_sessions(self) -> int:
        """Sessions resumed by a restart (:meth:`close` keeps every such record)."""
        return sum(record.recoveries for record in self._records.values())

    def records(self) -> List[SessionRecord]:
        """Every record the journal still holds (see :meth:`close`)."""
        return list(self._records.values())

    def in_flight_count(self) -> int:
        return len(self._sessions)

    def live_sessions(self) -> List["DagSession"]:
        """Live session objects for every in-flight record (recovery targets)."""
        return list(self._sessions.values())

    def counts(self) -> Dict[str, int]:
        """Totals over every session ever opened, checkpointed ones included."""
        counts = {SESSION_RUNNING: 0, SESSION_COMPLETED: self._clean_completions,
                  SESSION_FAILED: 0}
        for record in self._records.values():
            counts[record.status] = counts.get(record.status, 0) + 1
        counts["recovered"] = self.recovered_sessions
        return counts

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dump of the journal (the CI fault artifact).

        ``counts`` covers every session; ``sessions`` lists the records still
        held — in flight, or closed after a retry, recovery or failure.
        """
        return {
            "scheduler_id": self.scheduler_id,
            "counts": self.counts(),
            "sessions": [record.to_dict() for record in self._records.values()],
        }


class DagSession:
    """One execution of a DAG, decomposed into engine events.

    Each function runs in its own engine event at its fork/join ready time,
    so sessions sharing an engine interleave their cache accesses in the
    order virtual time dictates; a session on a private engine fires the
    same events back to back in :meth:`wait`.  Every status transition is
    appended to the owning scheduler's :class:`SessionJournal`; every attempt
    is closed once (:meth:`_close_attempt`), releasing its session state
    (snapshots, shadow reads) *before* :attr:`future` resolves, and a crashed
    scheduler resumes the session from the journal on restart.  The
    scheduler is asked only where each function runs.

    ``inline`` is the one input on which the public entry points differ.
    ``call`` runs inline: on a private engine, placed over every live
    thread.  ``call_dag`` does not: on the cluster's engine, placed on the
    function's pinned threads.
    """

    def __init__(self, scheduler: "Scheduler", dag: "Dag",
                 function_args: Dict[str, Sequence[Any]], ctx: RequestContext,
                 start_ms: float, level: ConsistencyLevel,
                 store_in_kvs: bool = False, inline: bool = False):
        self.scheduler = scheduler
        self.dag = dag
        self.ctx = ctx
        self.engine = Engine() if inline else scheduler.engine
        self.inline = inline
        #: The invocation's one outcome; only :meth:`_finish` and
        #: :meth:`_fail` resolve it.
        self.future = CloudburstFuture(
            advance=lambda _future, timeout_ms: self.wait(timeout_ms))
        #: The request's span (or None when untraced).  Each §4.5 attempt
        #: opens its own child span under it on ``ctx``, so the live attempt
        #: is ``ctx.span``; a superseded attempt is *linked* from its
        #: successor, never parented — the failed span is finished, not an
        #: ancestor.
        self.root_span = ctx.span
        #: ``(relation, span_id)`` of the attempt the next one supersedes:
        #: "retry_of" or "recovered_from".
        self._superseded: Optional[Tuple[str, int]] = None
        self.record = scheduler.journal.open(
            dag_name=dag.name, function_args=function_args, level=level,
            store_in_kvs=store_in_kvs, start_ms=start_ms, session=self)
        self._reset_attempt()

    @property
    def retries(self) -> int:
        """§4.5 retry count — owned by the journal, not closure state."""
        return self.record.retries

    @property
    def session_id(self) -> str:
        return self.record.session_id

    @property
    def attempt(self) -> AttemptRecord:
        """The live attempt's record: what is scheduled, what finished when."""
        return self.record.attempts[-1]

    def _reset_attempt(self) -> None:
        # Each §4.5 attempt runs under a fresh session state: reusing one
        # across retries would leak the failed attempt's snapshot pins and
        # shadow reads into the retry's (different) execution.
        scheduler = self.scheduler
        attempt = scheduler.journal.begin_attempt(self.record, self.ctx.clock.now_ms)
        protocol = make_protocol(self.record.level)
        if scheduler.anomaly_tracker is not None:
            protocol = ObservingProtocol(protocol, scheduler.anomaly_tracker)
        self.state = SessionState(attempt.execution_id, protocol)
        self.results: Dict[str, Any] = {}
        self.branches: List[RequestContext] = []
        if self.root_span is not None:
            # Function dispatches parent their spans under the live attempt.
            span = self.ctx.open_span(
                f"attempt:{self.dag.name}", "scheduler", scheduler.scheduler_id,
                execution_id=self.state.execution_id)
            if self._superseded is not None:
                span.link(*self._superseded)

    def start(self) -> None:
        for name in self.dag.sources:
            self._schedule(name, self.attempt.started_ms)

    def wait(self, timeout_ms: Optional[float] = None) -> None:
        """Fire this session's engine until :attr:`future` resolves.

        The only loop that blocks on a session: how ``call`` stays in-line
        (on its private engine), and what ``future.get()`` runs for a
        ``call_dag``.  It stops early when no event is left within
        ``timeout_ms``.  ``step()``, never ``run()``: the caller of ``call``
        may itself be an event of the cluster's engine, and a nested ``run``
        would count as a second run.  A ``call_dag`` resolves up to a network
        hop before its request completes on ``ctx``, so the cluster's engine
        then catches up to ``ctx``: a caller that blocks never issues its
        next request before it has received this one.
        """
        engine, future = self.engine, self.future
        if engine.running:
            # A programming error, not a timeout: raising FutureTimeoutError
            # here would let timeout-tolerant callers retry forever.
            raise RuntimeError(
                "cannot block on a future from inside an engine event (the "
                "loop is not reentrant); use future.add_done_callback(...) "
                "instead")
        deadline = None if timeout_ms is None else engine.now_ms + timeout_ms
        while not future.done():
            next_ms = engine.peek_ms()
            if next_ms is None or (deadline is not None and next_ms > deadline):
                return
            engine.step()
        if not self.inline:
            engine.advance_to(self.ctx.clock.now_ms)

    def _schedule(self, name: str, at_ms: float) -> None:
        attempt = self.attempt
        if name in attempt.function_status:
            return
        self.scheduler.journal.record_scheduled(self.record, name)
        self.engine.at(at_ms, lambda: self._run_function(name, attempt))

    def _run_function(self, name: str, attempt: AttemptRecord) -> None:
        if attempt is not self.attempt or self.future.done():
            return  # stale event from an attempt that failed and restarted
        if not self.scheduler.alive:
            # The owning scheduler crashed with this event queued.  The
            # attempt freezes here; recover_from_crash() releases it and
            # re-executes the DAG when the scheduler restarts.
            return
        try:
            value, branch, thread = self._dispatch(name)
        except (ExecutorFailedError, StorageOverloadError) as exc:
            # A dead executor and a saturated storage replica set get the
            # same §4.5 treatment: the attempt fails, the session pays the
            # fault timeout and retries; exhausted retries resolve the future
            # with the error, so one overloaded key cannot unwind a driver run.
            self._retry(reason=f"{type(exc).__name__}: {exc}")
            return
        except Exception as exc:
            # An application error is not retried: close the attempt and
            # the session so it does not stay journaled as in flight, then
            # resolve the future with the error.
            self._close_attempt(f"{type(exc).__name__}: {exc}")
            self._fail(exc)
            return
        self.results[name] = value
        self.branches.append(branch)
        self.scheduler.journal.record_completed(
            self.record, name, branch.clock.now_ms, thread.thread_id,
            thread.vm.vm_id, self.state)
        finished = attempt.finish_ms
        for downstream in self.dag.downstream_of(name):
            gates = self.dag.upstream_of(downstream)
            if all(u in finished for u in gates):
                self._schedule(downstream, attempt.ready_at(gates))
        if len(finished) == len(self.dag.functions):
            self._finish()

    def _dispatch(self, name: str) -> Tuple[Any, RequestContext, "ExecutorThread"]:
        """Place and run function ``name`` at its fork/join ready time.

        Branch timing is read from the journal record: the function forks a
        branch context at the moment its upstream branches finished
        (:meth:`AttemptRecord.ready_at`) and the scheduler picks its executor
        with the utilization it will have *at that moment*, so two siblings
        forked at the same ready time queue against the same executor pool.
        Returns ``(value, branch_context, thread)``; the thread feeds the
        journal's placement record.
        """
        scheduler, ctx, state = self.scheduler, self.ctx, self.state
        charge = scheduler.latency_model.charge
        upstream = self.dag.upstream_of(name)
        ready_ms = self.attempt.ready_at(upstream)
        args = ([self.results[u] for u in upstream]
                + list(self.record.function_args.get(name, ())))
        pinned = None if self.inline else scheduler.pinned_threads(name)
        thread = scheduler.pick_executor(name, args, ready_ms, candidates=pinned)
        # Before the fork: the prefetch stamps its epoch into the context,
        # and the branch must inherit it to pay its own prefetch_wait.
        self._prefetch_references(thread, args, ready_ms)
        branch = ctx.fork(at_ms=ready_ms)
        traced = branch.span is not None
        if traced:
            # One child span per function, started at its fork/join ready
            # time; the executor/cache/storage spans nest under it.
            branch.open_span(f"function:{name}", "scheduler",
                             scheduler.scheduler_id, thread=thread.thread_id)
        if not upstream:
            charge(branch, "cloudburst", "scheduler_to_executor")
        else:
            # Downstream trigger ships the session's consistency metadata.
            charge(branch, "cloudburst", "dag_trigger", size_bytes=state.metadata_bytes())
        if not thread.alive or not thread.vm.alive:
            # Placement filters live threads, so reaching a dead one here is
            # a routing bug; the fault bench gates this counter at zero.
            scheduler.stats.calls_routed_to_dead += 1
        try:
            value = thread.execute(name, args, branch, state)
        except Exception:
            if traced:
                branch.close_span(error=True)
            raise
        if traced:
            branch.close_span()
        return value, branch, thread

    def _prefetch_references(self, thread: "ExecutorThread",
                             args: Sequence[Any], now_ms: float) -> None:
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
        if not self.scheduler.prefetch_references:
            return
        keys = [ref.key for ref in extract_references(args)]
        if keys:
            execution_id = self.state.execution_id
            self.ctx.prefetch_epoch = execution_id
            thread.cache.prefetch(keys, now_ms, epoch=execution_id)

    # -- failure paths ------------------------------------------------------------------
    def fail_attempt(self, reason: str = "fault injection") -> bool:
        """Fail the current attempt from outside the execution path.

        The fault plane calls this when an executor VM that ran part of this
        attempt dies mid-DAG: the intermediate results cached on that VM are
        gone, so per §4.5 the whole DAG re-executes.  Routed through the same
        retry machinery as an :class:`ExecutorFailedError` raised in-line.
        Returns True when a retry (or terminal failure) was triggered.
        """
        if self.future.done():
            return False
        if not self.scheduler.alive:
            return False  # the crash-recovery path owns this session
        self._retry(reason=reason)
        return True

    def _retry(self, reason: str = "executor failure") -> None:
        """§4.5: the whole DAG re-executes after a timeout, up to :data:`MAX_RETRIES` times."""
        self._close_attempt(reason)
        retries = self.scheduler.journal.record_retry(self.record)
        if retries > MAX_RETRIES:
            self._fail(DagExecutionError(
                f"DAG {self.dag.name!r} failed after {retries} attempts"))
            return
        self._reexecute()

    def recover_from_crash(self) -> None:
        """Resume this session after its owning scheduler restarted.

        The dead attempt is closed as abandoned (snapshots evicted, shadow
        reads dropped) and the DAG re-executes from the journal's
        topology and arguments.  A restart charges the §4.5 fault timeout but
        does *not* burn the retry budget: that budget guards against repeated
        executor failures, and a control-plane restart must not turn every
        in-flight session it recovers into a terminal failure.
        """
        if self.future.done():
            return
        self._close_attempt("scheduler crash", status=ATTEMPT_ABANDONED,
                            relation="recovered_from")
        self.scheduler.journal.record_recovery(self.record)
        # The session's clock froze at the crash; catch up to the engine
        # before charging the fault timeout so the fresh attempt's events
        # land in the engine's future, never its past.
        self.ctx.clock.advance_to(self.engine.now_ms)
        self._reexecute()

    def _close_attempt(self, failure: Optional[str] = None,
                       status: str = ATTEMPT_FAILED,
                       relation: str = "retry_of") -> None:
        """The one exit of every attempt: finalize, journal, finish its span.

        No ``failure`` means the attempt completed (and the session with
        it); otherwise it is abandoned with ``status``.  Finalizing comes
        first: the attempt's snapshots and shadow reads must be gone *before*
        anything can resolve the caller's future — the tests assert that the
        future's done-callbacks never see leaked snapshots.  The next attempt
        links back to an abandoned one's finished span with ``relation``, so
        the trace shows the §4.5 lineage without the failed attempt becoming
        an ancestor of work it never caused.
        """
        state, scheduler, ctx = self.state, self.scheduler, self.ctx
        state.protocol.finalize(state, scheduler.cache_registry, failure is None)
        if failure is None:
            scheduler.journal.close(self.record, SESSION_COMPLETED)
        else:
            scheduler.journal.record_attempt_failure(self.record, failure,
                                                     status, state)
        if ctx.span is not self.root_span:
            if failure is not None:
                self._superseded = (relation, ctx.span.span_id)
            ctx.close_span(error=failure)

    def _reexecute(self) -> None:
        """Pay the §4.5 timeout and start a fresh attempt of the whole DAG."""
        self.ctx.charge("cloudburst", "fault_timeout",
                        self.scheduler.fault_timeout_ms)
        self._reset_attempt()
        self.engine.at(self.ctx.clock.now_ms, self.start)

    def _fail(self, error: Exception) -> None:
        """Close the session as failed and resolve the future with ``error``.

        Never a raise: other sessions sharing the engine keep running, and
        ``get()``/``result()`` re-raise the error to whoever waits.
        """
        self.scheduler.journal.close(self.record, SESSION_FAILED)
        self.future._set_exception(error)

    # -- completion ---------------------------------------------------------------------
    def _finish(self) -> None:
        scheduler = self.scheduler
        ctx = self.ctx
        ctx.join(self.branches)
        sinks = self.dag.sinks
        value = (self.results[sinks[0]] if len(sinks) == 1
                 else {sink: self.results[sink] for sink in sinks})
        # Store-to-KVS replaces the result_to_client charge, never adds to it.
        result_key = None
        if self.record.store_in_kvs:
            result_key = f"__cloudburst_results__/{self.state.execution_id}"
            scheduler.kvs.put(result_key, scheduler.kvs.plain(value), ctx)
        else:
            scheduler.latency_model.charge(ctx, "cloudburst", "result_to_client")
        self._close_attempt()
        self.future._set_result(ExecutionResult(
            value=value, latency_ms=ctx.clock.now_ms - self.record.start_ms,
            execution_id=self.state.execution_id, ctx=ctx,
            retries=self.record.retries, result_key=result_key,
            session=self.state))
