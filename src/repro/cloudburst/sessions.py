"""DAG sessions (§3, §4.5): the one body every invocation runs in.

* :class:`DagSession` — one execution of a DAG (a single function is the
  one-node case) decomposed into engine events.  It is the only place that
  opens an attempt, dispatches functions at their fork/join ready time,
  retries under §4.5, finalizes the consistency protocol and builds the
  :class:`ExecutionResult`.  ``Scheduler.call_dag`` runs it on the cluster's
  engine; ``Scheduler.call`` runs the same session on a private engine and
  drives it to completion before returning (:meth:`DagSession.drive`).  On
  top of the in-line retry it supports externally injected attempt failures
  (:meth:`DagSession.fail_attempt`, used by the fault plane when an executor
  VM dies mid-DAG) and crash recovery (:meth:`DagSession.recover_from_crash`,
  used by a restarted scheduler): the dead attempt's snapshots and shadow
  reads are released through ``_release_session`` / ``abandon_execution``
  and the whole DAG re-executes, so a scheduler restart leaves **zero**
  abandoned sessions.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..errors import DagExecutionError, ExecutorFailedError, StorageOverloadError
from ..sim import ForkJoin, RequestContext
from .consistency.levels import ConsistencyLevel
from .consistency.protocols import SessionState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scheduler imports us)
    from .dag import Dag
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
    level: str
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
            "level": self.level,
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
        #: Sessions resumed by a scheduler restart (monotonic, survives closes).
        self.recovered_sessions = 0

    # -- transitions appended by the scheduler / its sessions --------------------------
    def open(self, dag_name: str, function_args: Dict[str, Sequence[Any]],
             level: ConsistencyLevel, store_in_kvs: bool, start_ms: float,
             session: "DagSession") -> SessionRecord:
        session_id = f"{self.scheduler_id}/session-{self._sequence}"
        self._sequence += 1
        record = SessionRecord(session_id=session_id, dag_name=dag_name,
                               level=level.name, store_in_kvs=store_in_kvs,
                               start_ms=start_ms,
                               function_args=dict(function_args))
        self._records[session_id] = record
        self._sessions[session_id] = session
        return record

    def begin_attempt(self, record: SessionRecord, execution_id: str,
                      at_ms: float) -> AttemptRecord:
        attempt = AttemptRecord(execution_id=execution_id, started_ms=at_ms)
        record.attempts.append(attempt)
        return attempt

    def record_scheduled(self, record: SessionRecord, name: str) -> None:
        attempt = record.current_attempt()
        if attempt is not None:
            attempt.function_status[name] = FUNCTION_SCHEDULED

    def record_completed(self, record: SessionRecord, name: str,
                         finish_ms: float, thread_id: str, vm_id: str,
                         state: SessionState) -> None:
        attempt = record.current_attempt()
        if attempt is None:
            return
        attempt.function_status[name] = FUNCTION_COMPLETED
        attempt.finish_ms[name] = finish_ms
        attempt.placements[name] = thread_id
        if vm_id not in attempt.vms_used:
            attempt.vms_used.append(vm_id)
        attempt.caches_involved = sorted(state.caches_involved)

    def record_attempt_failure(self, record: SessionRecord, reason: str,
                               status: str = ATTEMPT_FAILED) -> None:
        attempt = record.current_attempt()
        if attempt is not None:
            attempt.status = status
            attempt.failure = reason

    def record_retry(self, record: SessionRecord) -> int:
        record.retries += 1
        return record.retries

    def record_recovery(self, record: SessionRecord) -> None:
        record.recoveries += 1
        self.recovered_sessions += 1

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
    def record_for(self, session_id: str) -> SessionRecord:
        return self._records[session_id]

    def records(self) -> List[SessionRecord]:
        """Every record the journal still holds (see :meth:`close`)."""
        return list(self._records.values())

    def in_flight(self) -> List[SessionRecord]:
        return [self._records[session_id] for session_id in self._sessions]

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
    order virtual time dictates; a session on a private engine
    (:meth:`drive`) fires the same events back to back.  Every status
    transition is appended to the owning scheduler's
    :class:`SessionJournal`; failed attempts release their session state
    (snapshots, shadow reads) *before* anything can resolve the caller's
    future, and a crashed scheduler resumes the session from the journal on
    restart.

    ``use_pins`` is the one input on which the public entry points differ: a
    registered DAG's functions are placed on their pinned threads
    (``call_dag``), a bare function over every live thread (``call``).
    """

    def __init__(self, scheduler: "Scheduler", dag: "Dag",
                 function_args: Dict[str, Sequence[Any]], ctx: RequestContext,
                 start_ms: float, level: ConsistencyLevel, engine,
                 on_complete: Optional[Callable[[ExecutionResult], None]],
                 on_error: Optional[Callable[[Exception], None]] = None,
                 store_in_kvs: bool = False, use_pins: bool = True):
        self.scheduler = scheduler
        self.dag = dag
        self.function_args = function_args
        self.ctx = ctx
        self.start_ms = start_ms
        self.level = level
        self.engine = engine
        self.on_complete = on_complete
        self.on_error = on_error
        self.store_in_kvs = store_in_kvs
        self.use_pins = use_pins
        self.done = False
        self.result: Optional[ExecutionResult] = None
        self.error: Optional[Exception] = None
        #: The request's root span (or None when untraced).  Each §4.5
        #: attempt gets its own child span under it; a superseded attempt is
        #: *linked* from its successor ("retry_of" / "recovered_from"), never
        #: parented — the failed span is finished, not an ancestor.
        self.root_span = ctx.span
        self._attempt_span = None
        self._superseded_span = None
        self._superseded_relation = "retry_of"
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

    def _reset_attempt(self) -> None:
        # Each §4.5 attempt runs under a fresh session state: reusing one
        # across retries would leak the failed attempt's snapshot pins and
        # shadow reads into the retry's (different) execution.
        self.state = SessionState.create(self.level)
        self.protocol = self.scheduler._make_protocol(self.level)
        self.results: Dict[str, Any] = {}
        self.branches: List[RequestContext] = []
        self.remaining = len(self.dag.functions)
        self.fork_join = ForkJoin(base_ms=self.ctx.clock.now_ms)
        self._scheduled: set = set()
        self.scheduler.journal.begin_attempt(self.record, self.state.execution_id,
                                             self.ctx.clock.now_ms)
        if self.root_span is not None:
            span = self.root_span.child(
                f"attempt:{self.dag.name}", "scheduler", self.ctx.clock.now_ms,
                node=self.scheduler.scheduler_id).annotate(
                    "execution_id", self.state.execution_id)
            if self._superseded_span is not None:
                span.link(self._superseded_relation,
                          self._superseded_span.span_id)
            self._attempt_span = span
            # Function dispatches parent their spans under the live attempt.
            self.ctx.span = span

    def start(self) -> None:
        base = self.ctx.clock.now_ms
        for name in self.dag.sources:
            self._schedule(name, base)

    def drive(self) -> ExecutionResult:
        """Fire this session's engine until the session resolves.

        How ``call`` stays in-line (on its private engine), and how code
        outside any engine event waits for a ``call_dag`` session.  Without
        an ``on_error`` a session that exhausts its retries raises out of
        here, as does an application error.  ``step()``, never ``run()``: the
        caller of ``call`` may itself be an event of the cluster's engine,
        and a nested ``run`` would be counted as a second run by anything
        observing it.
        """
        step = self.engine.step
        while not self.done and step():
            pass
        return self.result

    def _schedule(self, name: str, at_ms: float) -> None:
        if name in self._scheduled:
            return
        self._scheduled.add(name)
        self.scheduler.journal.record_scheduled(self.record, name)
        attempt = self.state
        self.engine.at(at_ms, lambda: self._run_function(name, attempt))

    def _run_function(self, name: str, attempt: SessionState) -> None:
        if attempt is not self.state or self.done:
            return  # stale event from an attempt that failed and restarted
        if not self.scheduler.alive:
            # The owning scheduler crashed with this event queued.  The
            # attempt freezes here; recover_from_crash() releases it and
            # re-executes the DAG when the scheduler restarts.
            return
        try:
            value, branch, thread = self.scheduler._dispatch_function(self, name)
        except (ExecutorFailedError, StorageOverloadError) as exc:
            # A dead executor and a saturated storage replica set get the
            # same §4.5 treatment: the attempt fails, the session pays the
            # fault timeout and retries; exhausted retries go to ``on_error``
            # so one overloaded key cannot unwind a whole driver run.
            self._retry(reason=f"{type(exc).__name__}: {exc}")
            return
        except Exception as exc:
            # An application error is not retried: release the attempt and
            # close the session so it does not stay journaled as in flight,
            # then let the error reach the caller.
            self._abandon_attempt(f"{type(exc).__name__}: {exc}")
            self._fail(exc)
            return
        self.results[name] = value
        self.fork_join.complete(name, branch.clock.now_ms)
        self.branches.append(branch)
        self.remaining -= 1
        self.scheduler.journal.record_completed(
            self.record, name, branch.clock.now_ms, thread.thread_id,
            thread.vm.vm_id, self.state)
        for downstream in self.dag.downstream_of(name):
            gates = self.dag.upstream_of(downstream)
            if all(u in self.results for u in gates):
                self._schedule(downstream, self.fork_join.ready_at(gates))
        if self.remaining == 0:
            self._finish()

    # -- failure paths ------------------------------------------------------------------
    def fail_attempt(self, reason: str = "fault injection") -> bool:
        """Fail the current attempt from outside the execution path.

        The fault plane calls this when an executor VM that ran part of this
        attempt dies mid-DAG: the intermediate results cached on that VM are
        gone, so per §4.5 the whole DAG re-executes.  Routed through the same
        retry machinery as an :class:`ExecutorFailedError` raised in-line.
        Returns True when a retry (or terminal failure) was triggered.
        """
        if self.done:
            return False
        if not self.scheduler.alive:
            return False  # the crash-recovery path owns this session
        self._retry(reason=reason)
        return True

    def _retry(self, reason: str = "executor failure") -> None:
        """§4.5: the whole DAG re-executes after a timeout, up to :data:`MAX_RETRIES` times."""
        self._abandon_attempt(reason)
        retries = self.scheduler.journal.record_retry(self.record)
        if retries > MAX_RETRIES:
            self._fail(DagExecutionError(
                f"DAG {self.dag.name!r} failed after {retries} attempts"))
            return
        self._reexecute()

    def recover_from_crash(self) -> None:
        """Resume this session after its owning scheduler restarted.

        The dead attempt is released through the normal
        ``_release_session``/``abandon_execution`` path (snapshots evicted,
        shadow reads dropped) and the DAG re-executes from the journal's
        topology and arguments.  A restart charges the §4.5 fault timeout but
        does *not* burn the retry budget: that budget guards against repeated
        executor failures, and a control-plane restart must not turn every
        in-flight session it recovers into a terminal failure.
        """
        if self.done:
            return
        self._abandon_attempt("scheduler crash", status=ATTEMPT_ABANDONED,
                              relation="recovered_from")
        self.scheduler.journal.record_recovery(self.record)
        # The session's clock froze at the crash; catch up to the engine
        # before charging the fault timeout so the fresh attempt's events
        # land in the engine's future, never its past.
        self.ctx.clock.advance_to(self.engine.now_ms)
        self._reexecute()

    def _abandon_attempt(self, reason: str, status: str = ATTEMPT_FAILED,
                         relation: str = "retry_of") -> None:
        """Release the live attempt, journal why, and finish its span.

        Release comes first: the attempt's snapshots and shadow reads must be
        gone *before* anything can resolve the caller's future — the next
        attempt runs under a fresh execution id, and the tests assert
        ``on_error`` observers never see leaked snapshots.  The next attempt
        links back to the finished span with ``relation``, so the trace shows
        the §4.5 lineage without the failed attempt becoming an ancestor of
        work it never caused.
        """
        self.scheduler._release_session(self.state, self.protocol)
        self.scheduler.journal.record_attempt_failure(self.record, reason, status)
        span = self._attempt_span
        if span is None:
            return
        span.annotate("error", reason)
        span.finish(self.ctx.clock.now_ms)
        self._superseded_span = span
        self._superseded_relation = relation
        self._attempt_span = None
        self.ctx.span = self.root_span

    def _reexecute(self) -> None:
        """Pay the §4.5 timeout and start a fresh attempt of the whole DAG."""
        self.ctx.charge("cloudburst", "fault_timeout",
                        self.scheduler.fault_timeout_ms)
        self._reset_attempt()
        self.engine.at(self.ctx.clock.now_ms, self.start)

    def _fail(self, error: Exception) -> None:
        """Close the session as failed and hand ``error`` to its owner.

        With an ``on_error`` the failure is delivered there and other
        sessions sharing the engine keep running (raising would abort the
        whole run for every concurrent client); a session driven in-line
        raises to its caller.
        """
        self.done = True
        self.error = error
        self.scheduler.journal.close(self.record, SESSION_FAILED)
        if self.on_error is None:
            raise error
        self.on_error(error)

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
        if self.store_in_kvs:
            result_key = f"__cloudburst_results__/{self.state.execution_id}"
            scheduler.kvs.put_plain(result_key, value, ctx)
        else:
            scheduler.latency_model.charge(ctx, "cloudburst", "result_to_client")
        self.protocol.finalize(self.state, scheduler._cache_registry())
        scheduler._complete_anomaly_tracking(self.state)
        self.done = True
        scheduler.journal.close(self.record, SESSION_COMPLETED)
        if self._attempt_span is not None:
            self._attempt_span.finish(ctx.clock.now_ms)
            self._attempt_span = None
            ctx.span = self.root_span
        latency_ms = ctx.clock.now_ms - self.start_ms
        self.result = ExecutionResult(
            value=value, latency_ms=latency_ms,
            execution_id=self.state.execution_id, ctx=ctx,
            retries=self.record.retries, result_key=result_key,
            session=self.state)
        if self.on_complete is not None:
            self.on_complete(self.result)
