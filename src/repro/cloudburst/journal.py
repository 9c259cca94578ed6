"""The §4.5 session vocabulary, and the one function that decides each step.

A DAG session's state is its :class:`SessionRecord`: topology name,
arguments, and one :class:`AttemptRecord` per execution attempt (what is
scheduled, what finished when and where, which caches hold its snapshots).
Only :func:`advance` writes a record: it takes the record, the DAG and one
*event*, and returns the *effects* the caller carries out, in order.  Both
are plain tuples named by their first item.  Events:

* ``("begin", at_ms)`` — open the next attempt, started at ``at_ms``;
* ``("start",)`` — dispatch the live attempt's sources;
* ``("done", execution_id, name, finish_ms, thread_id, vm_id, caches)``;
* ``("fail", execution_id, reason, error, caches)`` — ``error`` is None (an
  injected executor failure) or the exception raised.  A dead executor or a
  saturated storage replica set is retried while the budget lasts; any
  other error fails the session;
* ``("crash", caches)`` — the owning scheduler restarted after a crash.

Effects: ``("run", name, at_ms)`` dispatches a function at its fork/join
ready time; ``("close", failure, relation)`` closes the live attempt —
completed when ``failure`` is None, else superseded with ``relation``
("retry_of" or "recovered_from"); ``("catch_up",)`` brings the session's
clock up to the engine's; ``("retry",)`` pays the §4.5 timeout and begins a
fresh attempt; ``("resolve", error)`` resolves the invocation, with its
result when ``error`` is None.  Nothing follows a ``resolve``.

An event that names a closed attempt, or reaches a closed session, is stale:
it changes nothing and yields no effect.  Ids are counted, never drawn
(``<scheduler>/session-<n>/attempt-<k>``), so two runs of one seed journal
and trace the same ids.  Nothing here runs an engine: tests drive sessions
through this module alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..errors import DagExecutionError, ExecutorFailedError, StorageOverloadError
from .consistency.levels import ConsistencyLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dag import Dag

#: Session lifecycle states.
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
class AttemptRecord:
    """One §4.5 execution attempt of a DAG session."""

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

    def ready_at(self, upstream: Sequence[str]) -> float:
        """The attempt's start joined with ``upstream``'s finish times."""
        return max([self.started_ms, *(self.finish_ms[name] for name in upstream)])

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


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
        return bool(self.attempts) and vm_id in self.attempts[-1].vms_used

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


def advance(record: SessionRecord, dag: "Dag", event: tuple) -> List[tuple]:
    """Apply one event to ``record``; return the effects, in order.

    The only writer of a record, and the only place that decides a §4.5
    step: fork/join readiness, the retry budget, when the session closes.
    A crash recovery spends no retry: the budget guards against repeated
    executor failures, not against control-plane restarts.
    """
    if record.status != SESSION_RUNNING:
        return []
    kind, attempt = event[0], record.current_attempt()
    if kind == "begin":
        if attempt is None or attempt.status != ATTEMPT_IN_FLIGHT:
            record.attempts.append(AttemptRecord(
                f"{record.session_id}/attempt-{len(record.attempts)}", event[1]))
        return []
    if attempt is None or attempt.status != ATTEMPT_IN_FLIGHT:
        return []
    if kind == "start":
        return [_run(attempt, name, ()) for name in dag.sources
                if name not in attempt.function_status]
    if kind == "crash":
        attempt.status, attempt.failure = ATTEMPT_ABANDONED, "scheduler crash"
        attempt.caches_involved = sorted(event[1])
        record.recoveries += 1
        return [("close", attempt.failure, "recovered_from"), ("catch_up",), ("retry",)]
    if event[1] != attempt.execution_id:
        return []
    if kind == "fail":
        _, _, reason, error, caches = event
        attempt.status, attempt.failure = ATTEMPT_FAILED, reason
        attempt.caches_involved = sorted(caches)
        if error is None or isinstance(error, (ExecutorFailedError, StorageOverloadError)):
            record.retries += 1
            if record.retries <= MAX_RETRIES:
                return [("close", reason, "retry_of"), ("retry",)]
            error = DagExecutionError(
                f"DAG {record.dag_name!r} failed after {record.retries} attempts")
        record.status = SESSION_FAILED
        return [("close", reason, "retry_of"), ("resolve", error)]
    _, _, name, finish_ms, thread_id, vm_id, caches = event  # "done"
    if attempt.function_status.get(name) != FUNCTION_SCHEDULED:
        return []
    attempt.function_status[name] = FUNCTION_COMPLETED
    attempt.finish_ms[name] = finish_ms
    attempt.placements[name] = thread_id
    if vm_id not in attempt.vms_used:
        attempt.vms_used.append(vm_id)
    attempt.caches_involved = sorted(caches)
    effects = []
    for downstream in dag.downstream_of(name):
        gates = dag.upstream_of(downstream)
        if (downstream not in attempt.function_status
                and all(u in attempt.finish_ms for u in gates)):
            effects.append(_run(attempt, downstream, gates))
    if len(attempt.finish_ms) == len(dag.functions):
        attempt.status, record.status = ATTEMPT_COMPLETED, SESSION_COMPLETED
        effects += [("close", None, None), ("resolve", None)]
    return effects


def _run(attempt: AttemptRecord, name: str, upstream: Sequence[str]) -> tuple:
    """Mark ``name`` scheduled; dispatch it once ``upstream`` has finished."""
    attempt.function_status[name] = FUNCTION_SCHEDULED
    return ("run", name, attempt.ready_at(upstream))


class SessionJournal:
    """Per-scheduler journal of DAG sessions: which DAGs are in flight, and
    for each its record (recovery after a crash walks :meth:`live_sessions`).

    It stores only reconstructible facts: intermediate function results are
    not durable state, because §4.5 recovery re-executes the whole DAG
    anyway.  A session that completes on its first attempt has nothing left
    that recovery or a fault post-mortem could need, so :meth:`apply` folds
    it into a counter instead of keeping its record.  ``to_dict`` is the
    JSON-compatible dump the fault bench uploads as a CI artifact.
    """

    def __init__(self, scheduler_id: str):
        self.scheduler_id = scheduler_id
        #: In-flight records, plus closed ones with a retry, recovery or failure.
        self._records: Dict[str, SessionRecord] = {}
        #: session id -> live session object, for in-flight sessions only.
        self._sessions: Dict[str, Any] = {}
        self._sequence = 0
        self._clean_completions = 0

    def open(self, dag_name: str, function_args: Dict[str, Sequence[Any]],
             level: ConsistencyLevel, store_in_kvs: bool, start_ms: float,
             session: Any) -> SessionRecord:
        session_id = f"{self.scheduler_id}/session-{self._sequence}"
        self._sequence += 1
        record = SessionRecord(session_id=session_id, dag_name=dag_name,
                               level=level, store_in_kvs=store_in_kvs,
                               start_ms=start_ms,
                               function_args=dict(function_args))
        self._records[session_id] = record
        self._sessions[session_id] = session
        return record

    def apply(self, record: SessionRecord, dag: "Dag", event: tuple) -> List[tuple]:
        """Write ``event`` to ``record`` through :func:`advance`; return its effects.

        The one door every transition takes before any of its effects is
        carried out, so a journal in durable storage writes the event here.
        A record that leaves ``running`` leaves the live set.
        """
        effects = advance(record, dag, event)
        if record.status != SESSION_RUNNING and record.session_id in self._sessions:
            del self._sessions[record.session_id]
            if record.status == SESSION_COMPLETED and len(record.attempts) == 1:
                del self._records[record.session_id]
                self._clean_completions += 1
        return effects

    # -- queries -----------------------------------------------------------------------
    @property
    def recovered_sessions(self) -> int:
        """Crash recoveries over the records held (:meth:`apply` keeps each
        one with a recovery): a session recovered twice counts twice."""
        return sum(record.recoveries for record in self._records.values())

    def records(self) -> List[SessionRecord]:
        """Every record the journal still holds (see :meth:`apply`)."""
        return list(self._records.values())

    def in_flight_count(self) -> int:
        return len(self._sessions)

    def live_sessions(self) -> List[Any]:
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
