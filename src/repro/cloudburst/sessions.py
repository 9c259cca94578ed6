"""DAG sessions (§3, §4.5): the one body every invocation runs in.

:class:`DagSession` is one execution of a DAG (a single function is the
one-node case) decomposed into engine events, and the shell around
:func:`~repro.cloudburst.journal.advance`: each step — an attempt begun, its
sources started, a function done or failed, a crash recovered — is an event
journaled in its scheduler's :class:`~repro.cloudburst.journal.SessionJournal`,
and the session carries out the effects the journal returns, in order.  The
record decides; the session dispatches (the scheduler only picks each
function's executor), closes attempts, re-executes and resolves its
:class:`~repro.cloudburst.references.CloudburstFuture` — with the result, or
with the error: no engine event raises an invocation's failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..sim import Engine, RequestContext
from .consistency.levels import ConsistencyLevel
from .consistency.protocols import ObservingProtocol, SessionState, make_protocol
from .journal import ATTEMPT_IN_FLIGHT, AttemptRecord
from .references import CloudburstFuture, extract_references

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scheduler imports us)
    from .dag import Dag
    from .executor import ExecutorThread
    from .scheduler import Scheduler


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


class DagSession:
    """One execution of a DAG, decomposed into engine events.

    Each function runs in its own engine event at its fork/join ready time,
    so sessions sharing an engine interleave their cache accesses in the
    order virtual time dictates; a session on a private engine fires the
    same events back to back in :meth:`wait`.  Every attempt is closed once
    (:meth:`_close_attempt`), releasing its session state (snapshots,
    shadow reads) *before* :attr:`future` resolves.  An executor VM's death
    fails its attempt from outside (:meth:`fail_attempt`), and a restarted
    scheduler resumes it (:meth:`recover_from_crash`).

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
        #: The invocation's one outcome; only :meth:`_resolve` resolves it.
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
        #: What a completed attempt delivered, until :meth:`_resolve` hands it on.
        self._result: Optional[ExecutionResult] = None
        self.record = scheduler.journal.open(
            dag_name=dag.name, function_args=function_args, level=level,
            store_in_kvs=store_in_kvs, start_ms=start_ms, session=self)
        self._begin_attempt()

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

    def _begin_attempt(self) -> None:
        # Each §4.5 attempt runs under a fresh session state: reusing one
        # across retries would leak the failed attempt's snapshot pins and
        # shadow reads into the retry's (different) execution.
        scheduler = self.scheduler
        self._step(("begin", self.ctx.clock.now_ms))
        protocol = make_protocol(self.record.level)
        if scheduler.anomaly_tracker is not None:
            protocol = ObservingProtocol(protocol, scheduler.anomaly_tracker)
        self.state = SessionState(self.attempt.execution_id, protocol)
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
        """Dispatch the live attempt's sources."""
        self._step(("start",))

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

    def _step(self, event: tuple) -> None:
        """Journal ``event`` and carry out the effects it decides, in order."""
        for effect in self.scheduler.journal.apply(self.record, self.dag, event):
            kind = effect[0]
            if kind == "run":
                self.engine.at(effect[2], partial(self._run_function, *effect[1:],
                                                  self.attempt))
            elif kind == "close":
                self._close_attempt(*effect[1:])
            elif kind == "catch_up":
                # The session's clock froze at the crash; catch up to the
                # engine before charging the fault timeout so the fresh
                # attempt's events land in the engine's future, never its past.
                self.ctx.clock.advance_to(self.engine.now_ms)
            elif kind == "retry":
                self._reexecute()
            else:
                self._resolve(effect[1])

    def _run_function(self, name: str, ready_ms: float,
                      attempt: AttemptRecord) -> None:
        # The one decision the shell keeps: a closed attempt (a stale one, or
        # the last of a closed session) dispatches nothing, nor does a crashed
        # scheduler — the attempt freezes until recover_from_crash().
        if attempt.status != ATTEMPT_IN_FLIGHT or not self.scheduler.alive:
            return
        try:
            value, branch, thread = self._dispatch(name, ready_ms)
        except Exception as exc:
            # Never raised out of the engine event: the journal retries or
            # fails the session, so one overloaded key or one broken
            # function cannot unwind a driver run.
            self._step(("fail", attempt.execution_id, f"{type(exc).__name__}: {exc}",
                        exc, self.state.caches_involved))
            return
        self.results[name] = value
        self.branches.append(branch)
        self._step(("done", attempt.execution_id, name, branch.clock.now_ms,
                    thread.thread_id, thread.vm.vm_id, self.state.caches_involved))

    def _dispatch(self, name: str, ready_ms: float
                  ) -> Tuple[Any, RequestContext, "ExecutorThread"]:
        """Place and run function ``name`` at its fork/join ready time.

        The function forks a branch context at ``ready_ms``, the moment its
        upstream branches finished, and the scheduler picks its executor
        with the utilization it will have *at that moment*, so two siblings
        forked at the same ready time queue against the same executor pool.
        Returns ``(value, branch_context, thread)``; the thread feeds the
        journal's placement record.
        """
        scheduler, ctx, state = self.scheduler, self.ctx, self.state
        charge = scheduler.latency_model.charge
        upstream = self.dag.upstream_of(name)
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

    # -- failures from outside the execution path ---------------------------------------
    def fail_attempt(self, reason: str = "fault injection") -> None:
        """Fail the current attempt from outside the execution path.

        The fault plane calls this when an executor VM that ran part of this
        attempt dies mid-DAG: the intermediate results cached on that VM are
        gone, so per §4.5 the whole DAG re-executes, as after an
        :class:`ExecutorFailedError` raised in-line.
        """
        if self.scheduler.alive:  # else the crash-recovery path owns it
            self._step(("fail", self.attempt.execution_id, reason, None,
                        self.state.caches_involved))

    def recover_from_crash(self) -> None:
        """Resume this session after its owning scheduler restarted.

        The dead attempt is closed as abandoned (snapshots evicted, shadow
        reads dropped) and the DAG re-executes from the journal's topology
        and arguments.  A restart charges the §4.5 fault timeout but does
        *not* burn the retry budget.
        """
        self._step(("crash", self.state.caches_involved))

    # -- effect handlers ----------------------------------------------------------------
    def _close_attempt(self, failure: Optional[str], relation: Optional[str]) -> None:
        """The one exit of every attempt: deliver, finalize, finish its span.

        No ``failure`` means the attempt completed (and the session with
        it): the branches join and the result goes to the client or the
        KVS first, so the attempt's span covers the delivery.  Finalizing
        comes before anything can resolve the caller's future: the attempt's
        snapshots and shadow reads must be gone by then — the tests assert
        that the future's done-callbacks never see leaked snapshots.  The
        next attempt links back to an abandoned one's finished span with
        ``relation``, so the trace shows the §4.5 lineage without the failed
        attempt becoming an ancestor of work it never caused.
        """
        state, ctx = self.state, self.ctx
        if failure is None:
            self._result = self._deliver()
        state.protocol.finalize(state, self.scheduler.cache_registry, failure is None)
        if ctx.span is not self.root_span:
            if failure is not None:
                self._superseded = (relation, ctx.span.span_id)
            ctx.close_span(error=failure)

    def _deliver(self) -> ExecutionResult:
        """Join the branches and hand the sinks' value to the client or the KVS."""
        scheduler, ctx = self.scheduler, self.ctx
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
        return ExecutionResult(
            value=value, latency_ms=ctx.clock.now_ms - self.record.start_ms,
            execution_id=self.state.execution_id, ctx=ctx,
            retries=self.record.retries, result_key=result_key,
            session=self.state)

    def _reexecute(self) -> None:
        """Pay the §4.5 timeout and start a fresh attempt of the whole DAG."""
        self.ctx.charge("cloudburst", "fault_timeout",
                        self.scheduler.fault_timeout_ms)
        self._begin_attempt()
        self.engine.at(self.ctx.clock.now_ms, self.start)

    def _resolve(self, error: Optional[Exception]) -> None:
        """Resolve the future: with the delivered result, or with ``error``.

        Never a raise: other sessions sharing the engine keep running, and
        ``get()``/``result()`` re-raise the error to whoever waits.
        """
        if error is None:
            self.future._set_result(self._result)
        else:
            self.future._set_exception(error)
