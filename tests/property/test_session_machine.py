"""The §4.5 session core as a state machine, driven with no engine.

Hypothesis opens sessions over random DAGs and feeds
:meth:`~repro.cloudburst.journal.SessionJournal.apply` arbitrary orders of
``start``, ``done``, ``fail`` and ``crash`` events, stale ones of earlier
attempts and closed sessions included.  The machine plays the session shell:
it keeps the ``run`` effects as pending dispatches and answers each
``retry`` effect with a ``begin``, as ``DagSession`` does.  It checks that

* every attempt gets exactly one ``close`` effect, once it is no longer live;
* every session gets at most one ``resolve``, it resolves exactly when its
  record leaves ``running``, and no effect follows it;
* failures produce at most :data:`MAX_RETRIES` ``retry`` effects — the
  ``k``-th retryable failure retries exactly when ``k <= MAX_RETRIES`` — and a
  crash recovery spends none;
* every ``run`` effect's time is the later of its attempt's start and its
  upstreams' finish times;
* every function runs at most once per attempt;
* a stale event yields no effect and changes no record.
"""

from collections import Counter

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cloudburst import ConsistencyLevel, Dag
from repro.cloudburst.journal import (
    ATTEMPT_IN_FLIGHT,
    MAX_RETRIES,
    SESSION_RUNNING,
    SessionJournal,
)
from repro.errors import DagExecutionError, ExecutorFailedError, StorageOverloadError


@st.composite
def dags(draw):
    """A random DAG: up to five functions, edges only from lower to higher index."""
    names = [f"f{i}" for i in range(draw(st.integers(1, 5)))]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                 else st.just([]))
    return Dag(f"dag-{len(names)}-{len(edges)}", names, edges)


class _Session:
    """What the shell knows about one session: the model the core is checked
    against."""

    def __init__(self, record, dag):
        self.record, self.dag = record, dag
        self.started = {}        # attempt id -> the at_ms its begin carried
        self.live = None         # the attempt that has not been closed, if any
        self.sources_run = set()  # attempts whose sources were dispatched
        self.pending = []        # (attempt id, name, at_ms) not yet done
        self.finished = {}       # (attempt id, name) -> accepted finish time
        self.runs = Counter()    # (attempt id, name) -> run effects
        self.closes = Counter()  # attempt id -> close effects
        self.resolves = 0
        self.retryable_failures = 0
        self.retry_effects = 0


class SessionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.journal = SessionJournal("s")
        self.sessions = []
        self.now = 0.0

    # -- the shell -------------------------------------------------------------------
    def _begin(self, session):
        self.now += 1.0
        assert self.journal.apply(session.record, session.dag, ("begin", self.now)) == []
        attempt = session.record.attempts[-1]
        assert attempt.execution_id not in session.started
        session.started[attempt.execution_id] = self.now
        session.live = attempt.execution_id

    def _apply(self, session, event):
        effects = self.journal.apply(session.record, session.dag, event)
        for index, effect in enumerate(effects):
            assert session.resolves == 0, "an effect followed the resolve"
            kind = effect[0]
            if kind == "run":
                _, name, at_ms = effect
                attempt_id = session.live
                session.runs[attempt_id, name] += 1
                assert session.runs[attempt_id, name] == 1, "a function ran twice"
                expected = max([session.started[attempt_id]]
                               + [session.finished[attempt_id, upstream]
                                  for upstream in session.dag.upstream_of(name)])
                assert at_ms == expected
                session.pending.append((attempt_id, name, at_ms))
            elif kind == "close":
                session.closes[session.live] += 1
                session.live = None
            elif kind == "catch_up":
                assert effects[index - 1][:3:2] == ("close", "recovered_from")
            elif kind == "retry":
                if effects[0][2] == "retry_of":  # not a crash recovery
                    session.retry_effects += 1
                self._begin(session)
            else:
                assert kind == "resolve" and index == len(effects) - 1
                session.resolves += 1
        return effects

    def _stale(self, session, event):
        before = session.record.to_dict()
        assert self._apply(session, event) == []
        assert session.record.to_dict() == before

    # -- rules -----------------------------------------------------------------------
    @rule(dag=dags())
    def open_session(self, dag):
        record = self.journal.open(dag.name, {}, ConsistencyLevel.LWW, False,
                                   self.now, object())
        session = _Session(record, dag)
        self.sessions.append(session)
        self._begin(session)

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 99))
    def start(self, pick):
        session = self.sessions[pick % len(self.sessions)]
        if session.live is None or session.live in session.sources_run:
            self._stale(session, ("start",))
            return
        effects = self._apply(session, ("start",))
        session.sources_run.add(session.live)
        assert [effect[1] for effect in effects] == session.dag.sources

    @precondition(lambda self: any(s.pending for s in self.sessions))
    @rule(pick=st.integers(0, 99), which=st.integers(0, 99),
          took=st.floats(0.0, 50.0), cache=st.sampled_from(["cache-a", "cache-b"]))
    def done(self, pick, which, took, cache):
        candidates = [s for s in self.sessions if s.pending]
        session = candidates[pick % len(candidates)]
        attempt_id, name, at_ms = session.pending.pop(which % len(session.pending))
        event = ("done", attempt_id, name, at_ms + took, "vm-0:t0", "vm-0", {cache})
        if attempt_id != session.live:
            self._stale(session, event)
            return
        session.finished[attempt_id, name] = at_ms + took
        effects = self._apply(session, event)
        complete = all((attempt_id, fn) in session.finished
                       for fn in session.dag.functions)
        assert (effects[-2:] == [("close", None, None), ("resolve", None)]) == complete

    @precondition(lambda self: any(s.finished for s in self.sessions))
    @rule(pick=st.integers(0, 99), which=st.integers(0, 99))
    def done_again(self, pick, which):
        candidates = [s for s in self.sessions if s.finished]
        session = candidates[pick % len(candidates)]
        finished = sorted(session.finished)
        attempt_id, name = finished[which % len(finished)]
        self._stale(session, ("done", attempt_id, name, 0.0, "t", "vm-1", ()))

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 99),
          error=st.sampled_from([None, ExecutorFailedError("vm died"),
                                 StorageOverloadError("full"), ValueError("boom")]),
          stale_id=st.booleans())
    def fail(self, pick, error, stale_id):
        session = self.sessions[pick % len(self.sessions)]
        attempt_ids = list(session.started)
        attempt_id = attempt_ids[0] if stale_id else attempt_ids[-1]
        event = ("fail", attempt_id, "reason", error, ["cache-a"])
        if attempt_id != session.live:
            self._stale(session, event)
            return
        retries = session.record.retries
        effects = self._apply(session, event)
        assert effects[0] == ("close", "reason", "retry_of")
        if isinstance(error, ValueError):
            assert effects[1] == ("resolve", error)
            assert session.record.retries == retries
            return
        session.retryable_failures += 1
        assert session.record.retries == session.retryable_failures
        if session.retryable_failures <= MAX_RETRIES:
            assert effects[1] == ("retry",)
        else:
            assert effects[1][0] == "resolve"
            assert isinstance(effects[1][1], DagExecutionError)

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 99))
    def crash(self, pick):
        session = self.sessions[pick % len(self.sessions)]
        event = ("crash", {"cache-b"})
        if session.live is None:
            self._stale(session, event)
            return
        retries, recoveries = session.record.retries, session.record.recoveries
        effects = self._apply(session, event)
        assert [effect[0] for effect in effects] == ["close", "catch_up", "retry"]
        assert session.record.retries == retries, "a crash recovery spent a retry"
        assert session.record.recoveries == recoveries + 1

    # -- invariants ------------------------------------------------------------------
    @invariant()
    def every_closed_attempt_closed_exactly_once(self):
        for session in self.sessions:
            for attempt in session.record.attempts:
                live = attempt.execution_id == session.live
                assert (attempt.status == ATTEMPT_IN_FLIGHT) == live
                assert session.closes[attempt.execution_id] == (0 if live else 1)

    @invariant()
    def a_session_resolves_once_when_it_closes(self):
        for session in self.sessions:
            closed = session.record.status != SESSION_RUNNING
            assert session.resolves == (1 if closed else 0)
            assert session.retry_effects == min(session.retryable_failures,
                                                MAX_RETRIES)
            assert session.retry_effects <= MAX_RETRIES

    @invariant()
    def the_journal_counts_every_session(self):
        running = sum(s.record.status == SESSION_RUNNING for s in self.sessions)
        assert self.journal.in_flight_count() == running
        counts = self.journal.counts()
        assert counts["running"] + counts["completed"] + counts["failed"] == len(
            self.sessions)


TestSessionMachine = SessionMachine.TestCase
TestSessionMachine.settings = settings(max_examples=200, stateful_step_count=40,
                                       deadline=None)
