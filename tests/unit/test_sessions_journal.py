"""Unit tests for the session journal (§4.5 durable DAG-session state).

Every transition is an event driven through
:meth:`~repro.cloudburst.journal.SessionJournal.apply` (and so
:func:`~repro.cloudburst.journal.advance`), with no engine.  These tests pin
the transition semantics, the effects each event returns and the JSON
round-trip the CI fault artifact depends on.
"""

import ast
import json
from pathlib import Path

import pytest

import repro.cloudburst.journal as journal_module
from repro.cloudburst import ConsistencyLevel, Dag
from repro.cloudburst.journal import (
    ATTEMPT_ABANDONED,
    ATTEMPT_COMPLETED,
    ATTEMPT_FAILED,
    ATTEMPT_IN_FLIGHT,
    FUNCTION_COMPLETED,
    FUNCTION_SCHEDULED,
    MAX_RETRIES,
    SESSION_COMPLETED,
    SESSION_FAILED,
    SESSION_RUNNING,
    SessionJournal,
)
from repro.errors import DagExecutionError, ExecutorFailedError

ONE = Dag("dag-a", ["f"])
DIAMOND = Dag("diamond", ["source", "left", "right", "sink"],
              [("source", "left"), ("source", "right"),
               ("left", "sink"), ("right", "sink")])


def _open(journal, name="dag-a", session=None, at_ms=10.0):
    record = journal.open(dag_name=name, function_args={"f": [1, 2]},
                          level=ConsistencyLevel.LWW, store_in_kvs=False,
                          start_ms=10.0, session=session or object())
    journal.apply(record, ONE, ("begin", at_ms))
    return record


def _done(journal, record, name, finish_ms, dag=ONE, vm="vm-0", caches=()):
    return journal.apply(record, dag, (
        "done", record.current_attempt().execution_id, name, finish_ms,
        f"{vm}:t0", vm, caches))


def _fail(journal, record, reason="executor died", error=None, caches=()):
    return journal.apply(record, ONE, (
        "fail", record.current_attempt().execution_id, reason, error, caches))


class TestLifecycle:
    def test_open_assigns_scoped_sequential_ids(self):
        journal = SessionJournal("scheduler-3")
        first, second = _open(journal), _open(journal)
        assert first.session_id == "scheduler-3/session-0"
        assert second.session_id == "scheduler-3/session-1"
        assert first.status == SESSION_RUNNING
        assert journal.in_flight_count() == 2

    def test_attempt_transitions(self):
        journal = SessionJournal("s")
        record = _open(journal)
        attempt = record.current_attempt()
        assert attempt.status == ATTEMPT_IN_FLIGHT
        assert journal.apply(record, ONE, ("start",)) == [("run", "f", 10.0)]
        assert attempt.function_status["f"] == FUNCTION_SCHEDULED
        effects = _done(journal, record, "f", 22.5, vm="vm-0", caches={"cache-1"})
        assert effects == [("close", None, None), ("resolve", None)]
        assert attempt.function_status["f"] == FUNCTION_COMPLETED
        assert attempt.finish_ms["f"] == 22.5
        assert attempt.placements["f"] == "vm-0:t0"
        assert attempt.vms_used == ["vm-0"]
        assert attempt.caches_involved == ["cache-1"]
        assert record.uses_vm("vm-0") and not record.uses_vm("vm-9")

    def test_failure_retry_and_close(self):
        journal = SessionJournal("s")
        record = _open(journal)
        assert _fail(journal, record) == [("close", "executor died", "retry_of"),
                                          ("retry",)]
        assert record.current_attempt().status == ATTEMPT_FAILED
        assert record.current_attempt().failure == "executor died"
        assert record.retries == 1
        journal.apply(record, ONE, ("begin", 40.0))
        journal.apply(record, ONE, ("start",))
        _done(journal, record, "f", 45.0)
        assert record.status == SESSION_COMPLETED
        assert record.current_attempt().status == ATTEMPT_COMPLETED
        assert journal.in_flight_count() == 0
        # Failed attempts keep their failed status in the history.
        assert record.attempts[0].status == ATTEMPT_FAILED
        # Attempt ids are derived from the session id, never drawn.
        assert [a.execution_id for a in record.attempts] == [
            "s/session-0/attempt-0", "s/session-0/attempt-1"]

    def test_a_failed_attempt_names_every_cache_it_touched(self):
        journal = SessionJournal("s")
        record = _open(journal)
        _fail(journal, record, "ValueError: boom", ValueError("boom"),
              {"cache-b", "cache-a"})
        assert record.current_attempt().caches_involved == ["cache-a", "cache-b"]

    def test_crash_recovery_transitions(self):
        journal = SessionJournal("s")
        session = object()
        record = _open(journal, session=session)
        effects = journal.apply(record, ONE, ("crash", ()))
        assert effects == [("close", "scheduler crash", "recovered_from"),
                           ("catch_up",), ("retry",)]
        assert record.current_attempt().status == ATTEMPT_ABANDONED
        assert record.recoveries == 1
        assert journal.recovered_sessions == 1
        # Recovery does not burn the §4.5 retry budget.
        assert record.retries == 0
        # The session is still in flight (the restart resumes it).
        assert journal.live_sessions() == [session]

    def test_failed_close_removes_live_session(self):
        journal = SessionJournal("s")
        record = _open(journal)
        error = ValueError("boom")
        assert _fail(journal, record, "ValueError: boom", error) == [
            ("close", "ValueError: boom", "retry_of"), ("resolve", error)]
        assert journal.live_sessions() == []
        assert journal.counts()[SESSION_FAILED] == 1


class TestRetryBudget:
    """The §4.5 budget: retryable failures only, and crashes spend none."""

    def test_the_budget_is_spent_then_the_session_fails(self):
        journal = SessionJournal("s")
        record = _open(journal)
        for retry in range(1, MAX_RETRIES + 1):
            effects = _fail(journal, record, error=ExecutorFailedError("vm died"))
            assert effects[-1] == ("retry",) and record.retries == retry
            journal.apply(record, ONE, ("begin", 10.0 * retry))
        effects = _fail(journal, record)
        assert effects[0] == ("close", "executor died", "retry_of")
        assert effects[1][0] == "resolve"
        assert isinstance(effects[1][1], DagExecutionError)
        assert str(effects[1][1]) == (
            f"DAG 'dag-a' failed after {MAX_RETRIES + 1} attempts")
        assert record.status == SESSION_FAILED

    def test_an_application_error_is_not_retried(self):
        journal = SessionJournal("s")
        record = _open(journal)
        effects = _fail(journal, record, error=KeyError("x"))
        assert [effect[0] for effect in effects] == ["close", "resolve"]
        assert record.retries == 0 and record.status == SESSION_FAILED

    def test_crashes_spend_no_retry(self):
        journal = SessionJournal("s")
        record = _open(journal)
        for crash in range(MAX_RETRIES + 3):
            journal.apply(record, ONE, ("crash", ()))
            journal.apply(record, ONE, ("begin", 10.0 + crash))
        assert record.retries == 0 and record.recoveries == MAX_RETRIES + 3
        assert _fail(journal, record)[-1] == ("retry",)


class TestStaleEvents:
    def test_events_of_a_superseded_attempt_change_nothing(self):
        journal = SessionJournal("s")
        record = _open(journal)
        journal.apply(record, ONE, ("start",))
        old = record.current_attempt().execution_id
        _fail(journal, record)
        journal.apply(record, ONE, ("begin", 40.0))
        before = record.to_dict()
        assert journal.apply(record, ONE, ("done", old, "f", 5.0, "t", "vm", ())) == []
        assert journal.apply(record, ONE, ("fail", old, "late", None, ())) == []
        assert record.to_dict() == before

    def test_a_closed_session_takes_no_event(self):
        journal = SessionJournal("s")
        record = _open(journal)
        _fail(journal, record, "ValueError: boom", ValueError("boom"))
        before = record.to_dict()
        live = record.current_attempt().execution_id
        for event in [("begin", 1.0), ("start",), ("crash", ()),
                      ("fail", live, "again", None, ()),
                      ("done", live, "f", 1.0, "t", "vm", ())]:
            assert journal.apply(record, ONE, event) == []
        assert record.to_dict() == before

    def test_a_second_start_and_an_unscheduled_done_yield_nothing(self):
        journal = SessionJournal("s")
        record = _open(journal)
        assert _done(journal, record, "f", 1.0) == []
        assert journal.apply(record, ONE, ("start",)) == [("run", "f", 10.0)]
        assert journal.apply(record, ONE, ("start",)) == []
        assert journal.apply(record, ONE, ("begin", 20.0)) == []
        assert len(record.attempts) == 1


class TestReadiness:
    """Fork/join readiness is read from the attempt record, not kept beside it."""

    def test_diamond_joins_at_the_slowest_upstream(self):
        journal = SessionJournal("s")
        record = _open(journal, at_ms=100.0)
        attempt = record.current_attempt()
        assert attempt.ready_at([]) == 100.0
        assert journal.apply(record, DIAMOND, ("start",)) == [("run", "source", 100.0)]
        assert _done(journal, record, "source", 110.0, DIAMOND) == [
            ("run", "left", 110.0), ("run", "right", 110.0)]
        assert _done(journal, record, "left", 150.0, DIAMOND) == []
        assert _done(journal, record, "right", 130.0, DIAMOND) == [("run", "sink", 150.0)]
        assert attempt.ready_at(["left", "right"]) == 150.0
        # A finish time before the attempt started never pulls readiness back.
        assert attempt.ready_at([]) == 100.0

    def test_unfinished_upstream_raises(self):
        journal = SessionJournal("s")
        record = _open(journal, at_ms=0.0)
        journal.apply(record, ONE, ("start",))
        attempt = record.current_attempt()
        assert "f" in attempt.function_status
        with pytest.raises(KeyError):
            attempt.ready_at(["f"])

    def test_a_retry_starts_from_an_empty_attempt(self):
        journal = SessionJournal("s")
        record = _open(journal, at_ms=0.0)
        first = record.current_attempt()
        journal.apply(record, DIAMOND, ("start",))
        _done(journal, record, "source", 5.0, DIAMOND)
        _fail(journal, record)
        journal.apply(record, DIAMOND, ("begin", 40.0))
        retry = record.current_attempt()
        assert first.finish_ms == {"source": 5.0}
        assert retry.function_status == {} and retry.finish_ms == {}
        assert retry.ready_at([]) == 40.0
        assert journal.apply(record, DIAMOND, ("start",)) == [("run", "source", 40.0)]


class TestQueries:
    def test_counts_and_in_flight(self):
        journal = SessionJournal("s")
        a, b, c = _open(journal), _open(journal), _open(journal)
        journal.apply(a, ONE, ("start",))
        _done(journal, a, "f", 11.0)
        _fail(journal, b, "ValueError: boom", ValueError("boom"))
        counts = journal.counts()
        assert counts[SESSION_COMPLETED] == 1
        assert counts[SESSION_FAILED] == 1
        assert counts[SESSION_RUNNING] == 1
        assert [record for record in journal.records()
                if record.status == SESSION_RUNNING] == [c]


class TestSerialization:
    def test_to_dict_is_json_round_trippable(self):
        journal = SessionJournal("scheduler-0")
        # A clean first-attempt completion is checkpointed: counted, not kept.
        clean = _open(journal, name="dag-clean", at_ms=5.0)
        journal.apply(clean, ONE, ("start",))
        _done(journal, clean, "f", 6.0)
        # A session that needed a retry keeps its full record for the artifact.
        record = _open(journal)
        _fail(journal, record)
        journal.apply(record, ONE, ("begin", 40.0))
        journal.apply(record, ONE, ("start",))
        _done(journal, record, "f", 45.0, vm="vm-1")
        # Arbitrary user args must not leak into the dump — only their counts.
        _open(journal, name="dag-b", session=object())
        dump = json.loads(json.dumps(journal.to_dict()))
        assert dump["scheduler_id"] == "scheduler-0"
        assert dump["counts"]["completed"] == 2
        assert dump["counts"]["running"] == 1
        sessions = {entry["dag_name"]: entry for entry in dump["sessions"]}
        assert set(sessions) == {"dag-a", "dag-b"}
        assert sessions["dag-a"]["retries"] == 1
        assert sessions["dag-a"]["attempts"][1]["placements"] == {"f": "vm-1:t0"}
        assert sessions["dag-a"]["function_arg_counts"] == {"f": 2}
        assert sessions["dag-a"]["level"] == "LWW"
        assert "function_args" not in sessions["dag-a"]
        assert list(sessions["dag-a"]["attempts"][0]) == [
            "execution_id", "started_ms", "status", "function_status",
            "finish_ms", "placements", "vms_used", "caches_involved", "failure"]


class TestCheckpoint:
    """apply() keeps only what recovery or a fault post-mortem can need."""

    def test_clean_completion_is_folded_into_the_counts(self):
        journal = SessionJournal("s")
        record = _open(journal)
        journal.apply(record, ONE, ("start",))
        _done(journal, record, "f", 11.0)
        assert journal.records() == []
        assert journal.counts()[SESSION_COMPLETED] == 1
        assert record.session_id not in {kept.session_id
                                         for kept in journal.records()}

    @pytest.mark.parametrize("disturb", ["retry", "recovery", "failure"])
    def test_disturbed_sessions_keep_their_record(self, disturb):
        journal = SessionJournal("s")
        record = _open(journal)
        if disturb == "failure":
            _fail(journal, record, "ValueError: boom", ValueError("boom"))
        else:
            if disturb == "retry":
                _fail(journal, record)
            else:
                journal.apply(record, ONE, ("crash", ()))
            journal.apply(record, ONE, ("begin", 40.0))
            journal.apply(record, ONE, ("start",))
            _done(journal, record, "f", 45.0)
        assert journal.records() == [record]
        assert journal.in_flight_count() == 0
        # A closed session's recovery still counts: its record is kept.
        assert journal.recovered_sessions == (disturb == "recovery")

    def test_in_flight_queries_report_only_open_sessions(self):
        journal = SessionJournal("s")
        kept = []
        for _ in range(50):
            record = _open(journal)
            _fail(journal, record)
            journal.apply(record, ONE, ("begin", 40.0))
            journal.apply(record, ONE, ("start",))
            _done(journal, record, "f", 45.0)
            kept.append(record)
        live_session = object()
        live = _open(journal, session=live_session)
        assert journal.records() == kept + [live]
        assert [record for record in journal.records()
                if record.status == SESSION_RUNNING] == [live]
        assert journal.in_flight_count() == 1
        assert journal.live_sessions() == [live_session]

    def test_a_twice_recovered_session_counts_twice(self):
        journal = SessionJournal("s")
        record = _open(journal)
        for at_ms in (20.0, 30.0):
            journal.apply(record, ONE, ("crash", ()))
            journal.apply(record, ONE, ("begin", at_ms))
        assert journal.recovered_sessions == 2
        assert journal.counts()["recovered"] == 2


def test_the_core_imports_nothing_that_runs():
    """The journal names nothing from the simulator, tracing, the scheduler,
    the protocols or the cache: it is driven without an engine."""
    forbidden = ("repro.sim", "repro.obs", "repro.cloudburst.scheduler",
                 "repro.cloudburst.consistency.protocols", "repro.cloudburst.cache")
    tree = ast.parse(Path(journal_module.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # resolve ``from ..x import y`` against the package
                package = "repro.cloudburst".split(".")
                base = ".".join(package[:len(package) - node.level + 1]
                                + ([base] if base else []))
            imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
    assert imported, "the test must see the module's imports"
    assert not [name for name in imported
                if any(name == bad or name.startswith(bad + ".")
                       for bad in forbidden)]
    # The relative imports resolve to what the module really imports.
    assert "repro.errors" in imported
    assert "repro.cloudburst.consistency.levels" in imported

