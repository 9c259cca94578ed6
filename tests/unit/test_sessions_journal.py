"""Unit tests for the session journal (§4.5 durable DAG-session state).

The journal is the explicit, serializable home of what used to be closure
state inside the scheduler's engine-DAG path: per-attempt status, placements,
resource holdings, retry budget.  These tests pin its transition semantics
and the JSON round-trip the CI fault artifact depends on.
"""

import json

import pytest

from repro.cloudburst import ConsistencyLevel
from repro.cloudburst.consistency.protocols import SessionState, make_protocol
from repro.cloudburst.sessions import (
    ATTEMPT_ABANDONED,
    ATTEMPT_COMPLETED,
    ATTEMPT_FAILED,
    ATTEMPT_IN_FLIGHT,
    FUNCTION_COMPLETED,
    FUNCTION_SCHEDULED,
    SESSION_COMPLETED,
    SESSION_FAILED,
    SESSION_RUNNING,
    SessionJournal,
)


def _state(caches=()):
    state = SessionState("s/session-0/attempt-0", make_protocol(ConsistencyLevel.LWW))
    state.caches_involved.update(caches)
    return state


def _open(journal, name="dag-a", session=None):
    return journal.open(dag_name=name, function_args={"f": [1, 2]},
                        level=ConsistencyLevel.LWW, store_in_kvs=False,
                        start_ms=10.0, session=session or object())


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
        attempt = journal.begin_attempt(record, at_ms=10.0)
        assert attempt.status == ATTEMPT_IN_FLIGHT
        journal.record_scheduled(record, "f")
        assert attempt.function_status["f"] == FUNCTION_SCHEDULED
        state = _state(["cache-1"])
        journal.record_completed(record, "f", finish_ms=22.5,
                                 thread_id="vm-0:t1", vm_id="vm-0", state=state)
        assert attempt.function_status["f"] == FUNCTION_COMPLETED
        assert attempt.finish_ms["f"] == 22.5
        assert attempt.placements["f"] == "vm-0:t1"
        assert attempt.vms_used == ["vm-0"]
        assert attempt.caches_involved == ["cache-1"]
        assert record.uses_vm("vm-0") and not record.uses_vm("vm-9")

    def test_failure_retry_and_close(self):
        journal = SessionJournal("s")
        record = _open(journal)
        journal.begin_attempt(record, at_ms=10.0)
        journal.record_attempt_failure(record, "executor died", ATTEMPT_FAILED,
                                       _state())
        assert record.current_attempt().status == ATTEMPT_FAILED
        assert record.current_attempt().failure == "executor died"
        assert journal.record_retry(record) == 1
        journal.begin_attempt(record, at_ms=40.0)
        journal.close(record, SESSION_COMPLETED)
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
        journal.begin_attempt(record, at_ms=10.0)
        journal.record_attempt_failure(record, "ValueError: boom", ATTEMPT_FAILED,
                                       _state(["cache-b", "cache-a"]))
        assert record.current_attempt().caches_involved == ["cache-a", "cache-b"]

    def test_crash_recovery_transitions(self):
        journal = SessionJournal("s")
        session = object()
        record = _open(journal, session=session)
        journal.begin_attempt(record, at_ms=10.0)
        journal.record_attempt_failure(record, "scheduler crash",
                                       ATTEMPT_ABANDONED, _state())
        journal.record_recovery(record)
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
        journal.close(record, SESSION_FAILED)
        assert journal.live_sessions() == []
        assert journal.counts()[SESSION_FAILED] == 1


class TestReadiness:
    """Fork/join readiness is read from the attempt record, not kept beside it."""

    def _complete(self, journal, record, name, finish_ms):
        journal.record_scheduled(record, name)
        journal.record_completed(record, name, finish_ms, "vm-0:t0", "vm-0",
                                 _state())

    def test_diamond_joins_at_the_slowest_upstream(self):
        journal = SessionJournal("s")
        record = _open(journal)
        attempt = journal.begin_attempt(record, at_ms=100.0)
        assert attempt.ready_at([]) == 100.0
        self._complete(journal, record, "source", 110.0)
        assert attempt.ready_at(["source"]) == 110.0
        self._complete(journal, record, "left", 150.0)
        self._complete(journal, record, "right", 130.0)
        assert attempt.ready_at(["left", "right"]) == 150.0
        # A finish time before the attempt started never pulls readiness back.
        assert attempt.ready_at([]) == 100.0

    def test_unfinished_upstream_raises(self):
        journal = SessionJournal("s")
        record = _open(journal)
        attempt = journal.begin_attempt(record, at_ms=0.0)
        journal.record_scheduled(record, "ghost")
        assert "ghost" in attempt.function_status
        with pytest.raises(KeyError):
            attempt.ready_at(["ghost"])

    def test_a_retry_starts_from_an_empty_attempt(self):
        journal = SessionJournal("s")
        record = _open(journal)
        first = journal.begin_attempt(record, at_ms=0.0)
        self._complete(journal, record, "f", 5.0)
        retry = journal.begin_attempt(record, at_ms=40.0)
        assert first.finish_ms == {"f": 5.0}
        assert retry.function_status == {} and retry.finish_ms == {}
        assert retry.ready_at([]) == 40.0


class TestQueries:
    def test_counts_and_in_flight(self):
        journal = SessionJournal("s")
        a, b, c = _open(journal), _open(journal), _open(journal)
        journal.close(a, SESSION_COMPLETED)
        journal.close(b, SESSION_FAILED)
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
        clean = _open(journal, name="dag-clean")
        journal.begin_attempt(clean, at_ms=5.0)
        journal.close(clean, SESSION_COMPLETED)
        # A session that needed a retry keeps its full record for the artifact.
        record = _open(journal)
        journal.begin_attempt(record, at_ms=10.0)
        journal.record_attempt_failure(record, "executor died", ATTEMPT_FAILED,
                                       _state())
        journal.record_retry(record)
        journal.begin_attempt(record, at_ms=40.0)
        journal.record_scheduled(record, "f")
        state = _state()
        journal.record_completed(record, "f", 45.0, "vm-1:t0", "vm-1", state)
        journal.close(record, SESSION_COMPLETED)
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


class TestCheckpoint:
    """close() keeps only what recovery or a fault post-mortem can need."""

    def test_clean_completion_is_folded_into_the_counts(self):
        journal = SessionJournal("s")
        record = _open(journal)
        journal.begin_attempt(record, at_ms=10.0)
        journal.close(record, SESSION_COMPLETED)
        assert journal.records() == []
        assert journal.counts()[SESSION_COMPLETED] == 1
        assert record.session_id not in {kept.session_id
                                         for kept in journal.records()}

    @pytest.mark.parametrize("disturb", ["retry", "recovery", "failure"])
    def test_disturbed_sessions_keep_their_record(self, disturb):
        journal = SessionJournal("s")
        record = _open(journal)
        journal.begin_attempt(record, at_ms=10.0)
        if disturb == "retry":
            journal.record_retry(record)
        elif disturb == "recovery":
            journal.record_recovery(record)
        journal.close(record, SESSION_FAILED if disturb == "failure"
                      else SESSION_COMPLETED)
        assert journal.records() == [record]
        assert journal.in_flight_count() == 0
        # A closed session's recovery still counts: its record is kept.
        assert journal.recovered_sessions == (disturb == "recovery")

    def test_in_flight_queries_report_only_open_sessions(self):
        journal = SessionJournal("s")
        kept = []
        for _ in range(50):
            record = _open(journal)
            journal.record_retry(record)
            journal.close(record, SESSION_COMPLETED)
            kept.append(record)
        live_session = object()
        live = _open(journal, session=live_session)
        assert journal.records() == kept + [live]
        assert [record for record in journal.records()
                if record.status == SESSION_RUNNING] == [live]
        assert journal.in_flight_count() == 1
        assert journal.live_sessions() == [live_session]
