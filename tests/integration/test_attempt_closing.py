"""Every §4.5 attempt is closed exactly once, with the outcome it had.

A DAG session closes each attempt by finalizing the attempt's protocol: a
completed attempt's shadow reads are evaluated (the Table 2 tracker's
``complete_execution``), every other attempt's are dropped
(``abandon_execution``).  A spy tracker and a spy on the observing
protocol's ``finalize`` count both across the five ways an attempt ends.
The journal names the caches every attempt touched, failed ones included.
"""

import pytest

from repro.cloudburst import CloudburstCluster
from repro.cloudburst.consistency.anomalies import AnomalyTracker
from repro.cloudburst.consistency.protocols import ObservingProtocol
from repro.cloudburst.journal import (
    ATTEMPT_ABANDONED,
    ATTEMPT_COMPLETED,
    ATTEMPT_FAILED,
    MAX_RETRIES,
)
from repro.errors import DagExecutionError, ExecutorFailedError


class SpyTracker(AnomalyTracker):
    def __init__(self):
        super().__init__()
        self.completed = []
        self.abandoned = []

    def complete_execution(self, execution_id):
        self.completed.append(execution_id)
        super().complete_execution(execution_id)

    def abandon_execution(self, execution_id):
        self.abandoned.append(execution_id)
        super().abandon_execution(execution_id)


@pytest.fixture
def finalized(monkeypatch):
    """Execution ids in the order their protocol was finalized."""
    ids = []
    original = ObservingProtocol.finalize

    def spy(self, state, *args, **kwargs):
        ids.append(state.execution_id)
        return original(self, state, *args, **kwargs)

    monkeypatch.setattr(ObservingProtocol, "finalize", spy)
    return ids


@pytest.fixture
def tracker():
    return SpyTracker()


@pytest.fixture
def cluster(tracker):
    return CloudburstCluster(executor_vms=2, seed=3, anomaly_tracker=tracker)


@pytest.fixture
def cloud(cluster):
    cloud = cluster.connect()
    cloud.put("k", 1)
    return cloud


def _attempts(count):
    return [f"scheduler-0/session-0/attempt-{k}" for k in range(count)]


def _run(cloud, body):
    cloud.register(body, name="f")
    cloud.register_dag("dag", ["f"])
    return cloud.call_dag("dag", {"f": [1]})


def _assert_closed(finalized, tracker, completed, abandoned):
    assert tracker.completed == completed
    assert tracker.abandoned == abandoned
    # One finalize per attempt, in attempt order.
    assert finalized == sorted(completed + abandoned)


def test_a_successful_attempt_is_completed_once(cloud, tracker, finalized):
    future = _run(cloud, lambda cloudburst, x: cloudburst.get("k") + x)
    assert future.get() == 2
    _assert_closed(finalized, tracker, completed=_attempts(1), abandoned=[])


def test_a_retried_executor_failure_abandons_then_completes(cloud, tracker, finalized):
    calls = []

    def flaky(cloudburst, x):
        calls.append(x)
        cloudburst.get("k")
        if len(calls) == 1:
            raise ExecutorFailedError(cloudburst.get_id(), "chaos")
        return x

    future = _run(cloud, flaky)
    assert future.get() == 1
    first, second = _attempts(2)
    _assert_closed(finalized, tracker, completed=[second], abandoned=[first])


def test_exhausted_retries_abandon_every_attempt(cloud, cluster, tracker, finalized):
    def dying(cloudburst, x):
        raise ExecutorFailedError(cloudburst.get_id(), "always")

    future = _run(cloud, dying)
    with pytest.raises(DagExecutionError):
        future.get()
    attempts = _attempts(MAX_RETRIES + 1)
    _assert_closed(finalized, tracker, completed=[], abandoned=attempts)
    (record,) = cluster.schedulers[0].journal.records()
    assert [a.status for a in record.attempts] == [ATTEMPT_FAILED] * len(attempts)


def test_an_application_error_abandons_its_one_attempt(cloud, tracker, finalized):
    def boom(cloudburst, x):
        raise ValueError("application bug")

    future = _run(cloud, boom)
    with pytest.raises(ValueError):
        future.get()
    _assert_closed(finalized, tracker, completed=[], abandoned=_attempts(1))


def test_a_scheduler_crash_abandons_and_the_restart_completes(
        cloud, cluster, tracker, finalized):
    future = _run(cloud, lambda cloudburst, x: cloudburst.get("k") + x)
    scheduler = cluster.schedulers[0]
    scheduler.crash()
    cluster.settle()  # the queued function fires against the dead scheduler
    assert not future.done() and finalized == []
    assert scheduler.restart() == 1
    assert future.get() == 2
    first, second = _attempts(2)
    _assert_closed(finalized, tracker, completed=[second], abandoned=[first])
    (record,) = scheduler.journal.records()
    assert [a.status for a in record.attempts] == [ATTEMPT_ABANDONED,
                                                   ATTEMPT_COMPLETED]


def test_a_failed_attempt_names_the_cache_it_read_on():
    cluster = CloudburstCluster(executor_vms=1, seed=0)
    cloud = cluster.connect()
    cloud.put("k", 1)

    def read_then_fail(cloudburst):
        cloudburst.get("k")
        raise ValueError("after the read")

    cloud.register(read_then_fail, name="read-then-fail")
    cloud.register_dag("read-then-fail-dag", ["read-then-fail"])
    future = cloud.call_dag("read-then-fail-dag")
    with pytest.raises(ValueError):
        future.get()
    (record,) = cluster.schedulers[0].journal.records()
    (attempt,) = record.attempts
    assert attempt.status == ATTEMPT_FAILED
    # Release evicted the attempt's session state on this cache; the record
    # says so (it used to list only the caches of completed functions).
    assert attempt.caches_involved == [cluster.vms[0].cache.cache_id]


def test_no_function_of_a_closed_session_is_dispatched(cluster, cloud):
    """``bad`` fails the session while its sibling ``good`` is still queued at
    the same ready time; the queued event must not run ``good``."""
    ran = []

    def bad(cloudburst, x):
        ran.append("bad")
        raise ValueError("application bug")

    def good(cloudburst, x):
        ran.append("good")
        return x

    cloud.register(lambda cloudburst: 1, name="src")
    cloud.register(bad, name="bad")
    cloud.register(good, name="good")
    cloud.register_dag("fan-out", ["src", "bad", "good"],
                       [("src", "bad"), ("src", "good")])
    before = cluster.total_invocations()
    future = cloud.call_dag("fan-out")
    with pytest.raises(ValueError):
        future.get()
    cluster.settle()
    assert ran == ["bad"]
    # Only src counts: an invocation is counted when its function returns.
    assert cluster.total_invocations() - before == 1
    (record,) = cluster.schedulers[0].journal.records()
    assert record.attempts[0].function_status == {
        "src": "completed", "bad": "scheduled", "good": "scheduled"}
