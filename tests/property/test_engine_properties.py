"""Property tests for the discrete-event engine: determinism and queue laws."""

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_placement
from repro.sim import Engine, WorkQueue


def _replay(times):
    """Run one engine over ``times`` and return the firing order."""
    engine = Engine()
    fired = []
    for index, at_ms in enumerate(times):
        engine.at(at_ms, lambda i=index, t=at_ms: fired.append((engine.now_ms, t, i)))
    engine.run()
    return fired


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                          allow_infinity=False), max_size=60))
@settings(max_examples=60, deadline=None)
def test_same_schedule_replays_identically(times):
    assert _replay(times) == _replay(times)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                          allow_infinity=False), max_size=60))
@settings(max_examples=60, deadline=None)
def test_events_fire_in_nondecreasing_time_with_fifo_ties(times):
    fired = _replay(times)
    observed = [t for _, t, _ in fired]
    assert observed == sorted(observed)
    # Among events at the same timestamp, insertion order wins.
    by_time = {}
    for _, t, index in fired:
        by_time.setdefault(t, []).append(index)
    for indices in by_time.values():
        assert indices == sorted(indices)


#: One step of an interleaved schedule/cancel/fire workload: (op, operand).
#: op 0 schedules a foreground event, 1 a background event, 2 cancels a
#: previously created event (operand picks which), 3 fires one step, 4 runs
#: until the op's time.
_COUNTER_OPS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=10_000),
              st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                        allow_infinity=False)),
    max_size=120)


@given(_COUNTER_OPS)
@settings(max_examples=80, deadline=None)
def test_pending_counters_match_brute_force(ops):
    """pending/foreground_pending (O(1) counters) must always equal a brute
    force count over the live heap, under any interleaving of schedule,
    cancel (including double cancels and cancels of fired events), fire and
    ``run(until_ms=...)``."""
    engine = Engine()
    created = []
    for op, pick, at_ms in ops:
        if op == 0:
            created.append(engine.at(at_ms, lambda: None))
        elif op == 1:
            created.append(engine.at(at_ms, lambda: None, background=True))
        elif op == 2 and created:
            engine.cancel(created[pick % len(created)])
        elif op == 3:
            engine.step()
        elif op == 4:
            engine.run(until_ms=at_ms)
            assert engine.now_ms >= at_ms
            assert not any(entry[0] <= at_ms and entry[2].fn is not None
                           for entry in engine._heap)
        live = [entry[2] for entry in engine._heap if entry[2].fn is not None]
        assert engine.stats()["pending"] == len(live)
        assert engine.foreground_pending == sum(
            1 for event in live if not event.background)
        assert engine.stats()["pending"] >= 0 and engine.foreground_pending >= 0
    engine.run()
    assert engine.stats()["pending"] == 0
    assert engine.foreground_pending == 0


@given(st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
), max_size=50))
@settings(max_examples=60, deadline=None)
def test_work_queue_is_fifo_and_non_overlapping(jobs):
    """Arrivals processed in order: service intervals never overlap and
    starts are non-decreasing, regardless of the arrival pattern."""
    queue = WorkQueue()
    intervals = []
    for arrival, service in sorted(jobs, key=lambda job: job[0]):
        start = queue.admit(arrival)
        assert start >= arrival
        end = start + service
        queue.release(end)
        intervals.append((start, end))
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert s2 >= e1  # FIFO: next job starts after the previous ends
    assert queue.completed == len(intervals)
    assert queue.busy_ms == sum(e - s for s, e in intervals)


@given(st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.5, 3.0, 40.0]),
), max_size=12), st.lists(st.floats(min_value=-1.0, max_value=700.0, allow_nan=False)))
@settings(max_examples=120, deadline=None)
def test_work_queue_depth_equals_the_bisect_definition(jobs, probes):
    """``depth`` answers from ``next_free_ms`` when the server is free by the
    query time; it must still be the count of reservations ending after it,
    plus the item in service — for arrivals in any order, zero-length items,
    and queries before, at and after every boundary, admitted or released."""
    queue = WorkQueue()
    boundaries = [0.0]

    def check():
        for at_ms in probes + boundaries + [queue.next_free_ms]:
            for probe in (at_ms - 1e-9, at_ms, at_ms + 1e-9):
                assert queue.depth(probe) == reference_placement.depth(queue, probe)

    check()
    for arrival, service in jobs:
        start = queue.admit(arrival)
        boundaries.append(start)
        check()  # one item in service
        queue.release(start + service)
        boundaries.append(start + service)
        check()
