"""Unit tests for the shared discrete-event engine and its queue primitives."""

import pytest

from repro.sim import (
    Engine,
    ReservationQueue,
    WorkQueue,
)


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.at(5.0, lambda: fired.append("b"))
        engine.at(1.0, lambda: fired.append("a"))
        engine.at(9.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]
        assert engine.now_ms == 9.0

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        fired = []
        for name in ("first", "second", "third"):
            engine.at(4.0, lambda n=name: fired.append(n))
        engine.run()
        assert fired == ["first", "second", "third"]

    def test_schedule_is_relative_to_now(self):
        engine = Engine()
        times = []
        engine.at(10.0, lambda: engine.schedule(5.0, lambda: times.append(engine.now_ms)))
        engine.run()
        assert times == [15.0]

    def test_past_timestamps_clamp_to_now(self):
        engine = Engine()
        times = []
        engine.at(10.0, lambda: engine.at(3.0, lambda: times.append(engine.now_ms)))
        engine.run()
        assert times == [10.0]

    def test_cancelled_events_do_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.at(1.0, lambda: fired.append("no"))
        engine.at(0.5, lambda: engine.cancel(event))
        engine.run()
        assert fired == []

    def test_run_until_leaves_later_events_queued(self):
        engine = Engine()
        fired = []
        engine.at(1.0, lambda: fired.append(1))
        engine.at(50.0, lambda: fired.append(50))
        engine.run(until_ms=10.0)
        assert fired == [1]
        assert engine.now_ms == 10.0
        assert engine.pending == 1

    def test_events_scheduled_while_running(self):
        engine = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.schedule(1.0, lambda: chain(n + 1))

        engine.at(0.0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now_ms == 3.0


class TestPendingCounters:
    """The O(1) pending/foreground_pending counters (no heap scans)."""

    def test_counters_track_schedule_cancel_fire(self):
        engine = Engine()
        assert engine.pending == 0
        assert engine.foreground_pending == 0
        fg = engine.at(1.0, lambda: None)
        bg = engine.at(2.0, lambda: None, background=True)
        assert engine.pending == 2
        assert engine.foreground_pending == 1
        engine.cancel(bg)
        assert engine.pending == 1
        assert engine.foreground_pending == 1
        engine.step()  # fires fg
        assert engine.pending == 0
        assert engine.foreground_pending == 0
        # Cancelling after the fact must not drive the counters negative.
        engine.cancel(fg)
        engine.cancel(bg)
        assert engine.pending == 0
        assert engine.foreground_pending == 0

    def test_double_cancel_counts_once(self):
        engine = Engine()
        event = engine.at(1.0, lambda: None)
        engine.cancel(event)
        engine.cancel(event)
        assert engine.pending == 0

    def test_counters_agree_with_heap_contents(self):
        engine = Engine()
        events = [engine.at(float(i), lambda: None, background=(i % 3 == 0))
                  for i in range(30)]
        for event in events[::2]:
            engine.cancel(event)
        live = [entry[2] for entry in engine._heap if not entry[2].cancelled]
        assert engine.pending == len(live)
        assert engine.foreground_pending == sum(
            1 for event in live if not event.background)

    def test_tombstone_compaction_bounds_heap(self):
        engine = Engine()
        keeper = engine.at(1e9, lambda: None)
        # Far more cancellations than the compaction threshold: the heap must
        # not retain one tombstone per cancelled event.
        for _ in range(5):
            events = [engine.at(float(i), lambda: None) for i in range(400)]
            for event in events:
                engine.cancel(event)
        assert engine.pending == 1
        assert len(engine._heap) < 1200
        engine.run()
        assert keeper.fn is None  # still fired despite the churn

    def test_mid_run_compaction_keeps_run_loop_live(self):
        # Regression: cancel()'s tombstone compaction used to rebind
        # self._heap to a new list while run() held a cached alias, so a
        # callback cancelling >_TOMBSTONE_COMPACT_MIN events stranded the
        # running loop on the stale heap (later events never fired, counters
        # went negative, and the next run() crashed on already-fired entries).
        engine = Engine()
        fired = []
        victims = [engine.at(10.0 + i, lambda: fired.append("victim"))
                   for i in range(700)]

        def cancel_all():
            for event in victims:
                engine.cancel(event)
            # Scheduled after compaction: must land on the live heap.
            engine.schedule(1.0, lambda: fired.append("after"))

        engine.at(1.0, cancel_all)
        engine.at(2000.0, lambda: fired.append("tail"))
        engine.run()
        assert fired == ["after", "tail"]
        assert engine.pending == 0
        assert engine._tombstones == 0
        # A second run on the same engine must also work.
        engine.at(3000.0, lambda: fired.append("second"))
        engine.run()
        assert fired == ["after", "tail", "second"]

    def test_peek_ms_skips_cancelled_head(self):
        engine = Engine()
        early = engine.at(1.0, lambda: None)
        engine.at(5.0, lambda: None)
        engine.cancel(early)
        assert engine.peek_ms() == 5.0
        engine.run()
        assert engine.peek_ms() is None


class TestRecurringEvent:
    def test_never_fires_on_an_idle_engine(self):
        engine = Engine()
        fired = []
        engine.every(10.0, lambda: fired.append(engine.now_ms))
        assert engine.pending == 0
        engine.run()
        assert fired == []

    def test_ticks_while_foreground_work_is_pending_then_pauses(self):
        engine = Engine()
        fired = []
        engine.at(35.0, lambda: None)
        engine.every(10.0, lambda: fired.append(engine.now_ms))
        engine.run()
        # The firing after the work drained finds nothing pending and does
        # not reschedule: the run ends instead of spinning.
        assert fired == [10.0, 20.0, 30.0, 40.0]
        assert engine.pending == 0

    def test_resumes_one_interval_after_foreground_work_returns(self):
        engine = Engine()
        fired = []
        engine.every(10.0, lambda: fired.append(engine.now_ms))
        engine.at(15.0, lambda: None)
        engine.run()
        assert fired == [10.0, 20.0]
        # Idle gap, then a second burst on the same engine.
        engine.run(until_ms=100.0)
        assert fired == [10.0, 20.0]
        engine.at(125.0, lambda: None)
        engine.run()
        assert fired == [10.0, 20.0, 110.0, 120.0, 130.0]

    def test_background_events_do_not_wake_a_paused_tick(self):
        engine = Engine()
        fired = []
        engine.every(10.0, lambda: fired.append(engine.now_ms))
        engine.at(50.0, lambda: None, background=True)
        engine.run()
        assert fired == []

    def test_cancelled_while_paused_stays_cancelled(self):
        engine = Engine()
        fired = []
        recurring = engine.every(10.0, lambda: fired.append(engine.now_ms))
        recurring.cancel()
        engine.at(35.0, lambda: None)
        engine.run()
        assert fired == []

    def test_horizon_keeps_ticking_on_idle_engine(self):
        engine = Engine()
        fired = []
        engine.every(10.0, lambda: fired.append(engine.now_ms), horizon_ms=55.0)
        engine.run()
        # Control-plane ticks must outlive the foreground workload (to see
        # the end of a burst), but never beyond the horizon.
        assert fired == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_horizon_tick_still_cancellable(self):
        engine = Engine()
        fired = []
        recurring = engine.every(10.0, lambda: fired.append(engine.now_ms),
                                 horizon_ms=100.0)
        engine.at(25.0, recurring.cancel)
        engine.run()
        assert fired == [10.0, 20.0]


class TestWorkQueue:
    def test_admit_when_idle_starts_immediately(self):
        queue = WorkQueue()
        assert queue.admit(10.0) == 10.0
        queue.release(25.0)
        assert queue.next_free_ms == 25.0
        assert queue.busy_ms == 15.0

    def test_fifo_wait_behind_earlier_work(self):
        queue = WorkQueue()
        queue.admit(0.0)
        queue.release(40.0)
        start = queue.admit(10.0)
        assert start == 40.0
        queue.release(55.0)
        assert queue.completed == 2

    def test_depth_counts_in_service_and_future(self):
        queue = WorkQueue()
        queue.admit(0.0)
        queue.release(10.0)
        queue.admit(0.0)  # reserved [10, ...)
        assert queue.depth(5.0) == 2
        queue.release(20.0)
        assert queue.depth(5.0) == 2
        assert queue.depth(15.0) == 1
        assert queue.depth(25.0) == 0

    def test_bound_and_is_full(self):
        queue = WorkQueue(bound=2)
        queue.admit(0.0)
        queue.release(10.0)
        queue.admit(0.0)
        queue.release(20.0)
        assert queue.is_full(5.0)
        assert not queue.is_full(15.0)

    def test_reentrant_admit_rejected(self):
        queue = WorkQueue()
        queue.admit(0.0)
        with pytest.raises(RuntimeError):
            queue.admit(1.0)

    def test_release_without_admit_rejected(self):
        with pytest.raises(RuntimeError):
            WorkQueue().release(1.0)

    def test_depth_and_busy_time_across_disjoint_runs(self):
        queue = WorkQueue()
        queue.admit(0.0)
        queue.release(10.0)
        queue.admit(20.0)
        queue.release(30.0)
        assert queue.busy_ms == 20.0
        assert queue.completed == 2
        assert [queue.depth(t) for t in (5.0, 12.0, 25.0, 30.0)] == [2, 1, 1, 0]


class TestReservationQueue:
    def test_idle_server_starts_immediately(self):
        queue = ReservationQueue()
        assert queue.reserve(10.0, 5.0) == 10.0
        assert queue.busy_ms == 5.0
        assert queue.completed == 1

    def test_contending_arrivals_queue_fifo(self):
        queue = ReservationQueue()
        assert queue.reserve(0.0, 10.0) == 0.0
        assert queue.reserve(5.0, 10.0) == 10.0
        assert queue.reserve(5.0, 10.0) == 20.0

    def test_out_of_order_arrival_backfills_idle_gap(self):
        # The property WorkQueue lacks: an operation arriving at an *earlier*
        # virtual time than an existing reservation slots into the idle gap
        # instead of waiting behind the later reservation's tail.
        queue = ReservationQueue()
        assert queue.reserve(100.0, 5.0) == 100.0
        assert queue.reserve(0.0, 5.0) == 0.0
        assert queue.busy_ms == 10.0
        # A gap too small for the service is skipped, not squeezed into.
        assert queue.reserve(97.0, 5.0) == 105.0

    def test_gap_between_reservations_is_used_when_large_enough(self):
        queue = ReservationQueue()
        queue.reserve(0.0, 10.0)      # [0, 10)
        queue.reserve(50.0, 10.0)     # [50, 60)
        assert queue.reserve(20.0, 10.0) == 20.0   # fits in [10, 50)
        assert queue.reserve(15.0, 30.0) == 60.0   # does not fit anywhere earlier

    def test_zero_service_never_occupies(self):
        queue = ReservationQueue(bound=1)
        assert queue.reserve(5.0, 0.0) == 5.0
        assert queue.depth(5.0) == 0
        assert not queue.is_full(5.0)

    def test_depth_and_bound(self):
        queue = ReservationQueue(bound=2)
        queue.reserve(0.0, 10.0)
        queue.reserve(0.0, 10.0)
        assert queue.depth(5.0) == 2
        assert queue.is_full(5.0)
        assert not queue.is_full(25.0)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            ReservationQueue(bound=0)

    def test_busy_at_tracks_last_reservation(self):
        queue = ReservationQueue()
        assert not queue.busy_at(0.0)
        queue.reserve(0.0, 10.0)
        assert queue.busy_at(5.0)
        assert not queue.busy_at(10.0)

    def test_history_is_compacted_but_totals_survive(self):
        queue = ReservationQueue()
        total = ReservationQueue._COMPACT_LIMIT + 10
        for index in range(total):
            queue.reserve(index * 10.0, 1.0)
        assert len(queue._starts) <= ReservationQueue._COMPACT_LIMIT
        assert queue.completed == total
        assert queue.busy_ms == float(total)
        # Recent contention still queues correctly after compaction.
        last_start = (total - 1) * 10.0
        assert queue.reserve(last_start, 1.0) == last_start + 1.0
