"""The discrete-event engine shared by every layer of the reproduction.

One event loop and one set of queueing primitives, used — through the
executor work queues, the Anna storage nodes and the benchmark load drivers —
by the real request path (scheduler -> executor -> cache -> Anna) itself;
per-request :class:`~repro.sim.clock.SimClock` accounting rides on top.

Pieces:

* :class:`Engine` — a deterministic event loop over virtual milliseconds.
* :class:`RecurringEvent` — a self-rescheduling periodic event (update
  propagation flushes, anti-entropy gossip, autoscaler policy ticks) that
  pauses itself when the engine has no foreground work queued, so a periodic
  background task never keeps a finished run alive, and resumes when
  foreground work is scheduled again.
* :class:`WorkQueue` — a single-server FIFO queue with *open-ended* service:
  admission fixes the start time, the caller reports the end time after
  actually executing the work.  Executor threads use one of these, which is
  what turns ``ExecutorVM.utilization()`` into a queueing signal instead of
  an instantaneous counter.

Performance notes (``benchmarks/perf`` times the engine under each of its
workloads):

* The heap holds ``(at_ms, seq, event)`` tuples with a unique ``seq``, so heap
  sift comparisons stay in C tuple comparison and never reach an ``Event``.
* The pending counts (``stats()["pending"]``, ``foreground_pending``) are
  push/pop/cancel-maintained counters (they used to scan the whole heap —
  O(heap) per ``RecurringEvent`` firing, which made control-plane ticks
  quadratic at paper scale).
* A cancelled event stays in the heap until it reaches the head, where
  ``peek_ms``/``step`` drop it.  The only canceller is a stopped recurring
  tick, one dead entry per ``stop()``, popped within one tick interval.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple


class Event:
    """A scheduled callback.

    ``background`` marks housekeeping events (recurring maintenance ticks)
    that must not count as pending *work*: a run is considered drained when
    only background events remain.

    ``fn`` is cleared when the event fires or is cancelled (releasing the
    closure): ``fn is None`` means the event will not fire.  The heap entry
    holds its time and insertion order.
    """

    __slots__ = ("fn", "background")

    def __init__(self, fn: Callable[[], None], background: bool = False):
        self.fn = fn
        self.background = background


class Engine:
    """A deterministic discrete-event loop over virtual milliseconds.

    Events fire in ``(time, insertion order)`` order, so two runs that
    schedule the same events in the same order replay identically — the
    property the determinism tests assert on.
    """

    __slots__ = ("_heap", "_seq", "_now_ms", "_running",
                 "events_processed", "_pending", "_foreground", "_paused")

    def __init__(self, start_ms: float = 0.0):
        # Heap entries are (at_ms, seq, Event): tuple comparison never reaches
        # the Event (seq is unique), and stays in C.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._now_ms = float(start_ms)
        self._running = False
        self.events_processed = 0
        # O(1) accounting, maintained by at(), cancel() and step().
        self._pending = 0
        self._foreground = 0
        #: Recurring events waiting for foreground work: the next foreground
        #: event scheduled re-arms them.
        self._paused: List["RecurringEvent"] = []

    @property
    def now_ms(self) -> float:
        return self._now_ms

    @property
    def running(self) -> bool:
        """True while an event is being fired (``step``, alone or under ``run``).

        Blocking helpers (``CloudburstFuture.get``) check this: advancing
        virtual time from *inside* an engine event would re-enter the loop.
        """
        return self._running

    def peek_ms(self) -> Optional[float]:
        """Virtual time of the next pending event, or None when drained."""
        heap = self._heap
        while heap and heap[0][2].fn is None:
            heappop(heap)
        return heap[0][0] if heap else None

    @property
    def foreground_pending(self) -> int:
        """Pending events that represent real work (not maintenance ticks).

        Recurring background ticks use this to decide whether to keep
        rescheduling themselves: counting *all* pending events would let two
        periodic ticks keep each other — and an unbounded run — alive forever.
        O(1): a RecurringEvent firing must not pay a heap scan per tick.
        """
        return self._foreground

    def stats(self) -> Dict[str, float]:
        """The engine's O(1) loop counters.

        No snapshot or dump embeds them: ``benchmarks/perf`` reads
        ``events_processed``, and tests read ``pending``.
        """
        return {
            "now_ms": self._now_ms,
            "events_processed": self.events_processed,
            "pending": self._pending,
            "foreground_pending": self._foreground,
        }

    # -- scheduling --------------------------------------------------------
    def at(self, at_ms: float, fn: Callable[[], None],
           background: bool = False) -> Event:
        """Schedule ``fn`` at an absolute virtual time (clamped to now)."""
        at_ms = float(at_ms)
        if at_ms < self._now_ms:
            at_ms = self._now_ms
        seq = self._seq = self._seq + 1
        event = Event(fn, background)
        heappush(self._heap, (at_ms, seq, event))
        self._pending += 1
        if not background:
            self._foreground += 1
            if self._paused:
                self._resume_paused()
        return event

    def schedule(self, delay_ms: float, fn: Callable[[], None],
                 background: bool = False) -> Event:
        """Schedule ``fn`` after a relative delay (negative delays clamp)."""
        return self.at(self._now_ms + float(delay_ms), fn, background)

    def cancel(self, event: Event) -> None:
        """Drop a queued event; a fired or cancelled one is left alone."""
        if event.fn is None:
            return
        event.fn = None  # releases the closure; the entry is popped at the head
        self._pending -= 1
        if not event.background:
            self._foreground -= 1

    def _resume_paused(self) -> None:
        """Foreground work is back: paused recurring events tick again."""
        paused, self._paused = self._paused, []
        for recurring in paused:
            recurring._resume()

    def every(self, interval_ms: float, fn: Callable[[], None],
              horizon_ms: Optional[float] = None) -> "RecurringEvent":
        """Run ``fn`` every ``interval_ms`` of virtual time while work is queued.

        A recurring event is armed only while the engine has foreground
        events pending, so periodic background ticks (propagation flushes,
        gossip rounds, autoscaler policies) never spin on an idle engine: one
        created on an idle engine waits, and one that fires after the
        foreground workload drained does not reschedule itself.  It is
        paused, not finished — the next foreground event scheduled on the
        engine re-arms it one interval after that moment, so a component that
        lives as long as its engine ticks through every burst of work.

        ``horizon_ms`` keeps the tick armed on an otherwise idle engine for
        that much virtual time from now: control-plane policies need to
        observe the *end* of a load burst (zero arrivals, zero completions)
        to decide to scale down, which by definition happens after the
        foreground work drained.
        """
        if interval_ms <= 0:
            raise ValueError("recurring events need a positive interval")
        return RecurringEvent(self, float(interval_ms), fn, horizon_ms=horizon_ms)

    # -- execution ---------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        heap = self._heap
        while heap:
            at_ms, _seq, event = heappop(heap)
            fn = event.fn
            if fn is None:
                continue  # cancelled
            self._now_ms = at_ms
            self._pending -= 1
            if not event.background:
                self._foreground -= 1
            self.events_processed += 1
            event.fn = None
            was_running, self._running = self._running, True
            try:
                fn()
            finally:
                self._running = was_running
            return True
        return False

    def advance_to(self, at_ms: float) -> None:
        """Fire events until virtual time stands at ``at_ms``.

        ``step()``, never ``run()``: a blocked client is not a run of the
        engine.  The marker is a foreground event — a client waiting for an
        answer is pending work, so the recurring ticks keep firing.
        """
        reached: List[bool] = []
        self.at(at_ms, lambda: reached.append(True))
        while not reached:
            self.step()

    def run(self, until_ms: Optional[float] = None) -> None:
        """Drain the event queue.

        Stops when the queue empties, or when the next event lies beyond
        ``until_ms`` — in which case virtual time advances *to* ``until_ms``
        and the remaining events stay queued.
        """
        if self._running:
            raise RuntimeError(
                "Engine.run() is not reentrant: an engine event tried to drain "
                "the loop it is running on (block with future.add_done_callback "
                "instead of future.get() inside engine events)")
        while True:
            next_ms = self.peek_ms()
            if next_ms is None or (until_ms is not None and next_ms > until_ms):
                break
            self.step()
        if until_ms is not None and until_ms != float("inf"):
            self._now_ms = max(self._now_ms, float(until_ms))


class RecurringEvent:
    """A periodic engine event that ticks only while the engine has work.

    Created through :meth:`Engine.every`.  ``cancel`` stops it permanently;
    otherwise the callback fires every interval for as long as the engine has
    foreground events pending (or the horizon has not passed) when the event
    is created and when each firing completes.  Whenever that is not so it
    waits in the engine's paused list, and starts firing again one interval
    after foreground work returns.
    """

    __slots__ = ("engine", "interval_ms", "fn", "cancelled", "_event",
                 "horizon_ms")

    def __init__(self, engine: Engine, interval_ms: float, fn: Callable[[], None],
                 horizon_ms: Optional[float] = None):
        self.engine = engine
        self.interval_ms = interval_ms
        self.fn = fn
        self.cancelled = False
        #: Absolute virtual time up to which the tick survives an idle engine.
        self.horizon_ms = (None if horizon_ms is None
                           else engine.now_ms + horizon_ms)
        self._event: Optional[Event] = None
        self._arm()

    def _arm(self) -> None:
        """Schedule the next firing, or wait for foreground work to return."""
        if self.cancelled:
            return
        engine = self.engine
        # Slots read directly: this runs once per firing of every tick.
        if engine._foreground > 0 or (
                self.horizon_ms is not None
                and engine._now_ms + self.interval_ms <= self.horizon_ms):
            self._event = engine.schedule(
                self.interval_ms, self._fire, background=True)
        else:
            self._event = None
            engine._paused.append(self)

    def _resume(self) -> None:
        """Foreground work is back (called by the engine): tick again."""
        if not self.cancelled:
            self._event = self.engine.schedule(
                self.interval_ms, self._fire, background=True)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fn()
        self._arm()

    def cancel(self) -> None:
        self.cancelled = True
        if self._event is not None:
            self.engine.cancel(self._event)
            self._event = None


class WorkQueue:
    """Single-server FIFO queue whose service times are discovered by running.

    The executor path cannot know a request's service time up front — it is
    whatever the function charges to its request context while executing.  So
    admission works in two phases: :meth:`admit` fixes the service start time
    (``max(arrival, next_free)``), the caller runs the work on its virtual
    clock, and :meth:`release` reports the observed end time.

    Because callers execute synchronously between ``admit`` and ``release``,
    per-queue busy intervals are appended in non-decreasing order, which keeps
    every metric query a binary search.

    ``watcher``, when set, is told of every ``admit`` and ``release``
    (``watcher.admitted(queue)`` / ``watcher.released(queue)``, after the
    queue has changed): an executor thread's queue tells the cluster's
    idle roster (``repro.cloudburst.policy.IdleRoster``).
    """

    __slots__ = ("bound", "label", "next_free_ms", "busy_ms", "completed",
                 "watcher", "_ends", "_in_service_start")

    def __init__(self, bound: Optional[int] = None, label: str = ""):
        if bound is not None and bound <= 0:
            raise ValueError("work queue bound must be positive (or None)")
        self.bound = bound
        self.label = label
        self.next_free_ms = 0.0
        self.busy_ms = 0.0
        self.completed = 0
        self.watcher = None
        self._ends: List[float] = []
        self._in_service_start: Optional[float] = None

    # -- admission ---------------------------------------------------------
    def admit(self, arrival_ms: float) -> float:
        """Reserve the server; returns the service start time (>= arrival)."""
        if self._in_service_start is not None:
            raise RuntimeError(f"work queue {self.label!r} admitted re-entrantly")
        start = max(float(arrival_ms), self.next_free_ms)
        self._in_service_start = start
        if self.watcher is not None:
            self.watcher.admitted(self)
        return start

    def release(self, end_ms: float) -> None:
        """Report the observed end of the admitted work item."""
        if self._in_service_start is None:
            raise RuntimeError(f"work queue {self.label!r} released without admit")
        start = self._in_service_start
        self._in_service_start = None
        end = max(float(end_ms), start)
        self.next_free_ms = max(self.next_free_ms, end)
        self.busy_ms += end - start
        self.completed += 1
        self._ends.append(end)
        if self.watcher is not None:
            self.watcher.released(self)

    # -- metrics -----------------------------------------------------------
    def busy_at(self, at_ms: float) -> bool:
        """Whether the server has reserved work at (or beyond) ``at_ms``.

        ``not busy_at(t)`` implies ``depth(t) == 0``: load readers ask this
        first and skip the depth of an idle queue.
        """
        return self.next_free_ms > at_ms or self._in_service_start is not None

    def depth(self, at_ms: float) -> int:
        """Items in service or reserved to run after ``at_ms`` (queue depth)."""
        in_service = 0 if self._in_service_start is None else 1
        # ``next_free_ms`` is the last recorded end: a server free by
        # ``at_ms`` has no reservation past it, whatever its history holds.
        if self.next_free_ms <= at_ms:
            return in_service
        return len(self._ends) - bisect_right(self._ends, at_ms) + in_service


class ReservationQueue:
    """Single-server queue for known service times and out-of-order arrivals.

    Storage nodes need a different queue than executor threads.  An executor's
    :class:`WorkQueue` assumes callers arrive in non-decreasing virtual time —
    true for engine events, which fire in timestamp order.  But a storage
    operation happens *mid-callback*, at whatever the caller's private request
    clock reads, and two concurrently-executing callbacks reach the same node
    at times that interleave arbitrarily.  A tail-based queue would block a
    logically-earlier operation behind a later one's tail and charge a
    spurious wait equal to the callbacks' skew.

    Since storage service times are known up front (the deterministic
    :class:`~repro.anna.storage_node.StorageServiceModel`), the server can
    instead keep its reserved busy intervals and place each new operation in
    the first idle gap at-or-after its arrival.  Arrivals that really contend
    (overlapping reservations) queue behind each other; arrivals that merely
    *observe* out of order slot into the gaps they would have used had they
    been processed in timestamp order.

    The ``list.insert`` mid-array shift this implies is bounded by the
    compaction limit below (a single C memmove into a <=8192 entry array).
    The *walk* is not: behind a deep backlog a per-interval walk steps over
    each back-to-back interval in turn (44 per reservation on average at
    Fig 12's 160 threads).  So the queue also keeps its intervals coalesced into
    *runs* of exactly touching intervals (``end == next start``) and walks
    runs.  Inside a run the fit test can never pass — the candidate start is
    the previous end, which *is* the next start, and the service is positive
    — so the walk lands on the start the per-interval walk would, compared
    on the same stored floats.  (This needs ``t + service > t`` for every
    busy time ``t``: a service below half an ulp of the clock would book an
    empty interval inside a run.  Storage services are microseconds against
    clocks of at most hours.)  The per-interval lists stay: ``depth`` counts
    reservations, not runs.  An arrival after every booked interval (a
    drained server, the common case below saturation) appends without a
    walk or a bisect.
    """

    __slots__ = ("bound", "label", "busy_ms", "completed", "_starts", "_ends",
                 "_run_starts", "_run_ends")

    #: Compact the interval history once it exceeds this many entries...
    _COMPACT_LIMIT = 8192
    #: ...keeping the most recent this-many (old intervals ended long before
    #: any arrival that can still occur, so dropping them cannot change
    #: placements except for pathologically stale request clocks, which then
    #: see an idle server — an undercount of ancient contention, never a
    #: spurious wait).
    _COMPACT_KEEP = 4096

    def __init__(self, bound: Optional[int] = None, label: str = ""):
        if bound is not None and bound <= 0:
            raise ValueError("reservation queue bound must be positive (or None)")
        self.bound = bound
        self.label = label
        self.busy_ms = 0.0
        self.completed = 0
        # Non-overlapping busy intervals, sorted (both lists share the order).
        self._starts: List[float] = []
        self._ends: List[float] = []
        # The same intervals, exactly touching neighbours coalesced.
        self._run_starts: List[float] = []
        self._run_ends: List[float] = []

    def reserve(self, arrival_ms: float, service_ms: float) -> float:
        """Book ``service_ms`` of server time; returns the start (>= arrival)."""
        arrival = float(arrival_ms)
        service = float(service_ms)
        if service <= 0.0:
            return arrival
        starts = self._starts
        ends = self._ends
        run_starts = self._run_starts
        run_ends = self._run_ends
        if not ends or arrival >= ends[-1]:
            # The server has drained by the arrival: book at the tail.
            start = arrival
            end = start + service
            starts.append(start)
            ends.append(end)
            if run_ends and run_ends[-1] == start:
                run_ends[-1] = end
            else:
                run_starts.append(start)
                run_ends.append(end)
        else:
            # First busy run that ends after the arrival; everything before it
            # is history this reservation cannot overlap.  Stop at the first
            # gap that fits the whole service.
            run = bisect_right(run_ends, arrival)
            runs = len(run_starts)
            start = arrival
            while run < runs and start + service > run_starts[run]:
                start = run_ends[run]
                run += 1
            end = start + service
            index = bisect_right(ends, start)
            starts.insert(index, start)
            ends.insert(index, end)
            joins_before = run > 0 and run_ends[run - 1] == start
            if run < runs and run_starts[run] == end:
                if joins_before:
                    run_ends[run - 1] = run_ends[run]
                    del run_starts[run]
                    del run_ends[run]
                else:
                    run_starts[run] = start
            elif joins_before:
                run_ends[run - 1] = end
            else:
                run_starts.insert(run, start)
                run_ends.insert(run, end)
        self.busy_ms += service
        self.completed += 1
        count = len(ends)
        if count > self._COMPACT_LIMIT:
            cut = count - self._COMPACT_KEEP
            del starts[:cut]
            del ends[:cut]
            # Drop the runs that ended with the dropped intervals; the run
            # holding the first kept interval now starts there.
            first = bisect_left(run_ends, ends[0])
            del run_starts[:first]
            del run_ends[:first]
            run_starts[0] = starts[0]
        return start

    # -- metrics -----------------------------------------------------------
    def depth(self, at_ms: float) -> int:
        """Reservations still unfinished at ``at_ms`` (in service or queued)."""
        return len(self._ends) - bisect_right(self._ends, at_ms)

    def is_full(self, at_ms: float) -> bool:
        return self.bound is not None and self.depth(at_ms) >= self.bound
