"""Engine-throughput microbenchmark: how fast is the discrete-event core?

Every layer of the reproduction — executor work queues, Anna storage nodes,
gossip, the compute control plane — runs as events on
:class:`~repro.sim.engine.Engine`, so raw engine overhead is the throughput
ceiling for every figure (the ROADMAP's "as fast as the hardware allows"
item).  This module measures that overhead directly, with no Cloudburst stack
in the way, and publishes the numbers into ``BENCH_throughput.json`` as the
``engine_throughput`` section so each optimization PR has to *prove* its win.

Scenarios (all deterministic: fixed event counts, no RNG, no wall-clock
dependence in the simulated workload itself):

* ``event_dispatch`` — many interleaved chains of self-rescheduling events:
  the bare heap push/pop/fire loop.
* ``cancel_churn`` — schedule/cancel interleavings: tombstone handling and
  the O(1) pending counters under churn.
* ``recurring_ticks`` — hundreds of :class:`RecurringEvent` maintenance
  ticks (10k firings) riding alongside a foreground chain: the control-plane
  shape that made ``foreground_pending`` the hot spot (each firing used to
  scan the whole heap).
* ``charge_log`` — :class:`RequestContext` latency charges with a clock
  read per charge: per-charge accounting cost, with and without the
  itemised charge log.
* ``reservation_queue`` — :class:`ReservationQueue` out-of-order
  reservations: the mid-array insert cost the tentpole asked to measure.
* ``multi_get`` — cold :meth:`ExecutorCache.multi_get` batches of 1/8/64
  keys: the batched read plane's fork/join wall cost, plus the *virtual*
  overlap win (sequential sum vs batched clock) that the fig12 fix rests
  on.  Gated on both: keys/sec (host CPU) and the overlap ratio (virtual).

The headline ``events_per_sec`` aggregates the three engine-loop scenarios
(total events fired / total seconds); the per-primitive scenarios are
reported alongside.  ``FLOOR_EVENTS_PER_SEC`` is the regression gate:
dropping below it means the engine's optimization win has been lost
entirely (the floor leaves headroom for slower CI hardware).

Every scenario is timed on the process CPU clock (``time.process_time``): a
busy neighbour stretches wall time but not the CPU seconds the loop itself
spent, so the host-speed gates stop tripping on machine noise.  The
scenarios' ``wall_seconds`` keys keep their name for the snapshot layout.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

from ..sim import Engine, RequestContext, SimClock
from ..sim.engine import ReservationQueue

#: Regression-gate floor for the headline events/sec.  Falling below this
#: means the engine is no faster than before the optimization pass (with
#: headroom for slower CI runners); the ``engine_throughput`` gate of
#: :mod:`repro.bench.figures` fails on it.
FLOOR_EVENTS_PER_SEC: float = 100_000.0

#: Gates for the batched read plane.  The overlap ratio is *virtual* time —
#: deterministic with jitter off, so the bar can be tight: a cold batch of 64
#: must finish at least this many times faster than 64 sequential misses
#: (the caller pays max + dispatch, not the sum).  The keys/sec floor is
#: host time — the fork/join bookkeeping must stay cheap enough that
#: batching never becomes the harness bottleneck it was built to remove.
MULTI_GET_MIN_OVERLAP_RATIO: float = 8.0
MULTI_GET_FLOOR_KEYS_PER_SEC: float = 5_000.0

#: Gate for the tracing instrumentation's disabled-path cost: the
#: span-guarded dispatch loop (tracer at sample_rate 0, so every guard is
#: one ``span is not None`` check) must stay within this percentage of the
#: unguarded loop.  The observability plane's zero-cost-when-off contract,
#: measured rather than asserted.
TRACING_OVERHEAD_MAX_PCT: float = 10.0


def _timed(fn: Callable[[], Dict[str, float]]) -> Dict[str, float]:
    started = time.process_time()
    payload = fn()
    payload["wall_seconds"] = round(time.process_time() - started, 4)
    return payload


def bench_event_dispatch(chains: int = 64, events_per_chain: int = 2_000) -> Dict[str, float]:
    """Interleaved self-rescheduling chains: the bare dispatch loop."""
    engine = Engine()

    def make_chain(offset: float) -> Callable[[], None]:
        remaining = [events_per_chain]

        def fire() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                engine.schedule(1.0 + offset, fire)

        return fire

    for chain in range(chains):
        engine.at(chain * 0.01, make_chain(chain * 0.001))
    engine.run()
    return {"events": float(engine.events_processed)}


def bench_cancel_churn(rounds: int = 20_000, fanout: int = 8) -> Dict[str, float]:
    """Schedule ``fanout`` events per round, cancel half: tombstone churn."""
    engine = Engine()
    noop = lambda: None  # noqa: E731 - the cheapest possible event body

    def round_fire(round_index: int) -> None:
        scheduled = [engine.schedule(float(slot + 1), noop)
                     for slot in range(fanout)]
        for event in scheduled[::2]:
            engine.cancel(event)
        # The counters must agree mid-churn; reading them is part of the
        # benchmark (they were O(heap) scans before the optimization pass).
        assert engine.pending >= engine.foreground_pending
        if round_index + 1 < rounds:
            engine.schedule(0.5, lambda: round_fire(round_index + 1))

    engine.at(0.0, lambda: round_fire(0))
    engine.run()
    return {"events": float(engine.events_processed)}


def bench_recurring_ticks(recurring: int = 500, firings_per_tick: int = 20,
                          interval_ms: float = 10.0) -> Dict[str, float]:
    """10k maintenance-tick firings alongside a foreground chain.

    Every :class:`RecurringEvent` firing consults ``foreground_pending`` to
    decide whether to reschedule itself — the control-plane/gossip shape that
    made pending-count scans the profile's hot spot at paper scale.
    """
    engine = Engine()
    horizon_ms = interval_ms * firings_per_tick
    ticks = [engine.every(interval_ms, lambda: None, horizon_ms=horizon_ms)
             for _ in range(recurring)]

    def foreground() -> None:
        if engine.now_ms < horizon_ms:
            engine.schedule(1.0, foreground)

    engine.at(0.0, foreground)
    engine.run()
    for tick in ticks:
        tick.cancel()
    return {
        "events": float(engine.events_processed),
        "tick_firings": float(sum(tick.fired for tick in ticks)),
        "simulated_ms": float(engine.now_ms),
    }


def bench_charge_log(contexts: int = 2_000, charges_per_context: int = 60,
                     record_charges: bool = True) -> Dict[str, float]:
    """Per-charge accounting with a latency read after every charge.

    This is the executor/cache/Anna accounting pattern: charge a latency,
    read how far the request's clock has moved since it started.
    """
    total = 0.0
    for index in range(contexts):
        start_ms = float(index)
        ctx = RequestContext(clock=SimClock(start_ms),
                             record_charges=record_charges)
        for charge in range(charges_per_context):
            ctx.charge("bench", "op", 0.25)
            total += ctx.clock.now_ms - start_ms
    return {"charges": float(contexts * charges_per_context),
            "checksum": round(total, 3)}


def bench_reservation_queue(reservations: int = 30_000) -> Dict[str, float]:
    """Out-of-order reservations: the mid-array insert cost, measured.

    Arrivals jitter backwards deterministically (the concurrent-callback skew
    the queue exists to absorb), so inserts land mid-array instead of
    appending.
    """
    queue = ReservationQueue()
    for index in range(reservations):
        jitter = (index * 7919) % 97  # deterministic pseudo-skew, no RNG
        arrival = float(index) * 2.0 - float(jitter)
        queue.reserve(max(0.0, arrival), 1.5)
    return {"reservations": float(reservations),
            "retained_intervals": float(len(queue._starts))}


def bench_multi_get(rounds: int = 30,
                    batch_sizes: tuple = (1, 8, 64)) -> Dict[str, float]:
    """Cold multi_get batches: wall cost of the fork/join plane + overlap win.

    Every round evicts the batch and re-reads it cold through
    :meth:`ExecutorCache.multi_get`, so each key pays a full (jitter-free)
    Anna round trip on a forked branch.  ``events`` counts keys fetched (the
    wall-rate denominator); ``batch_N_virtual_ms`` records the deterministic
    simulated latency of one batch, and ``overlap_ratio`` is the virtual win
    of the largest batch over the equivalent sequential miss chain.
    """
    from ..anna import AnnaCluster
    from ..cloudburst import ExecutorCache
    from ..lattices import LWWLattice, Timestamp
    from ..sim import LatencyModel

    payload: Dict[str, float] = {}
    total_keys = 0
    for size in batch_sizes:
        anna = AnnaCluster(node_count=4, replication_factor=2,
                           latency_model=LatencyModel(jitter_enabled=False))
        cache = ExecutorCache(f"bench-{size}", anna, peer_registry={})
        keys = [f"k{index}" for index in range(size)]
        for key in keys:
            anna.background_put(key, LWWLattice(Timestamp(1.0, "bench"), "v"))
        virtual_ms = now_ms = 0.0
        for _ in range(rounds):
            for key in keys:
                cache.evict(key)
            # Each round starts where the last one ended: the storage nodes'
            # queues live on one clock, so rounds must not pile up at zero.
            ctx = RequestContext(clock=SimClock(now_ms))
            cache.multi_get(list(keys), ctx)
            virtual_ms, now_ms = ctx.clock.now_ms - now_ms, ctx.clock.now_ms
        payload[f"batch_{size}_virtual_ms"] = round(virtual_ms, 4)
        total_keys += rounds * size
    payload["events"] = float(total_keys)
    largest = max(batch_sizes)
    sequential_ms = payload[f"batch_{min(batch_sizes)}_virtual_ms"] * largest
    batched_ms = payload[f"batch_{largest}_virtual_ms"]
    payload["overlap_ratio"] = round(
        sequential_ms / batched_ms if batched_ms > 0 else 0.0, 2)
    return payload


def bench_tracing_overhead(requests: int = 8_000, sites_per_request: int = 12,
                           pairs: int = 7) -> Dict[str, float]:
    """Dispatch throughput with tracing instrumentation present but disabled.

    Each event charges ``sites_per_request`` latencies the way the real
    instrumentation points do — a ``ctx.charge`` with a ``span is not None``
    guard next to it.  The *bare* variant runs the identical loop without the
    guards; the ratio is the whole cost of carrying the observability plane
    while it is off.  The tracer runs at ``sample_rate=0``, so no span is
    ever created.

    ``pairs`` bare/guarded pairs run back to back, alternating which goes
    first, and the overhead is the median of the per-pair guarded/bare
    ratios: host drift between two separate blocks of loops would read as
    overhead.  ``bare_seconds`` and ``guarded_seconds`` are the median loop
    times of each side.  One untimed bare/guarded pair runs first: in a
    fresh process the first loops read up to 20% apart while the
    interpreter warms, and later ones read 0-2% (DESIGN.md DR-30).
    """
    from ..obs import Tracer

    tracer = Tracer(sample_rate=0.0)

    def run_once(guarded: bool) -> float:
        engine = Engine()
        ctx = RequestContext(clock=SimClock(0.0), record_charges=False)
        # start_trace at rate 0 returns None: the guard below is the real
        # disabled-path shape, not a synthetic always-false flag.
        ctx.span = tracer.start_trace("request", "bench", 0.0)
        remaining = [requests]

        def fire_guarded() -> None:
            span = ctx.span
            for _ in range(sites_per_request):
                ctx.charge("bench", "op", 0.01)
                if span is not None:
                    span.child("op", "bench", ctx.clock.now_ms).finish(
                        ctx.clock.now_ms)
            remaining[0] -= 1
            if remaining[0] > 0:
                engine.schedule(1.0, fire_guarded)

        def fire_bare() -> None:
            for _ in range(sites_per_request):
                ctx.charge("bench", "op", 0.01)
            remaining[0] -= 1
            if remaining[0] > 0:
                engine.schedule(1.0, fire_bare)

        engine.at(0.0, fire_guarded if guarded else fire_bare)
        started = time.process_time()
        engine.run()
        return time.process_time() - started

    run_once(False)
    run_once(True)
    bare: List[float] = []
    guarded: List[float] = []
    for index in range(pairs):
        for is_guarded in ((False, True) if index % 2 == 0 else (True, False)):
            (guarded if is_guarded else bare).append(run_once(is_guarded))
    ratio = statistics.median(g / b for g, b in zip(guarded, bare) if b > 0)
    bare_s, guarded_s = statistics.median(bare), statistics.median(guarded)
    overhead_pct = max(0.0, ratio - 1.0) * 100.0
    return {
        "events": float(requests),
        "sites_per_request": float(sites_per_request),
        "bare_seconds": round(bare_s, 4),
        "guarded_seconds": round(guarded_s, 4),
        "overhead_pct": round(overhead_pct, 2),
        "spans_created": float(len(tracer)),  # must be 0 at sample_rate=0
    }


def run_engine_micro() -> Dict[str, object]:
    """Run every scenario; returns the ``engine_throughput`` JSON section."""
    scenarios: Dict[str, Dict[str, float]] = {
        "event_dispatch": _timed(bench_event_dispatch),
        "cancel_churn": _timed(bench_cancel_churn),
        "recurring_ticks": _timed(bench_recurring_ticks),
        "charge_log": _timed(bench_charge_log),
        "charge_log_unlogged": _timed(
            lambda: bench_charge_log(record_charges=False)),
        "reservation_queue": _timed(bench_reservation_queue),
        "multi_get": _timed(bench_multi_get),
        "tracing_overhead": _timed(bench_tracing_overhead),
    }
    engine_scenarios = ("event_dispatch", "cancel_churn", "recurring_ticks")
    engine_events = sum(scenarios[name]["events"] for name in engine_scenarios)
    engine_wall = sum(scenarios[name]["wall_seconds"] for name in engine_scenarios)
    events_per_sec = engine_events / engine_wall if engine_wall > 0 else 0.0
    ticks = scenarios["recurring_ticks"]
    sim_ms_per_wall_ms = (ticks["simulated_ms"] / (ticks["wall_seconds"] * 1000.0)
                          if ticks["wall_seconds"] > 0 else 0.0)
    for name in ("charge_log", "charge_log_unlogged"):
        wall = scenarios[name]["wall_seconds"]
        scenarios[name]["charges_per_sec"] = round(
            scenarios[name]["charges"] / wall if wall > 0 else 0.0, 1)
    queue = scenarios["reservation_queue"]
    queue["reservations_per_sec"] = round(
        queue["reservations"] / queue["wall_seconds"]
        if queue["wall_seconds"] > 0 else 0.0, 1)
    multi_get = scenarios["multi_get"]
    multi_get_wall = multi_get["wall_seconds"]
    multi_get_keys_per_sec = round(
        multi_get["events"] / multi_get_wall if multi_get_wall > 0 else 0.0, 1)
    return {
        "schema": 3,
        "events_per_sec": round(events_per_sec, 1),
        "sim_ms_per_wall_ms": round(sim_ms_per_wall_ms, 1),
        "scenarios": scenarios,
        "floor_events_per_sec": FLOOR_EVENTS_PER_SEC,
        "multi_get_keys_per_sec": multi_get_keys_per_sec,
        "multi_get_floor_keys_per_sec": MULTI_GET_FLOOR_KEYS_PER_SEC,
        "multi_get_overlap_ratio": multi_get["overlap_ratio"],
        "multi_get_min_overlap_ratio": MULTI_GET_MIN_OVERLAP_RATIO,
        "tracing_overhead_pct": scenarios["tracing_overhead"]["overhead_pct"],
        "tracing_overhead_max_pct": TRACING_OVERHEAD_MAX_PCT,
    }


def engine_throughput_errors(section: Dict[str, object]) -> list:
    """The regression gate: error strings when the engine got slow again."""
    errors = []
    floor = section.get("floor_events_per_sec") or 0.0
    measured = section.get("events_per_sec") or 0.0
    if floor > 0 and measured < floor:
        errors.append(
            f"engine_throughput: {measured:.0f} events/s fell below the "
            f"recorded floor {floor:.0f} (the optimization-pass win is gone)")
    # Batched read plane: both the wall rate and the virtual overlap win
    # are gated (schema 2 snapshots carry neither; they pass vacuously).
    mg_floor = section.get("multi_get_floor_keys_per_sec")
    mg_rate = section.get("multi_get_keys_per_sec")
    if mg_floor is not None and mg_rate is not None and mg_rate < mg_floor:
        errors.append(
            f"engine_throughput: multi_get at {mg_rate:.0f} keys/s fell "
            f"below the floor {mg_floor:.0f} — the fork/join plane became "
            f"a harness bottleneck")
    min_overlap = section.get("multi_get_min_overlap_ratio")
    overlap = section.get("multi_get_overlap_ratio")
    if min_overlap is not None and overlap is not None \
            and overlap < min_overlap:
        errors.append(
            f"engine_throughput: multi_get overlap ratio {overlap:.1f}x is "
            f"below {min_overlap:.0f}x — batched misses are no longer "
            f"charged max-plus-dispatch (the fig12 win is gone)")
    # Zero-cost-when-off contract for the observability plane.  Older
    # snapshots (schema 1) carry no tracing section; they pass vacuously.
    max_pct = section.get("tracing_overhead_max_pct")
    overhead_pct = section.get("tracing_overhead_pct")
    if max_pct is not None and overhead_pct is not None \
            and overhead_pct >= max_pct:
        errors.append(
            f"engine_throughput: disabled tracing costs {overhead_pct:.1f}% "
            f"of dispatch throughput (gate: <{max_pct:.0f}%) — the "
            f"zero-cost-when-off contract is broken")
    scenario = (section.get("scenarios") or {}).get("tracing_overhead") or {}
    if scenario.get("spans_created"):
        errors.append(
            f"engine_throughput: a sample_rate=0 tracer created "
            f"{scenario['spans_created']:.0f} span(s); tracing is not off "
            f"when disabled")
    return errors
