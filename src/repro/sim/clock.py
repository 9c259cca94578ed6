"""Simulated time.

Every Cloudburst request in this reproduction carries a :class:`SimClock`.
Instead of sleeping or measuring wall time, components *charge* the clock the
latency an operation would have cost in the paper's AWS deployment (network
hops, storage round trips, Lambda invocation overhead, model compute, ...).
A request's latency is its clock at the end minus its clock at the start.

This keeps benchmarks deterministic and fast while preserving the *structure*
of each protocol: a protocol that performs one extra round trip is charged one
extra round trip.

Every request-path call takes the :class:`RequestContext` of the request it
runs for, as a required argument (DESIGN.md DR-22, DR-24).  Background
traffic — gossip, cache write-backs, metric publishes, function pinning,
storage preloads — takes its own calls (``AnnaCluster.background_*``,
``SimulatedStorageService.preload``), which take no context at all.

Charge accounting is allocation-light: :class:`ChargeRecord` is a
``__slots__`` class, a charge does only clock and log work, and load drivers
that only need latency totals can construct contexts with
``record_charges=False`` to skip the itemised log entirely (fig 10, fig 12
and ``benchmarks/perf`` run that way).  The opt-out is parity-pinned: a
charge-log-on run must produce latency samples identical to a charge-log-off
run (asserted by the determinism suite) — only the *structural* queries
(``charges``, ``count``, ``total``, ``breakdown``) go empty, never the timing.
"""

from __future__ import annotations

from typing import List, Optional


class SimClock:
    """A monotonically advancing virtual clock measured in milliseconds."""

    __slots__ = ("_now_ms",)

    def __init__(self, start_ms: float = 0.0):
        self._now_ms = float(start_ms)

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now_ms

    def advance(self, delta_ms: float) -> float:
        """Advance the clock by ``delta_ms`` and return the new time.

        Negative advances are rejected: virtual time never runs backwards.
        """
        if delta_ms < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta_ms}")
        self._now_ms += float(delta_ms)
        return self._now_ms

    def advance_to(self, timestamp_ms: float) -> float:
        """Advance to an absolute timestamp (no-op if already past it)."""
        if timestamp_ms > self._now_ms:
            self._now_ms = float(timestamp_ms)
        return self._now_ms

    def copy(self) -> "SimClock":
        return SimClock(self._now_ms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now_ms={self._now_ms:.3f})"


class ChargeRecord:
    """One latency charge applied to a request: which service/op, how long."""

    __slots__ = ("service", "operation", "latency_ms", "at_ms")

    def __init__(self, service: str, operation: str, latency_ms: float,
                 at_ms: float):
        self.service = service
        self.operation = operation
        self.latency_ms = latency_ms
        self.at_ms = at_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ChargeRecord(service={self.service!r}, "
                f"operation={self.operation!r}, "
                f"latency_ms={self.latency_ms!r}, at_ms={self.at_ms!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChargeRecord):
            return NotImplemented
        return (self.service == other.service
                and self.operation == other.operation
                and self.latency_ms == other.latency_ms
                and self.at_ms == other.at_ms)


class RequestContext:
    """Per-request accounting: virtual clock plus an itemised charge log.

    The charge log makes it possible for tests to assert on protocol structure
    ("this request performed exactly one remote version fetch") rather than on
    opaque latency totals.

    A request's latency is read off its clock: the charges advance it, and
    a join moves it to the slowest branch.  The context keeps no second
    running total.

    ``record_charges=False`` drops the itemised log (structural queries return
    empty/zero) while keeping the clock byte-identical — the cheap mode the
    closed-loop load driver runs in, where thousands of requests only ever
    read their latency.

    ``span`` is the request's current trace span (``repro.obs``), or None
    when the request is untraced, the common case; the context is its only
    holder.  The span calls below expect a traced context, so each site
    checks ``span`` once inline and tracing costs one attribute check when
    off.  Spans never charge the clock: timing is byte-identical traced or
    not.
    """

    __slots__ = ("clock", "charges", "prefetch_epoch", "record_charges", "span")

    def __init__(self, clock: Optional[SimClock] = None,
                 record_charges: bool = True,
                 span: Optional[object] = None):
        self.clock = clock if clock is not None else SimClock()
        self.charges: List[ChargeRecord] = []
        #: Execution id of the scheduler prefetch this request issued, or
        #: None: only that execution pays a residual ``prefetch_wait`` (§4.2).
        self.prefetch_epoch: Optional[str] = None
        self.record_charges = record_charges
        #: Current trace span (``repro.obs.TraceSpan``) or None when untraced.
        self.span = span

    def charge(self, service: str, operation: str, latency_ms: float) -> float:
        """Record a latency charge and advance the clock."""
        if latency_ms < 0:
            raise ValueError(
                f"negative latency charge {latency_ms} for {service}.{operation}"
            )
        latency_ms = float(latency_ms)
        clock = self.clock
        if self.record_charges:
            self.charges.append(
                ChargeRecord(service, operation, latency_ms, clock.now_ms))
        clock.advance(latency_ms)
        return latency_ms

    def open_span(self, name: str, tier: str, node: Optional[str] = None,
                  **attrs: object) -> object:
        """Start a child of the current span at the clock and make it current."""
        self.span = self.span.tracer.start_span(
            name, tier, self.clock.now_ms, self.span, node, attrs)
        return self.span

    def close_span(self, error: Optional[object] = None) -> None:
        """Finish the current span at the clock; its parent becomes current."""
        span = self.span
        if error is not None:
            span.annotate("error", error)
        span.finish(self.clock.now_ms)
        self.span = span.parent

    def record_span(self, name: str, tier: str, start_ms: float,
                    end_ms: Optional[float] = None, node: Optional[str] = None,
                    **attrs: object) -> None:
        """Record a finished leaf under the current span, after the charge
        that defines it: ``start_ms`` to ``end_ms`` (default: the clock)."""
        self.span.tracer.start_span(name, tier, start_ms, self.span, node,
                                    attrs).finish(
            self.clock.now_ms if end_ms is None else end_ms)

    def fork(self, at_ms: Optional[float] = None) -> "RequestContext":
        """Create a child context at the current virtual time (or ``at_ms``).

        Used when a DAG fans out: parallel branches each get their own context
        starting at the parent's current time; the parent later joins on the
        maximum of the branch clocks.

        The trace span is carried across the fork, so work done on a branch
        stays attached to the request's span tree.
        """
        clock = self.clock.copy() if at_ms is None else SimClock(at_ms)
        branch = RequestContext(clock=clock,
                                record_charges=self.record_charges,
                                span=self.span)
        branch.prefetch_epoch = self.prefetch_epoch
        return branch

    def join(self, branches: List["RequestContext"]) -> None:
        """Join parallel branches: advance to the slowest branch's clock."""
        for branch in branches:
            if branch.charges:
                self.charges.extend(branch.charges)
        if branches:
            slowest = max(branch.clock.now_ms for branch in branches)
            self.clock.advance_to(slowest)
