"""Causal request tracing over virtual time.

Every tier of the reproduction charges latency to a per-request
:class:`~repro.sim.clock.RequestContext`; that gives totals but no shape.
This module adds the shape: a :class:`TraceSpan` tree per sampled request,
spanning client -> scheduler placement -> executor work-queue wait -> cache
hit/miss -> Anna queue/service, surviving DAG fork/join, section 4.5 retries
and fault-plane crash/recovery (a recovered attempt *links* to the abandoned
attempt's span rather than parenting under it, because the abandoned attempt
is finished, not an ancestor).

Design constraints, in priority order:

* **Zero-cost when disabled.**  The current span rides on
  ``RequestContext.span``, its only holder: ``ctx.open_span``/``close_span``
  bracket a group span and ``ctx.record_span`` adds a leaf after its charge.
  Each site checks ``ctx.span is not None`` once, so a tracer at
  ``sample_rate=0`` (which never creates a root) costs one attribute check
  per site.
* **Deterministic.**  Span and trace ids come from plain counters; sampling
  is an error-diffusion accumulator, not an RNG; every timestamp is virtual
  (``clock.now_ms``), never wall time; the execution ids spans carry are
  the session journal's counted attempt ids.  Two seeded runs produce
  byte-identical span dumps (``TestSeededRunsAreReproducible`` in
  ``tests/integration/test_observability.py``).
* **Never a clock.**  Creating or finishing a span must not charge latency —
  seeded bench timelines stay byte-identical with tracing fully on
  (asserted by the determinism suite).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["TraceSpan", "Tracer"]


class TraceSpan:
    """One timed operation in a request's causal tree.

    Spans form a tree via ``parent_id`` within a ``trace_id``; cross-tree
    causality that is *not* ancestry (a retry attempt superseding a failed
    one, a recovery superseding an abandoned attempt) is expressed with
    :meth:`link` edges instead, so the tree stays a tree.
    """

    __slots__ = ("tracer", "trace_id", "span_id", "parent", "parent_id",
                 "name", "tier", "node", "start_ms", "end_ms", "attrs", "links",
                 "_children_end_ms")

    def __init__(self, tracer: "Tracer", trace_id: int, span_id: int,
                 parent: Optional["TraceSpan"], name: str, tier: str,
                 start_ms: float, node: Optional[str] = None):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.parent_id = None if parent is None else parent.span_id
        self.name = name
        self.tier = tier
        self.node = node
        self.start_ms = float(start_ms)
        self.end_ms: Optional[float] = None
        self.attrs: Optional[Dict[str, Any]] = None
        self.links: Optional[List[Tuple[str, int]]] = None
        self._children_end_ms = self.start_ms

    # -- building the tree ------------------------------------------------------
    def child(self, name: str, tier: str, start_ms: float,
              node: Optional[str] = None) -> "TraceSpan":
        """Start a child span in the same trace (delegates to the tracer)."""
        return self.tracer.start_span(name, tier, start_ms,
                                      parent=self, node=node)

    def annotate(self, key: str, value: Any) -> "TraceSpan":
        """Attach one key/value attribute (dict allocated lazily)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value
        return self

    def link(self, relation: str, span_id: int) -> "TraceSpan":
        """Record a non-ancestry causal edge, e.g. ``("retry_of", 17)``."""
        if self.links is None:
            self.links = []
        self.links.append((relation, int(span_id)))
        return self

    def finish(self, end_ms: float) -> "TraceSpan":
        """Close the span at ``end_ms`` (virtual), but never before its start
        or a child that already finished (a failed attempt closes at its
        session's clock, behind its functions' branch clocks)."""
        self.end_ms = end = max(float(end_ms), self._children_end_ms)
        parent = self.parent
        if parent is not None and end > parent._children_end_ms:
            parent._children_end_ms = end
        return self

    # -- reads ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "tier": self.tier,
            "node": self.node,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.links:
            record["links"] = [{"relation": relation, "span_id": span_id}
                               for relation, span_id in self.links]
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceSpan(id={self.span_id}, trace={self.trace_id}, "
                f"parent={self.parent_id}, {self.tier}/{self.name}, "
                f"[{self.start_ms:.3f}, {self.end_ms}])")


class Tracer:
    """Creates and retains spans; owns the ids and the sampling decision.

    ``sample_rate`` is the fraction of *root* requests that get a trace,
    applied by error diffusion (an accumulator gains ``sample_rate`` per
    request and emits a trace each time it crosses 1.0) — so 0.25 traces
    exactly every fourth request, deterministically, with no RNG to disturb
    seeded workloads.  ``0.0`` disables tracing entirely; ``1.0`` traces
    everything.  Background spans (gossip rounds, autoscaler ticks) bypass
    request sampling via :meth:`start_background` but honour ``0.0`` as a
    global off switch.
    """

    def __init__(self, sample_rate: float = 1.0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = float(sample_rate)
        self.spans: List[TraceSpan] = []
        self._next_trace_id = 1
        self._next_span_id = 1
        self._sample_acc = 0.0
        #: Requests that arrived while the sampler said no (for export stats).
        self.unsampled_requests = 0

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    # -- span creation ----------------------------------------------------------
    def start_trace(self, name: str, tier: str, start_ms: float,
                    node: Optional[str] = None) -> Optional[TraceSpan]:
        """Root span for a new request, or None when sampled out."""
        self._sample_acc += self.sample_rate
        if self._sample_acc < 1.0:
            self.unsampled_requests += 1
            return None
        self._sample_acc -= 1.0
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        return self._new_span(trace_id, None, name, tier, start_ms, node)

    def start_span(self, name: str, tier: str, start_ms: float,
                   parent: TraceSpan, node: Optional[str] = None,
                   attrs: Optional[Dict[str, Any]] = None) -> TraceSpan:
        """Child span under ``parent`` (callers guard on parent being set)."""
        span = self._new_span(parent.trace_id, parent, name, tier, start_ms,
                              node)
        span.attrs = attrs or None
        return span

    def start_background(self, name: str, tier: str, start_ms: float,
                         node: Optional[str] = None) -> Optional[TraceSpan]:
        """Root span outside any request (gossip, control-plane ticks).

        Background activity is not request-sampled — one gossip round is not
        "a request" — but a ``sample_rate`` of exactly 0 still means *off*.
        Background traces share the id space under ``trace_id`` allocation.
        """
        if not self.enabled:
            return None
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        span = self._new_span(trace_id, None, name, tier, start_ms, node)
        span.annotate("background", True)
        return span

    def record_background(self, name: str, tier: str, start_ms: float,
                          end_ms: float, node: Optional[str] = None,
                          **attrs: Any) -> None:
        """A finished background span (a prefetch, a gossip round)."""
        span = self.start_background(name, tier, start_ms, node)
        if span is not None:
            span.attrs.update(attrs)
            span.finish(end_ms)

    def _new_span(self, trace_id: int, parent: Optional[TraceSpan], name: str,
                  tier: str, start_ms: float,
                  node: Optional[str]) -> TraceSpan:
        span = TraceSpan(self, trace_id, self._next_span_id, parent,
                         name, tier, start_ms, node=node)
        self._next_span_id += 1
        self.spans.append(span)
        return span

    # -- queries ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def trace_ids(self) -> List[int]:
        seen: Dict[int, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def spans_for(self, trace_id: int) -> List[TraceSpan]:
        return [span for span in self.spans if span.trace_id == trace_id]

    def roots(self) -> List[TraceSpan]:
        return [span for span in self.spans if span.parent_id is None]

    def orphan_spans(self) -> List[TraceSpan]:
        """Spans whose parent id does not exist — a broken causal tree.

        The propagation tests assert this is empty across fork/join, retries,
        executor kills and scheduler crash/recovery.
        """
        known = {span.span_id for span in self.spans}
        return [span for span in self.spans
                if span.parent_id is not None and span.parent_id not in known]

    def unfinished_spans(self) -> List[TraceSpan]:
        return [span for span in self.spans if span.end_ms is None]

    def tiers(self) -> List[str]:
        """Distinct tiers touched, in first-seen order."""
        return list(dict.fromkeys(span.tier for span in self.spans))

    def span_tree(self, trace_id: int) -> List[Dict[str, Any]]:
        """The trace's spans as nested dicts (roots first), for evidence dumps."""
        by_parent: Dict[Optional[int], List[TraceSpan]] = {}
        members = {span.span_id for span in self.spans
                   if span.trace_id == trace_id}
        for span in self.spans:
            if span.trace_id != trace_id:
                continue
            parent = (span.parent_id
                      if span.parent_id in members else None)
            by_parent.setdefault(parent, []).append(span)

        def render(span: TraceSpan) -> Dict[str, Any]:
            record = span.to_dict()
            children = by_parent.get(span.span_id, [])
            if children:
                record["children"] = [render(child) for child in children]
            return record

        return [render(span) for span in by_parent.get(None, [])]

    def breakdown(self, trace_id: Optional[int] = None,
                  ) -> Dict[Tuple[str, str], float]:
        """Total span duration by ``(tier, name)`` — where the time went."""
        totals: Dict[Tuple[str, str], float] = {}
        for span in self.spans:
            if trace_id is not None and span.trace_id != trace_id:
                continue
            key = (span.tier, span.name)
            totals[key] = totals.get(key, 0.0) + span.duration_ms
        return totals

    def clear(self) -> None:
        """Drop retained spans (ids keep counting, so dumps stay unambiguous)."""
        self.spans = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Tracer(sample_rate={self.sample_rate}, "
                f"spans={len(self.spans)}, traces={len(self.trace_ids())})")
