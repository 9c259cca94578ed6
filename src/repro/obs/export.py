"""Span exporters: JSON dumps and Chrome trace-event files.

Two formats, two audiences:

* :func:`spans_to_json` / :func:`write_span_dump` — the raw span records
  (parent ids, links, attrs), for tests and checked-in evidence.
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format that ``chrome://tracing`` and https://ui.perfetto.dev
  load directly.  Tiers become processes, nodes become threads, and every
  span is one complete ``"X"`` event, so a request renders as nested bars
  per tier on a shared virtual-time axis.

Virtual milliseconds map to trace-event microseconds (``ts = ms * 1000``)
purely for display resolution; nothing here reads a wall clock.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from .tracing import Tracer

__all__ = ["spans_to_json", "write_span_dump", "to_chrome_trace",
           "write_chrome_trace"]

def spans_to_json(tracer: Tracer) -> List[Dict[str, Any]]:
    """Span records as plain dicts (the JSON span dump's payload)."""
    return [span.to_dict() for span in tracer.spans]


def write_span_dump(path: Union[str, Path], tracer: Tracer,
                    meta: Union[Dict[str, Any], None] = None) -> Path:
    """Write ``{"meta": ..., "spans": [...]}`` to ``path``; returns the path."""
    path = Path(path)
    payload = {"meta": meta or {}, "spans": spans_to_json(tracer)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def to_chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Spans as a Chrome trace-event document (Perfetto-loadable).

    Process ids are assigned per tier in first-seen order and named with
    metadata events; thread ids per ``(tier, node)`` the same way, so the
    viewer groups work by tier and by node within the tier.
    """
    pid_by_tier: Dict[str, int] = {}
    tid_by_node: Dict[tuple, int] = {}
    events: List[Dict[str, Any]] = []
    for span in tracer.spans:
        pid = pid_by_tier.get(span.tier)
        if pid is None:
            pid = pid_by_tier[span.tier] = len(pid_by_tier) + 1
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": span.tier}})
        node_key = (span.tier, span.node or span.tier)
        tid = tid_by_node.get(node_key)
        if tid is None:
            tid = tid_by_node[node_key] = len(tid_by_node) + 1
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": node_key[1]}})
        args: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        if span.attrs:
            args.update(span.attrs)
        if span.links:
            args["links"] = [f"{relation}:{span_id}"
                             for relation, span_id in span.links]
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.tier,
            "pid": pid,
            "tid": tid,
            "ts": span.start_ms * 1000.0,
            "dur": span.duration_ms * 1000.0,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Union[str, Path], tracer: Tracer) -> Path:
    """Write the Chrome trace-event document to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(tracer), sort_keys=True))
    return path
