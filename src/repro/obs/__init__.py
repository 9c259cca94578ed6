"""Observability plane: causal tracing and trace exporters.

The sensing layer over the discrete-event reproduction: per-request span
trees (``tracing``) and JSON / Chrome trace-event exporters (``export``).
Everything in here is deterministic (counter ids, error-diffusion sampling,
virtual timestamps only) and zero-cost when disabled — see each module's
docstring for the contract.
"""

from .export import (
    spans_to_json,
    to_chrome_trace,
    write_chrome_trace,
    write_span_dump,
)
from .tracing import (
    Tracer,
    TraceSpan,
)

__all__ = [
    "spans_to_json",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_span_dump",
    "Tracer",
    "TraceSpan",
]
