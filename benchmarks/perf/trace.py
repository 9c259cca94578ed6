"""Host-time spans at the layer boundaries, recorded from outside the program.

The traced pass answers "which package did the host seconds go to".  It wraps
the public entry points of every layer by ``setattr`` (nothing under ``src/``
is edited) and restores them afterwards.  A span is
``(id, parent_id, request_index, layer, name, start_ns, end_ns)``; its parent
is the innermost span open when it started; a span's self time is its duration
minus the durations of its direct children, so the self times of all spans sum
to the duration of the ``Engine.run`` root exactly.

Every span feeds a per-``(layer, name)`` aggregate (count, total, self).  Full
spans are kept for a deterministic 1-in-20 sample of requests only, so memory
stays bounded; both are written out when the benchmark ends.

Wrappers are inert outside ``Engine.run`` (no root span open), so set-up and
warm-up cost nothing and never show up in the numbers.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import lattices
from repro.anna import AnnaCluster
from repro.apps import prediction, retwis
from repro.cloudburst import (
    ExecutorCache,
    ExecutorThread,
    LocalityPlacementPolicy,
    RandomPlacementPolicy,
    Scheduler,
)
from repro.cloudburst import consistency
from repro.sim import Engine
from repro.workloads import dags

#: Full spans are kept for requests whose index is a multiple of this.
SAMPLE_EVERY = 20

# Open-span record layout (a list, mutated in place while the span is open).
_ID, _PARENT, _REQUEST, _LAYER, _NAME, _START, _CHILD_NS, _SAMPLED, _AGG = range(9)

Span = Tuple[int, Optional[int], Optional[int], str, str, int, int]

#: layer -> [(owner class, public method names)].  Methods are wrapped on the
#: class that defines them, so an inherited method is wrapped once.
_ENTRY_POINTS: Dict[str, List[Tuple[type, Tuple[str, ...]]]] = {
    "scheduler": [
        (Scheduler, ("call", "call_dag")),
        (LocalityPlacementPolicy, ("pick",)),
        (RandomPlacementPolicy, ("pick",)),
    ],
    "executor": [(ExecutorThread, ("execute",))],
    "consistency": [
        (protocol, ("read", "read_many", "write", "finalize"))
        for protocol in (
            consistency.ConsistencyProtocol,
            consistency.LWWProtocol,
            consistency.RepeatableReadProtocol,
            consistency.SingleKeyCausalProtocol,
            consistency.MultiKeyCausalProtocol,
            consistency.DistributedSessionCausalProtocol,
            consistency.ObservingProtocol,
        )
    ],
    "cache": [(ExecutorCache, (
        "get", "get_or_fetch", "multi_get", "put", "receive_update", "prefetch",
        "fetch_from_upstream", "create_snapshot"))],
    "anna": [(AnnaCluster, (
        "get", "put", "multi_get", "run_gossip_round", "flush_updates"))],
}

_LATTICE_CLASSES = (
    lattices.Lattice, lattices.VectorClock, lattices.CausalLattice,
    lattices.LWWLattice, lattices.SetLattice, lattices.MapLattice,
    lattices.OrderedSetLattice, lattices.MaxIntLattice, lattices.MinIntLattice,
    lattices.BoolOrLattice,
)
_LATTICE_METHODS = ("merge", "size_bytes", "dominates")

#: The functions the four workloads register, wrapped where the apps look them
#: up (module globals, or the Retwis registration table).
_APP_FUNCTIONS: List[Tuple[Any, Tuple[str, ...]]] = [
    (retwis.CLOUDBURST_FUNCTIONS, tuple(retwis.CLOUDBURST_FUNCTIONS)),
    (prediction, ("_cb_resize", "_cb_model", "_cb_render")),
    (dags, ("string_manipulation", "sink_write")),
]


def _lookup(owner: Any, attr: str) -> Any:
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def _assign(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class SpanRecorder:
    """Collects host-time spans from wrappers installed around each layer."""

    def __init__(self) -> None:
        #: (layer, name) -> [count, total_ns, self_ns]
        self.aggregates: Dict[Tuple[str, str], List[int]] = {}
        self.spans: List[Span] = []
        #: (owner, attribute, original object) for everything :meth:`install` replaced.
        self.patched: List[Tuple[Any, str, Any]] = []
        self._stack: List[list] = []
        self._next_id = 0
        self._events = 0  # depth-1 spans that are not requests, for sampling
        self._in_lattice = False

    # -- span bookkeeping ---------------------------------------------------
    def _aggregate(self, layer: str, name: str) -> List[int]:
        return self.aggregates.setdefault((layer, name), [0, 0, 0])

    def open_span(self, layer: str, name: str, aggregate: List[int],
                  request_index: Optional[int] = None) -> list:
        stack = self._stack
        if not stack:
            parent_id, sampled = None, True
        else:
            parent = stack[-1]
            parent_id = parent[_ID]
            if len(stack) > 1:
                sampled = parent[_SAMPLED]
                request_index = parent[_REQUEST]
            elif request_index is not None:
                sampled = request_index % SAMPLE_EVERY == 0
            else:
                # Engine events outside any request (DAG stages, gossip ticks).
                sampled = self._events % SAMPLE_EVERY == 0
                self._events += 1
        span = [self._next_id, parent_id, request_index, layer, name,
                0, 0, sampled, aggregate]
        self._next_id += 1
        stack.append(span)
        span[_START] = perf_counter_ns()
        return span

    def close_span(self, span: list) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        duration = end - span[_START]
        aggregate = span[_AGG]
        aggregate[0] += 1
        aggregate[1] += duration
        aggregate[2] += duration - span[_CHILD_NS]
        if stack:
            stack[-1][_CHILD_NS] += duration
        if span[_SAMPLED]:
            self.spans.append((span[_ID], span[_PARENT], span[_REQUEST],
                               span[_LAYER], span[_NAME], span[_START], end))

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, original: Callable, layer: str, name: str,
              root: bool = False) -> Callable:
        stack = self._stack
        aggregate = self._aggregate(layer, name)
        open_span, close_span = self.open_span, self.close_span

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not stack and not root:
                return original(*args, **kwargs)
            span = open_span(layer, name, aggregate)
            try:
                return original(*args, **kwargs)
            finally:
                close_span(span)

        return traced

    def _wrap_lattice(self, original: Callable, name: str) -> Callable:
        """Outermost lattice call only: recursion and lattice-to-lattice
        nesting (a CausalLattice merging its VectorClocks) stay one span."""
        stack = self._stack
        aggregate = self._aggregate("lattices", name)
        open_span, close_span = self.open_span, self.close_span

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._in_lattice or not stack:
                return original(*args, **kwargs)
            self._in_lattice = True
            span = open_span("lattices", name, aggregate)
            try:
                return original(*args, **kwargs)
            finally:
                close_span(span)
                self._in_lattice = False

        return traced

    def wrap_request(self, request_fn: Callable) -> Callable:
        """The benchmark's own ``request_fn``: a ``request`` span carrying the
        request index (driver glue and client code, counted under ``sim``)."""
        aggregate = self._aggregate("sim", "request")

        def traced(cloud, ctx, index):
            span = self.open_span("sim", "request", aggregate, request_index=index)
            try:
                return request_fn(cloud, ctx, index)
            finally:
                self.close_span(span)

        return traced

    def _patch(self, owner: Any, attr: str, wrap: Callable, *wrap_args) -> None:
        original = _lookup(owner, attr)
        self.patched.append((owner, attr, original))
        _assign(owner, attr, wrap(original, *wrap_args))

    def install(self) -> None:
        self._patch(Engine, "run", self._wrap, "sim", "Engine.run", True)
        for layer, owners in _ENTRY_POINTS.items():
            for cls, methods in owners:
                for method in methods:
                    if method in vars(cls):
                        self._patch(cls, method, self._wrap, layer, f"{cls.__name__}.{method}")
        for cls in _LATTICE_CLASSES:
            for method in _LATTICE_METHODS:
                defined = vars(cls).get(method)
                if defined is not None and not getattr(defined, "__isabstractmethod__", False):
                    self._patch(cls, method, self._wrap_lattice, f"{cls.__name__}.{method}")
        for owner, names in _APP_FUNCTIONS:
            for name in names:
                self._patch(owner, name, self._wrap, "apps", name)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            _assign(owner, attr, original)

    def unrestored(self) -> List[str]:
        """Names of patched attributes that are not the original object again."""
        return [f"{getattr(owner, '__name__', 'table')}.{attr}"
                for owner, attr, original in self.patched
                if _lookup(owner, attr) is not original]

    # -- results ------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for (layer, _name), (_count, _total, self_ns) in self.aggregates.items():
            totals[layer] = totals.get(layer, 0.0) + self_ns / 1e9
        return totals

    def calls(self, layer: str, suffixes: Tuple[str, ...]) -> int:
        """Spans recorded in ``layer`` whose name ends with one of ``suffixes``."""
        return sum(count for (la, name), (count, _t, _s) in self.aggregates.items()
                   if la == layer and name.endswith(suffixes))

    def root_s(self) -> float:
        return self.aggregates[("sim", "Engine.run")][1] / 1e9

    def write(self, directory: Path, stem: str) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        rows = [{"layer": layer, "name": name, "count": count,
                 "total_s": total / 1e9, "self_s": self_ns / 1e9}
                for (layer, name), (count, total, self_ns)
                in sorted(self.aggregates.items(), key=lambda item: -item[1][2])]
        (directory / f"{stem}_aggregates.json").write_text(json.dumps(rows, indent=1))
        fields = ("id", "parent_id", "request_index", "layer", "name", "start_ns", "end_ns")
        (directory / f"{stem}_spans.json").write_text(
            json.dumps({"fields": fields, "spans": self.spans}))
