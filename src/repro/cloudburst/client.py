"""The Cloudburst client (§3, Figure 2): the single invocation surface.

The client is how applications interact with the platform — it implements
the paper's Table 1 API:

* ``put``/``get``/``delete`` move data in and out of the KVS.
* ``register``/``register_dag``/``delete_dag`` manage functions and
  compositions on **every** scheduler the client knows about.
* ``call``/``call_dag`` invoke them and always return a
  :class:`~repro.cloudburst.references.CloudburstFuture`.  Every invocation
  is one :class:`~repro.cloudburst.sessions.DagSession`.  ``call`` executes
  in the caller's request context and its future arrives already resolved;
  ``call_dag`` enqueues the session on the cluster's engine and returns
  *before* it executes — resolution is delivered through
  ``future.add_done_callback`` or by ``future.get()``, which advances
  virtual time until the result appears (with an optional timeout).

Every operation runs on the cluster's one virtual timeline.  Given a ``ctx``
it runs on that context (drivers and apps own their timelines); without one
it starts at the engine's current time and — outside engine events, which
cannot block — returns with the engine advanced to its completion time
(:meth:`~repro.cloudburst.cluster.CloudburstCluster.request`), so a plain
loop of calls is one closed-loop client.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..sim import RequestContext, SimClock
from .consistency.levels import ConsistencyLevel
from .dag import Dag
from .references import CloudburstFuture, CloudburstReference
from .scheduler import ExecutionResult, Scheduler
from .serialization import LatticeEncapsulator

if TYPE_CHECKING:
    from .cluster import CloudburstCluster


class RegisteredFunction:
    """A handle to a registered function; calling it runs it on the cluster."""

    def __init__(self, client: "CloudburstClient", name: str):
        self.client = client
        self.name = name

    def __call__(self, *args: Any, store_in_kvs: bool = False,
                 consistency: Optional[ConsistencyLevel] = None) -> Any:
        future = self.client.call(self.name, args, store_in_kvs=store_in_kvs,
                                  consistency=consistency)
        if store_in_kvs:
            return future
        return future.value

    def __repr__(self) -> str:
        return f"RegisteredFunction({self.name!r})"


class CloudburstClient:
    """User-facing entry point to a Cloudburst deployment (paper Table 1)."""

    def __init__(self, cluster: "CloudburstCluster", client_id: str,
                 consistency: ConsistencyLevel):
        self._cluster = cluster
        self.kvs = cluster.kvs
        #: The cluster's schedulers, in the order the round-robin visits them.
        self._schedulers = cluster.schedulers
        self._scheduler_cycle = itertools.cycle(self._schedulers)
        self.client_id = client_id
        self.consistency = consistency
        #: The cluster's ``repro.obs.Tracer``, if any; when set (and sampling
        #: says yes), each invocation gets a root span and the tiers hang
        #: children off it.
        self.tracer = cluster.tracer
        self._encapsulator = LatticeEncapsulator(client_id, consistency)
        self.last_result: Optional[ExecutionResult] = None

    # -- KVS access --------------------------------------------------------------------
    def put(self, key: str, value: Any, ctx: Optional[RequestContext] = None) -> None:
        """Store a Python object in the KVS (wrapped in the appropriate lattice)."""
        with self._cluster.request(ctx) as ctx:
            prior = self.kvs.background_get(key)
            lattice = self._encapsulator.encapsulate(
                value, clock_ms=self.kvs.wall_clock_ms(), prior=prior)
            self.kvs.put(key, lattice, ctx)

    def get(self, key: str, ctx: Optional[RequestContext] = None) -> Any:
        """Fetch a Python object from the KVS."""
        with self._cluster.request(ctx) as ctx:
            return LatticeEncapsulator.de_encapsulate(self.kvs.get(key, ctx))

    def delete(self, key: str, ctx: Optional[RequestContext] = None) -> bool:
        with self._cluster.request(ctx) as ctx:
            return self.kvs.delete(key, ctx)

    # -- registration ---------------------------------------------------------------------
    def register(self, func: Callable, name: Optional[str] = None) -> RegisteredFunction:
        """Register a Python function; returns a remotely callable handle.

        Re-registering under an existing name overwrites the function on
        *every* scheduler (and on every executor thread that pinned the old
        body) — a ``setdefault`` here once left stale code being served by
        whichever scheduler the round-robin happened not to hit.
        """
        scheduler = self._next_scheduler()
        registered_name = scheduler.register_function(func, name)
        for other in self._schedulers:
            if other is not scheduler:
                other.functions[registered_name] = func
        return RegisteredFunction(self, registered_name)

    def register_dag(self, name: str, functions: Sequence[str],
                     connections: Sequence[Tuple[str, str]] = (),
                     replicas_per_function: int = 1) -> Dag:
        """Register a DAG of previously registered functions."""
        dag = Dag(name, functions, connections)
        for scheduler in self._schedulers:
            scheduler.register_dag(dag, replicas_per_function=replicas_per_function)
        return dag

    def delete_dag(self, name: str) -> None:
        """Remove a registered DAG from every scheduler (paper Table 1).

        Subsequent ``call_dag(name)`` invocations raise
        :class:`~repro.errors.DagDeletedError` until the name is registered
        again; a name that was never registered raises
        :class:`~repro.errors.DagNotFoundError`.
        """
        for scheduler in self._schedulers:
            scheduler.delete_dag(name)

    # -- invocation ----------------------------------------------------------------------
    def call(self, function_name: str, args: Sequence[Any] = (),
             store_in_kvs: bool = False,
             consistency: Optional[ConsistencyLevel] = None,
             ctx: Optional[RequestContext] = None) -> CloudburstFuture:
        """Invoke a single registered function; returns a resolved future.

        Single-function invocations execute within the caller's (virtual)
        request context, so the returned future is already resolved —
        ``future.value`` never blocks.  ``ctx`` threads an externally owned
        request context through the scheduler.
        """
        scheduler = self._next_scheduler()
        with self._cluster.request(ctx) as ctx:
            future, complete, _ = self._begin(ctx, f"call:{function_name}")
            complete(scheduler.call(function_name, args,
                                    consistency=consistency or self.consistency,
                                    store_in_kvs=store_in_kvs, ctx=ctx))
        return future

    def call_dag(self, dag_name: str,
                 function_args: Optional[Dict[str, Sequence[Any]]] = None,
                 store_in_kvs: bool = False,
                 consistency: Optional[ConsistencyLevel] = None,
                 ctx: Optional[RequestContext] = None) -> CloudburstFuture:
        """Invoke a registered DAG; returns a pending :class:`CloudburstFuture`.

        The DAG is enqueued as discrete events on the cluster's engine and
        this returns *before* anything executes: resolve with
        ``future.get(timeout_ms=...)`` (advances virtual time) or subscribe
        with ``future.add_done_callback`` — the only option from inside an
        engine event.  A DAG that exhausts its §4.5 retries, or whose
        function raises, resolves the future with the error instead of
        unwinding the engine loop.
        """
        scheduler = self._next_scheduler()
        if ctx is None:
            ctx = RequestContext(clock=SimClock(self._cluster.engine.now_ms))
        future, complete, errored = self._begin(ctx, f"call_dag:{dag_name}")
        scheduler.call_dag(dag_name, function_args,
                           consistency=consistency or self.consistency,
                           store_in_kvs=store_in_kvs, ctx=ctx,
                           on_complete=complete, on_error=errored)
        return future

    def _begin(self, ctx: RequestContext, name: str):
        """Root span and pending future of one invocation on ``ctx``.

        Returns ``(future, complete, errored)``; the scheduler calls one of
        the two callbacks exactly once — in-line for ``call``, from the
        finishing engine event for ``call_dag``.  Either closes the root, so
        the next invocation on ``ctx`` starts a trace of its own.
        """
        root = None
        if self.tracer is not None and ctx.span is None:
            # A nested invocation (ctx already traced) joins the outer trace.
            root = ctx.span = self.tracer.start_trace(
                name, "client", ctx.clock.now_ms, node=self.client_id)
        future = CloudburstFuture(
            advance=lambda fut, timeout_ms: self._advance_engine(fut, timeout_ms, ctx))

        def complete(result: ExecutionResult) -> None:
            future.result_key = result.result_key
            if root is not None:
                root.annotate("latency_ms", result.latency_ms)
                ctx.close_span()
            self.last_result = result
            future._set_result(result)

        def errored(exc: BaseException) -> None:
            if root is not None:
                ctx.close_span(error=type(exc).__name__)
            future._set_exception(exc)

        return future, complete, errored

    # -- helpers -------------------------------------------------------------------------
    def reference(self, key: str) -> CloudburstReference:
        """Convenience constructor mirroring ``CloudburstReference(key)``."""
        return CloudburstReference(key)

    @property
    def last_latency_ms(self) -> float:
        if self.last_result is None:
            raise ValueError("no request has been issued yet")
        return self.last_result.latency_ms

    def _advance_engine(self, future: CloudburstFuture,
                        timeout_ms: Optional[float], ctx: RequestContext) -> None:
        """Fire engine events until ``future`` resolves or the deadline passes.

        This is what makes ``future.get()`` "block" in virtual time.  A
        future resolves at the event that finishes its session, up to a
        network hop before the request itself completes on ``ctx``; the
        engine is advanced over that remainder too, so a caller that blocks
        never issues its next request before it has received this one.  It
        must not be called from inside an engine event — the loop cannot be
        re-entered — so blocking there raises immediately with a pointer to
        ``add_done_callback``.
        """
        engine = self._cluster.engine
        if engine.running:
            # A programming error, not a timeout: raising FutureTimeoutError
            # here would let timeout-tolerant callers retry forever.
            raise RuntimeError(
                "cannot block on a future from inside an engine event (the "
                "loop is not reentrant); use future.add_done_callback(...) "
                "instead")
        deadline = None if timeout_ms is None else engine.now_ms + timeout_ms
        while not future.done():
            next_ms = engine.peek_ms()
            if next_ms is None or (deadline is not None and next_ms > deadline):
                return
            engine.step()
        self._cluster.advance_to(ctx.clock.now_ms)

    def _next_scheduler(self) -> Scheduler:
        """Round-robin over *live* schedulers (crashed ones are skipped).

        When every scheduler is alive this is plain round-robin, so load
        spreads exactly as before; during a scheduler crash the client fails
        over to the survivors, and only if the whole control plane is down
        does the call raise.
        """
        for _ in range(len(self._schedulers)):
            scheduler = next(self._scheduler_cycle)
            if scheduler.alive:
                return scheduler
        raise SchedulingError("every scheduler is down")
