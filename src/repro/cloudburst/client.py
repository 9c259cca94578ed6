"""The Cloudburst client (§3, Figure 2): the single invocation surface.

The client is how applications interact with the platform — it implements
the paper's Table 1 API:

* ``put``/``get``/``delete`` move data in and out of the KVS.
* ``register``/``register_dag``/``delete_dag`` manage functions and
  compositions on **every** scheduler the client knows about.
* ``call``/``call_dag`` invoke them and always return a
  :class:`~repro.cloudburst.references.CloudburstFuture`.  Every invocation
  is one :class:`~repro.cloudburst.sessions.DagSession`, and the future
  returned is the session's own: the session resolves it, and the client
  only subscribes the callback that closes the invocation's root span.
  ``call`` executes in the caller's request context and its future arrives
  already resolved; ``call_dag`` enqueues the session on the cluster's
  engine and returns *before* it executes — resolution is delivered through
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
from .references import CloudburstFuture
from .scheduler import Scheduler
from .serialization import LatticeEncapsulator

if TYPE_CHECKING:
    from .sessions import DagSession
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
        ``future.value`` never blocks, and a function that raised re-raises
        from it.  ``ctx`` threads an externally owned request context through
        the scheduler.
        """
        scheduler = self._next_scheduler()
        with self._cluster.request(ctx) as ctx:
            return self._invoke(ctx, f"call:{function_name}", lambda: scheduler.call(
                function_name, args, consistency=consistency or self.consistency,
                store_in_kvs=store_in_kvs, ctx=ctx))

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
        return self._invoke(ctx, f"call_dag:{dag_name}", lambda: scheduler.call_dag(
            dag_name, function_args, consistency=consistency or self.consistency,
            store_in_kvs=store_in_kvs, ctx=ctx))

    def _invoke(self, ctx: RequestContext, name: str,
                open_session: Callable[[], DagSession]) -> CloudburstFuture:
        """Open one invocation's session on ``ctx`` and return its future.

        A traced invocation gets a root span (a nested one — ``ctx`` already
        traced — joins the outer trace), closed by the done-callback
        subscribed here before the future leaves the client, so before any
        caller's callback: with ``latency_ms`` on success, ``error=<type
        name>`` on failure — or at once when no session opens (an unknown or
        deleted DAG).  The next invocation on ``ctx`` starts its own trace.
        """
        root = None
        if self.tracer is not None and ctx.span is None:
            root = ctx.span = self.tracer.start_trace(
                name, "client", ctx.clock.now_ms, node=self.client_id)
        try:
            future = open_session().future
        except Exception as exc:
            if root is not None:
                ctx.close_span(error=type(exc).__name__)
            raise
        if root is None:
            return future

        def settled(future: CloudburstFuture) -> None:
            error = future.exception()
            if error is None:
                root.annotate("latency_ms", future.result().latency_ms)
            ctx.close_span(error=None if error is None else type(error).__name__)

        future.add_done_callback(settled)
        return future

    # -- helpers -------------------------------------------------------------------------
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
