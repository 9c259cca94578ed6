"""Function executors (§4.1).

Each Cloudburst executor is a long-running worker: schedulers route function
invocation requests to it; before each invocation it retrieves and
deserializes the requested function (caching it for repeated execution) and
transparently resolves KVS-reference arguments in parallel through the
VM-local cache; after each DAG function it triggers the downstream functions.
Executors publish metrics (cached functions, utilization, queue depth)
to the KVS for the schedulers and the monitoring system.

Executor *threads* are packed into executor *VMs*; every VM hosts one cache
shared by its threads (the paper uses 3 worker threads + 1 cache core per
c5.2xlarge VM).
"""

from __future__ import annotations

import inspect
import weakref
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..anna import AnnaCluster
from ..errors import ExecutorFailedError, FunctionNotFoundError, KeyNotFoundError
from ..sim import ComputeModel, LatencyModel, RequestContext, WorkQueue
from .cache import ExecutorCache
from .consistency.levels import ConsistencyLevel
from .consistency.protocols import SessionState
from .messaging import MessageRouter
from .references import CloudburstReference
from .serialization import LatticeEncapsulator

if TYPE_CHECKING:
    from .cluster import CloudburstCluster

#: Anna key prefixes for Cloudburst system metadata.
FUNCTION_KEY_PREFIX = "__cloudburst_functions__/"
FUNCTION_LIST_KEY = "__cloudburst_function_list__"
EXECUTOR_METRICS_PREFIX = "__cloudburst_executor_metrics__/"

#: Bound on each executor thread's work queue.  A thread whose queue
#: is full reads as fully utilized, which is what pushes the scheduler's
#: backpressure to spill hot functions onto other executors.
WORK_QUEUE_BOUND = 16


def function_key(name: str) -> str:
    return FUNCTION_KEY_PREFIX + name


#: Function body -> whether it takes the ``cloudburst`` API object first.
#: ``inspect.signature`` is slow, so it is asked once per function object,
#: not per thread or per invocation; the keys are weak, so a body nothing
#: holds any more is forgotten (with whatever it closes over).
_TAKES_LIBRARY: "weakref.WeakKeyDictionary[Callable, bool]" = weakref.WeakKeyDictionary()


def _names_library_first(func: Callable) -> bool:
    try:
        first = next(iter(inspect.signature(func).parameters), None)
    except (TypeError, ValueError):
        first = None
    return first == "cloudburst"


def takes_library(func: Callable) -> bool:
    """Whether ``func`` names its first parameter ``cloudburst`` (Table 1)."""
    try:
        takes = _TAKES_LIBRARY.get(func)
        if takes is None:
            takes = _TAKES_LIBRARY[func] = _names_library_first(func)
    except TypeError:  # ``str.upper`` and its like take no weak reference
        takes = _names_library_first(func)
    return takes


def simulated_compute(duration_ms: float) -> Callable[[Callable], Callable]:
    """Decorator: declare a function's simulated CPU cost.

    The wrapped function still runs for real; ``duration_ms`` is charged to
    the request's virtual clock, standing in for CPU time the function would
    have consumed on the paper's c5.2xlarge executors (e.g. the 50 ms sleep
    in the autoscaling experiment or model inference in §6.3.1).
    """

    def decorate(func: Callable) -> Callable:
        func._cloudburst_compute_ms = float(duration_ms)
        return func

    return decorate


class UserLibrary:
    """The API object handed to user functions (Table 1).

    A function that names its first parameter ``cloudburst`` receives one of
    these, giving it ``get``/``put``/``delete`` access to the KVS (through the
    VM-local cache, under the session's consistency protocol) plus ``send``/
    ``recv`` direct messaging and its own unique invocation ID.
    """

    def __init__(self, executor: "ExecutorThread", ctx: RequestContext,
                 state: SessionState):
        self._executor = executor
        self._ctx = ctx
        self._state = state
        self._protocol = state.protocol

    # -- KVS access (Table 1: get / put / delete) -----------------------------------
    def get(self, key: str) -> Any:
        lattice = self._protocol.read(self._executor.cache, key, self._ctx, self._state)
        return LatticeEncapsulator.de_encapsulate(lattice)

    def get_all_versions(self, key: str) -> Tuple[Any, ...]:
        """All concurrent versions (causal modes expose conflicts on request)."""
        lattice = self._protocol.read(self._executor.cache, key, self._ctx, self._state)
        return LatticeEncapsulator.concurrent_versions(lattice)

    def get_many(self, keys: Sequence[str]) -> Dict[str, Any]:
        """Batched ``get``: one overlapped cache round trip for many keys.

        Missing keys are omitted from the result (a sequential loop of
        ``get`` would have raised per key; callers that looped with
        try/except get the same keys either way).
        """
        found = self._protocol.read_many(self._executor.cache, keys, self._ctx,
                                         self._state)
        return {key: LatticeEncapsulator.de_encapsulate(lattice)
                for key, lattice in found.items()}

    def get_many_versions(self, keys: Sequence[str]) -> Dict[str, Tuple[Any, ...]]:
        """Batched ``get_all_versions`` (missing keys omitted)."""
        found = self._protocol.read_many(self._executor.cache, keys, self._ctx,
                                         self._state)
        return {key: LatticeEncapsulator.concurrent_versions(lattice)
                for key, lattice in found.items()}

    def get_dependencies(self, key: str) -> Dict[str, Any]:
        """The causal dependency set of the locally read version of ``key``.

        Empty outside the causal consistency modes.  Applications use this to
        walk causal chains explicitly (e.g. Retwis locating the original tweet
        a reply depends on).
        """
        from ..lattices import CausalLattice

        local = self._executor.cache.get_local(key)
        if isinstance(local, CausalLattice):
            return dict(local.dependencies)
        return {}

    def put(self, key: str, value: Any) -> None:
        executor = self._executor
        prior = executor.cache.get_local(key)
        dependencies = {
            dep_key: entry.version
            for dep_key, entry in self._state.read_set.items()
            if hasattr(entry.version, "dominates")  # vector-clock versions only
        }
        lattice = executor.encapsulator.encapsulate(
            value,
            # LWW timestamps concatenate the node's (cluster-wide monotonic)
            # local clock with its unique id (§5.2).
            clock_ms=executor.kvs.wall_clock_ms(),
            prior=prior,
            dependencies=dependencies,
            key=key,
        )
        self._protocol.write(executor.cache, key, lattice, self._ctx, self._state)

    def delete(self, key: str) -> None:
        self._executor.cache.evict(key)
        self._executor.kvs.delete(key, self._ctx)

    # -- messaging (Table 1: send / recv / get_id) ------------------------------------
    def get_id(self) -> str:
        return self._executor.thread_id

    def send(self, recipient_id: str, message: Any) -> bool:
        return self._executor.router.send(self._executor.thread_id, recipient_id,
                                          message, self._ctx)

    def recv(self) -> List[Any]:
        return self._executor.router.recv(self._executor.thread_id, self._ctx)

    # -- extras used by applications and benchmarks ------------------------------------
    def simulate_compute(self, duration_ms: float) -> None:
        """Charge ``duration_ms`` of simulated CPU time to this request."""
        if duration_ms > 0:
            cost = self._executor.compute_model.fixed_ms(duration_ms)
            self._ctx.charge("compute", "user_function", cost)

    @property
    def consistency_level(self) -> ConsistencyLevel:
        return self._state.level

    @property
    def execution_id(self) -> str:
        return self._state.execution_id


class ExecutorThread:
    """One executor worker thread."""

    def __init__(self, thread_id: str, vm: "ExecutorVM"):
        self.thread_id = thread_id
        self.vm = vm
        self._function_cache: Dict[str, Callable] = {}
        self.invocation_count = 0
        self._alive = True
        #: Wraps this thread's writes; LWW timestamps carry its id (§5.2).
        self.encapsulator = LatticeEncapsulator(thread_id, vm.consistency_level)
        #: Bounded FIFO work queue every charged invocation waits in.
        self.work_queue = WorkQueue(bound=WORK_QUEUE_BOUND, label=thread_id)

    def _set_alive(self, alive: bool) -> None:
        self._alive = alive
        if self.vm.roster is not None:
            self.vm.roster.refresh(self.vm)

    #: False once drained or failed.  Every write reaches the cluster's idle
    #: roster, whoever makes it; the read is a C-level getter.
    alive = property(attrgetter("_alive"), _set_alive)

    # -- conveniences delegating to the VM ------------------------------------------
    @property
    def cache(self) -> ExecutorCache:
        return self.vm.cache

    @property
    def kvs(self) -> AnnaCluster:
        return self.vm.kvs

    @property
    def router(self) -> MessageRouter:
        return self.vm.router

    @property
    def latency_model(self) -> LatencyModel:
        return self.vm.latency_model

    @property
    def compute_model(self) -> ComputeModel:
        return self.vm.compute_model

    # -- function management ------------------------------------------------------------
    def has_function(self, name: str) -> bool:
        return name in self._function_cache

    def cached_functions(self) -> List[str]:
        return sorted(self._function_cache)

    def pin_function(self, name: str, func: Optional[Callable] = None) -> None:
        """Cache a function body locally (fetched uncharged: pinning is background)."""
        if func is None:
            stored = self.kvs.background_get(function_key(name))
            if stored is None:
                raise FunctionNotFoundError(name)
            func = stored.reveal()
        self._function_cache[name] = func

    def _fetch_function(self, name: str, ctx: RequestContext) -> Callable:
        stored = self.kvs.get_or_none(function_key(name), ctx)
        if stored is None:
            raise FunctionNotFoundError(name)
        self.latency_model.charge(ctx, "cloudburst", "deserialize_function")
        return stored.reveal()

    # -- invocation ----------------------------------------------------------------------
    def execute(self, function_name: str, args: Sequence[Any],
                ctx: RequestContext, state: SessionState) -> Any:
        """Run one function invocation on this thread, under ``state``'s protocol.

        The invocation first waits in this thread's FIFO work queue: the
        request's virtual clock advances past every reservation made by
        requests dispatched earlier on the shared timeline, so latency
        reflects queueing, not just service time.
        """
        if not self.alive or not self.vm.alive:
            raise ExecutorFailedError(self.thread_id, "executor is down")
        traced = ctx.span is not None
        arrival_ms = ctx.clock.now_ms
        service_start = self.work_queue.admit(arrival_ms)
        wait_ms = service_start - arrival_ms
        if wait_ms > 0:
            ctx.charge("cloudburst", "executor_queue", wait_ms)
            if traced:
                ctx.record_span("executor_queue", "executor", arrival_ms,
                                service_start, self.thread_id)
        if traced:
            ctx.open_span(f"invoke:{function_name}", "executor", self.thread_id)
        try:
            return self._execute_admitted(function_name, args, ctx, state)
        finally:
            self.work_queue.release(ctx.clock.now_ms)
            if traced:
                ctx.close_span()

    def _execute_admitted(self, function_name: str, args: Sequence[Any],
                          ctx: RequestContext, state: SessionState) -> Any:
        self.latency_model.charge(ctx, "cloudburst", "invoke")
        func = self._function_cache.get(function_name)
        if func is None:
            func = self._fetch_function(function_name, ctx)
            self._function_cache[function_name] = func
        resolved_args = self._resolve_references(args, ctx, state)
        # The API object is injected only if the function asks for it.
        if takes_library(func):
            result = func(UserLibrary(self, ctx, state), *resolved_args)
        else:
            result = func(*resolved_args)
        declared_compute = getattr(func, "_cloudburst_compute_ms", 0.0)
        if declared_compute:
            ctx.charge("compute", "user_function",
                       self.compute_model.fixed_ms(declared_compute))
        self.invocation_count += 1
        return result

    def _resolve_references(self, args: Sequence[Any], ctx: RequestContext,
                            state: SessionState) -> List[Any]:
        """Resolve KVS reference arguments before invoking the function.

        The paper resolves references in parallel (§4.2): with several
        references in one argument list, the protocol's ``read_many`` issues
        them as one overlapped batch, so the caller pays the per-key dispatch
        plus the slowest fetch rather than a full round trip per reference.
        """
        resolved = list(args)
        ref_indices = [index for index, arg in enumerate(args)
                       if isinstance(arg, CloudburstReference)]
        if not ref_indices:
            return resolved
        keys = [args[index].key for index in ref_indices]
        found = state.protocol.read_many(self.cache, keys, ctx, state)
        for index in ref_indices:
            key = args[index].key
            lattice = found.get(key)
            if lattice is None:
                raise KeyNotFoundError(key)
            resolved[index] = LatticeEncapsulator.de_encapsulate(lattice)
        return resolved


class ExecutorVM:
    """A function-execution VM: several worker threads plus one local cache."""

    def __init__(self, cluster: "CloudburstCluster", vm_id: str, threads_per_vm: int):
        if threads_per_vm <= 0:
            raise ValueError("threads_per_vm must be positive")
        self.vm_id = vm_id
        # The shared parts of the deployment, read once from the cluster.
        self.kvs = cluster.kvs
        self.engine = cluster.engine
        self.router = cluster.router
        self.latency_model = cluster.latency_model
        self.compute_model = cluster.compute_model
        self.consistency_level = cluster.consistency
        self.cache = ExecutorCache(f"cache-{vm_id}", self.kvs,
                                   peer_registry=cluster.cache_registry)
        self.threads: List[ExecutorThread] = []
        self._alive = True
        #: The cluster's idle roster, once it holds this VM (``add_vm``).
        self.roster = None
        for index in range(threads_per_vm):
            thread = ExecutorThread(f"{vm_id}:{index}", self)
            self.threads.append(thread)
            self.router.register_thread(thread.thread_id)

    def _set_alive(self, alive: bool) -> None:
        self._alive = alive
        if self.roster is not None:
            self.roster.refresh(self)

    #: Like :attr:`ExecutorThread.alive`: every write reaches the roster.
    alive = property(attrgetter("_alive"), _set_alive)

    # -- lifecycle ------------------------------------------------------------------
    def fail(self) -> None:
        """Kill the VM (fault injection): threads stop, the cache is lost."""
        self.alive = False
        for thread in self.threads:
            thread.alive = False
            self.router.mark_unreachable(thread.thread_id)

    def recover(self) -> None:
        """Bring the VM back with a cold cache (as a restarted container would)."""
        self.alive = True
        self.cache.clear()
        for thread in self.threads:
            thread.alive = True
            self.router.mark_reachable(thread.thread_id)

    # -- helpers -----------------------------------------------------------------------
    def thread_ids(self) -> List[str]:
        return [thread.thread_id for thread in self.threads]

    # -- metrics (§4.1: executors publish these to the KVS) ------------------------------
    def queue_depth(self, at_ms: float) -> int:
        """Work items in service or queued across this VM's threads at ``at_ms``."""
        return sum(thread.work_queue.depth(at_ms)
                   for thread in self.threads if thread.alive)

    def load(self, at_ms: float) -> Tuple[float, List[ExecutorThread]]:
        """The §4.3 backpressure signal at ``at_ms``: ``(utilization, full)``.

        One pass over the threads, one queue-depth read per *busy* queue (an
        idle one holds nothing and a bound is positive, so it adds no depth
        and is never full).  ``utilization`` is the fraction of this VM's
        compute occupied by outstanding requests: requests waiting in a
        bounded queue count toward saturation, which is what the backpressure
        policy keys off.  ``full`` lists the threads whose bounded work queue
        has no room.  The queues themselves are asked every time — work can
        be admitted to one without going through this VM.

        The denominator is the *alive* thread count: after a partial drain
        the dead threads serve nothing, and padding the denominator with
        them would under-report saturation to both the placement policy and
        the control plane (a VM with no live threads is saturated by
        definition).
        """
        alive = depth = 0
        full: List[ExecutorThread] = []
        for thread in self.threads:
            if thread.alive:
                alive += 1
            queue = thread.work_queue
            if queue.busy_at(at_ms):
                queued = queue.depth(at_ms)
                if thread.alive:
                    depth += queued
                if queue.bound is not None and queued >= queue.bound:
                    full.append(thread)
        if not alive:
            return (1.0 if self.threads else 0.0), full
        return (1.0 if depth >= alive else depth / alive), full

    def utilization(self, at_ms: Optional[float] = None) -> float:
        """:meth:`load`'s utilization (default: at the engine's current time)."""
        return self.load(self.engine.now_ms if at_ms is None else at_ms)[0]

    def cached_functions(self) -> List[str]:
        functions = set()
        for thread in self.threads:
            functions.update(thread.cached_functions())
        return sorted(functions)

    def invocation_count(self) -> int:
        return sum(thread.invocation_count for thread in self.threads)

    def publish_metrics(self) -> None:
        """Publish cached-function and load metrics to the KVS (§4.1).

        The utilization sample is queue-aware (taken at the current virtual
        time), so the monitoring system aggregating these keys sees the same
        saturation signal the scheduler's backpressure does.  The publish
        itself is background traffic (``AnnaCluster.background_put``: no
        one is charged and storage nodes don't queue it).
        """
        now_ms = self.engine.now_ms
        metrics = {
            "vm_id": self.vm_id,
            "alive": self.alive,
            "utilization": self.utilization(now_ms),
            "queue_depth": self.queue_depth(now_ms),
            "threads_alive": sum(1 for t in self.threads if t.alive),
            "invocations": self.invocation_count(),
            "cached_functions": self.cached_functions(),
            "cached_keys": len(self.cache.cached_keys()),
            "published_at_ms": now_ms,
        }
        # System traffic: the periodic publish must not register as client
        # load with the hot-key or storage-autoscaling policies.
        self.kvs.background_put(EXECUTOR_METRICS_PREFIX + self.vm_id,
                                self.kvs.plain(metrics), count_access=False)
        self.cache.publish_cached_keys()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutorVM({self.vm_id!r}, threads={len(self.threads)}, alive={self.alive})"
