"""Shared benchmark plumbing: load drivers and latency summaries.

* :func:`run_closed_loop` — a plain loop of requests, one after another.  It
  measures the simulated baselines (each request on a fresh zero-based
  clock) and top-level Cloudburst loops, which ride the cluster's clock:
  every ``cloud.call`` starts where the previous one completed.
  :func:`systems` turns recorders into the ``{system: latency summary}``
  dict a snapshot section reports.
* :class:`EngineLoadDriver` — the multi-client driver used by the throughput
  and consistency figures (5, 6, 7, 8, 10, 12, Table 2): the driver
  constructs one :class:`~repro.cloudburst.client.CloudburstClient` per
  simulated client and every request goes through the *public*
  futures-first API (``cloud.call``/``cloud.call_dag``) on the cluster's
  discrete-event engine.  Contention flows through the actual scheduler
  placement policy, executor work queues, caches and Anna — not through a
  synthetic service-time model — and completion is delivered through
  ``future.add_done_callback``, so stateful DAG sessions genuinely
  interleave their cache and snapshot accesses on one timeline.
  ``clients=1`` is the same closed loop a plain top-level loop runs.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..cloudburst.controlplane import ComputeControlPlane
from ..cloudburst.references import CloudburstFuture
from ..errors import DagExecutionError, StorageOverloadError
from ..sim import LatencyRecorder, RequestContext, SimClock, SimulationResult
from ..sim.stats import build_throughput_curve


def run_closed_loop(label: str, request_fn: Callable[[int], float],
                    requests: int) -> LatencyRecorder:
    """Issue ``requests`` requests one after another; ``request_fn`` returns latency (ms)."""
    recorder = LatencyRecorder(label=label)
    for index in range(requests):
        recorder.record(request_fn(index))
    return recorder


def latency_summary(recorder: LatencyRecorder) -> dict:
    """A recorder as a snapshot leaf: request count, median and p99 (ms)."""
    stats = recorder.summary()
    return {"count": stats.count, "median_ms": round(stats.median_ms, 3),
            "p99_ms": round(stats.p99_ms, 3)}


def systems(*recorders: LatencyRecorder) -> dict:
    """``{label: latency_summary}`` — a section's comparison of systems."""
    return {recorder.label: latency_summary(recorder) for recorder in recorders}


#: Signature of a driver request: ``(cloud, ctx, request_index)`` where
#: ``cloud`` is the issuing client's own ``CloudburstClient`` and ``ctx`` is a
#: request context whose clock starts at the arrival's virtual time.  Return
#: the :class:`CloudburstFuture` of the invocation (the driver subscribes to
#: its completion — a DAG future resolves via later engine events) or None
#: for work that completes synchronously on ``ctx`` (the driver then reads
#: the end time off the context clock).
DriverRequestFn = Callable[["object", RequestContext, int], Optional[CloudburstFuture]]


class EngineLoadDriver:
    """Concurrent closed-loop clients over a real Cloudburst cluster.

    A thin multi-client wrapper over the public client API: the driver
    constructs one :class:`CloudburstClient` per simulated client and each
    request issues through ``cloud.call``/``cloud.call_dag``, never through
    scheduler internals.  Every client lives on the cluster's
    :class:`~repro.sim.engine.Engine` timeline.  A request issued at virtual
    time *t* gets a context whose clock starts at *t*; the scheduler places
    it with the executor-queue occupancy of that moment, and the executor
    thread's FIFO work queue makes it wait behind requests dispatched
    earlier.  Because arrivals are processed in global virtual-time order,
    two runs with the same seeds replay identically.

    Completion is future-driven: the driver subscribes to each invocation's
    :class:`CloudburstFuture`, so a closed-loop client's next arrival fires
    when its DAG session's sink event resolves the future — many stateful
    sessions are genuinely in flight at once on the same caches (the regime
    the §6.2 consistency experiments measure).  Failed futures (retries
    exhausted, storage backpressure) count in ``failed``, never in the
    latency results.

    Autoscaling is the control plane's job, not the driver's: pass a
    :class:`~repro.cloudburst.controlplane.ComputeControlPlane` and the full
    §4.4 loop (periodic metric publishes, KVS aggregation, scale decisions,
    pin migration) runs as recurring engine events alongside the workload.

    A run starts wherever the cluster's virtual time stands once it has
    settled (see :meth:`run`); ``stop_ms`` and ``max_duration_ms`` count
    from there, and so does everything the
    returned :class:`SimulationResult` reports.  Settling fires whatever is
    already queued on the engine, so anything meant to happen *during* the
    run is scheduled from the run itself (a control plane, the first request).
    """

    def __init__(self, cluster, request_fn: DriverRequestFn, *,
                 clients: int = 1,
                 stop_ms: Optional[float] = None,
                 max_requests: Optional[int] = None,
                 max_duration_ms: float = float("inf"),
                 control_plane: Optional[ComputeControlPlane] = None,
                 throughput_bucket_ms: float = 1_000.0,
                 record_charges: bool = True,
                 keep_latency_samples: bool = True,
                 label: str = "engine-driver"):
        if clients <= 0:
            raise ValueError("a closed-loop driver needs at least one client")
        if max_requests is None and max_duration_ms == float("inf") and stop_ms is None:
            raise ValueError("driver needs max_requests, max_duration_ms or stop_ms")
        if control_plane is not None and max_duration_ms == float("inf"):
            raise ValueError("a control plane needs a finite max_duration_ms")
        self.cluster = cluster
        self.request_fn = request_fn
        self.clients = clients
        self.stop_ms = stop_ms
        self.max_requests = max_requests
        self.max_duration_ms = max_duration_ms
        self.control_plane = control_plane
        self.bucket_ms = throughput_bucket_ms
        #: When False, request contexts skip the itemised charge log (the
        #: latency samples are parity-pinned identical; only the structural
        #: per-charge breakdown goes empty).  Large sweeps use this: a driver
        #: that only reads latency totals has no reason to allocate millions
        #: of ChargeRecords.
        self.record_charges = record_charges
        self.label = label
        self.engine = cluster.engine
        #: Virtual time the run started at (set by :meth:`run`).
        self.started_ms = 0.0
        #: ``keep_latency_samples=False`` records completions into a log-scale
        #: histogram instead of a flat list (O(1) memory at paper-scale sweep
        #: volumes); ``summary()`` then reads bucket-interpolated percentiles.
        #: Only drivers whose consumers read nothing but the summary use it.
        self.latencies = LatencyRecorder(label=label,
                                         keep_samples=keep_latency_samples)
        self.issued = 0
        self.completed = 0
        #: Requests that resolved with an error (storage backpressure, a DAG
        #: that exhausted its retries): the client moves on, but a failure is
        #: not a completion.
        self.failed = 0
        #: Requests currently in flight (issued, future not yet resolved).
        self.inflight = 0
        self._last_completion_ms = 0.0
        #: When the latest request returned to its client, failures included.
        self._last_end_ms = 0.0
        self._storage_before: Dict[str, float] = {}
        self._completion_buckets: Dict[int, int] = {}
        self._active: Dict[int, bool] = {}
        self._initial_capacity: Optional[int] = None
        #: One CloudburstClient per simulated client, created on first use.
        self._clients: Dict[int, object] = {}

    # -- public API --------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run the workload to completion; the one ``Engine.run`` of a run.

        The run starts once the cluster has settled
        (:meth:`~repro.cloudburst.cluster.CloudburstCluster.settle`), on a
        whole virtual millisecond.  Tick, boot and end-of-run times are
        whole-millisecond offsets from the start, so they are exact in
        floating point: events the configuration puts at the same instant
        (the last policy tick and the end of the run, a booted VM and the
        tick that should see it) land on the same instant and keep their
        scheduling order, however long set-up happened to take.
        """
        engine = self.engine
        origin = self.started_ms = self.cluster.settle()
        self._storage_before = self._storage_counters()
        if self.control_plane is not None:
            horizon = (self.max_duration_ms
                       if self.max_duration_ms != float("inf") else None)
            self.control_plane.start(horizon_ms=horizon)
        try:
            # Baseline capacity is the thread count *before* the workload:
            # mid-run capacity changes without a control plane (fault
            # injection, manual drains) must not rewrite the run's baseline.
            self._initial_capacity = self._live_thread_count()
            for client in range(self.clients):
                self._active[client] = True
                engine.at(origin, lambda cid=client: self._client_arrival(cid))
                if self.stop_ms is not None:
                    engine.at(origin + self.stop_ms,
                              lambda cid=client: self._stop_client(cid))
            engine.run(until_ms=origin + self.max_duration_ms)
        finally:
            # The engine outlives the run: arrivals still queued past
            # ``max_duration_ms`` must find their clients gone, and a last
            # request that completed in-line (ahead of the engine's clock)
            # must have completed before anyone issues the next one.
            self._active.clear()
            if self.control_plane is not None:
                self.control_plane.stop()
            self.engine.advance_to(self._last_end_ms)
        return self._build_result()

    # -- client behaviour --------------------------------------------------
    def _client_for(self, client: int):
        """This simulated client's own CloudburstClient (created on demand)."""
        cloud = self._clients.get(client)
        if cloud is None:
            cloud = self.cluster.connect(f"{self.label}-client-{client}")
            self._clients[client] = cloud
        return cloud

    def _client_arrival(self, client: int) -> None:
        if not self._active.get(client, False) or self._exhausted():
            return
        end_ms = self._issue_request(client)
        if end_ms is None:
            return  # future-driven: continuation fires from the done callback
        # Closed loop: next request once this one returns.
        self._next_arrival(client, end_ms)

    def _stop_client(self, client: int) -> None:
        self._active[client] = False

    def _exhausted(self) -> bool:
        return self.max_requests is not None and self.issued >= self.max_requests

    def _issue_request(self, client: int) -> Optional[float]:
        """Issue one request; returns the end time for synchronously completed
        work, or None when completion (and the closed loop's next arrival) is
        driven by the returned future's done callback."""
        start = self.engine.now_ms
        index = self.issued
        self.issued += 1
        self.inflight += 1
        ctx = RequestContext(clock=SimClock(start),
                             record_charges=self.record_charges)
        try:
            future = self.request_fn(self._client_for(client), ctx, index)
        except (StorageOverloadError, DagExecutionError):
            # Every replica of some key pushed back on a direct KVS access,
            # or a synchronous invocation exhausted its §4.5 retries: this
            # request fails (its partial latency is discarded) and the closed
            # loop continues from the virtual time the failure happened at,
            # so one saturated replica set degrades throughput instead of
            # unwinding the whole run.
            self.inflight -= 1
            self.failed += 1
            return ctx.clock.now_ms
        if future is None:
            # Synchronous work (e.g. app-level protocols driving ctx directly).
            self.inflight -= 1
            return self._record_completion(start, ctx.clock.now_ms)

        def on_done(resolved: CloudburstFuture) -> None:
            self.inflight -= 1
            if resolved.exception() is not None:
                # Session aborted (retries exhausted, storage overload): the
                # client moves on, but a failure is not a completion — its
                # fault-timeout latency must not pollute the results.
                self.failed += 1
                end = ctx.clock.now_ms
            else:
                end = self._record_completion(
                    start, resolved.result().ctx.clock.now_ms)
            self._next_arrival(client, end)

        future.add_done_callback(on_done)
        return None

    def _next_arrival(self, client: int, end_ms: float) -> None:
        self._last_end_ms = max(self._last_end_ms, end_ms)
        if not self._active.get(client, False) or self._exhausted():
            return
        self.engine.at(end_ms, lambda: self._client_arrival(client))

    def _record_completion(self, start_ms: float, end_ms: float) -> float:
        self.latencies.record(end_ms - start_ms)
        self.completed += 1
        self._last_completion_ms = max(self._last_completion_ms, end_ms)
        bucket = int((end_ms - self.started_ms) // self.bucket_ms)
        self._completion_buckets[bucket] = self._completion_buckets.get(bucket, 0) + 1
        return end_ms

    def _storage_counters(self) -> Dict[str, float]:
        kvs = self.cluster.kvs
        return {
            "queue_busy_ms": kvs.total_queue_busy_ms(),
            "rejections": kvs.total_rejections(),
            "read_redirects": kvs.total_read_redirects(),
            "demotions": kvs.total_demotions(),
            "gossip_rounds": kvs.gossip_rounds,
            "gossip_key_exchanges": kvs.gossip_key_exchanges,
        }

    def storage_report(self) -> Dict[str, float]:
        """What the run cost at the Anna tier: the storage counters' growth
        since :meth:`run` started, plus the node count now."""
        report = {name: value - self._storage_before[name]
                  for name, value in self._storage_counters().items()}
        report["queue_busy_ms"] = round(report["queue_busy_ms"], 3)
        return {"nodes": self.cluster.kvs.node_count(), **report}

    # -- metrics helpers ---------------------------------------------------
    def _live_thread_count(self) -> int:
        return self.cluster.live_thread_count()

    # -- results -----------------------------------------------------------
    def _build_result(self) -> SimulationResult:
        origin = self.started_ms
        duration = min(self.max_duration_ms,
                       max(self.engine.now_ms, self._last_completion_ms) - origin)
        if self.control_plane is not None:
            capacity_timeline = [(at_ms - origin, capacity) for at_ms, capacity
                                 in self.control_plane.capacity_timeline]
        else:
            capacity_timeline = [(0.0, self._initial_capacity)]
        return SimulationResult(
            latencies=self.latencies,
            throughput_curve=build_throughput_curve(
                self._completion_buckets, capacity_timeline,
                self.bucket_ms, duration,
                threads_per_node=self.cluster.threads_per_vm),
            completed_requests=self.completed,
            duration_ms=duration,
            capacity_timeline=capacity_timeline,
        )


def build_cluster_with_threads(total_threads: int, threads_per_vm: int = 3,
                               **cluster_kwargs):
    """Build a cluster with an exact executor-thread total.

    Thread counts that are not multiples of the VM size get one smaller
    remainder VM, mirroring how the paper's sweeps pin odd totals.
    """
    if total_threads <= 0:
        raise ValueError("total_threads must be positive")
    from ..cloudburst import CloudburstCluster

    full_vms, remainder = divmod(total_threads, threads_per_vm)
    if full_vms == 0:
        return CloudburstCluster(executor_vms=1, threads_per_vm=remainder,
                                 **cluster_kwargs)
    cluster = CloudburstCluster(executor_vms=full_vms, threads_per_vm=threads_per_vm,
                                **cluster_kwargs)
    if remainder:
        cluster.add_vm(threads=remainder)
    return cluster
