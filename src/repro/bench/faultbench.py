"""Fault-recovery bench: retwis under injected failures, gated on §4.5.

Runs the Retwis workload (as two-stage DAG sessions, so every request is
interruptible mid-flight) under each fault class of the
:class:`~repro.sim.faults.FaultPlane` and checks the §4.5 oracle:

* the Table 2 sanity invariants hold under LWW even while failures land
  (``AnomalyReport.invariant_violations`` is the single source of truth);
* zero calls are ever routed to a drained or dead executor thread
  (``SchedulerStats.calls_routed_to_dead``);
* zero sessions end the run abandoned — a crashed scheduler's restart
  recovers every in-flight DAG from its :class:`SessionJournal`;
* every injected fault is recovered within the plane's bounded virtual-time
  window (``max_recovery_ms <= recovery_bound_ms``);
* fault schedules are seed-deterministic: the same seed replays the fault
  timeline sample-for-sample *and* reproduces the anomaly counters.

The workload issues DAGs, not single functions, on purpose: a function that
completes synchronously inside one request context never appears in flight
to the fault plane, so single-function retwis would make ``executor_kill``
and ``scheduler_crash`` vacuous.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..anna import AnnaCluster
from ..anna.storage_node import MEMORY_CAPACITY_KEYS
from ..apps.retwis import cb_get_timeline, cb_post_tweet, user_key
from ..cloudburst import AnomalyTracker, CloudburstCluster, ConsistencyLevel
from ..sim import DEFAULT_FAULT_CLASSES, FaultPlane, RandomSource
from ..workloads.social import SocialWorkloadGenerator
from .harness import EngineLoadDriver

#: Fault classes the bench section must cover (one run per class).
FAULT_CLASSES = DEFAULT_FAULT_CLASSES


# -- the two-stage retwis DAGs -----------------------------------------------------------
def fb_read_profile(cloudburst, user: str) -> Dict[str, str]:
    """Stage 1 of both DAGs: read the acting user's profile record."""
    return cloudburst.get(user_key(user)) or {"name": user}


def fb_post(cloudburst, profile: Dict[str, str], author: str, tweet_id: str,
            text: str, parent_id: Optional[str] = None) -> Dict[str, Optional[str]]:
    """Stage 2 (write path): post a tweet on behalf of the read profile."""
    return cb_post_tweet(cloudburst, author, tweet_id, text, parent_id)


def fb_timeline(cloudburst, profile: Dict[str, str], user: str) -> Dict[str, object]:
    """Stage 2 (read path): assemble the user's home timeline."""
    return cb_get_timeline(cloudburst, user)


def _build_cluster(seed: int, executor_vms: int, scheduler_count: int,
                   user_count: int, seed_tweet_count: int,
                   propagation_interval_ms: float,
                   durable_path: Optional[Path] = None,
                   memory_capacity_keys: int = MEMORY_CAPACITY_KEYS):
    """A retwis-loaded LWW cluster with the DAG wrappers registered."""
    from ..apps.retwis import RetwisOnCloudburst

    tracker = AnomalyTracker()
    cluster = CloudburstCluster(
        executor_vms=executor_vms, threads_per_vm=2,
        scheduler_count=scheduler_count,
        consistency=ConsistencyLevel.LWW, seed=seed,
        anomaly_tracker=tracker,
        anna_propagation=AnnaCluster.PROPAGATE_PERIODIC,
        propagation_interval_ms=propagation_interval_ms,
        # The default 5 s fault timeout dwarfs this workload's ~7 ms DAGs;
        # a compact timeout keeps failed attempts retrying inside the run
        # window without changing the recovery semantics under test.
        fault_timeout_ms=50.0,
        anna_durable_path=durable_path,
        anna_memory_capacity_keys=memory_capacity_keys)
    generator = SocialWorkloadGenerator(
        user_count=user_count, followees_per_user=min(8, user_count - 1),
        seed_tweet_count=seed_tweet_count, write_fraction=0.35, seed=seed)
    graph = generator.build_graph()
    app = RetwisOnCloudburst(cluster)
    app.load_graph(graph)
    client = app.client
    client.register(fb_read_profile, name="fb_read_profile")
    client.register(fb_post, name="fb_post")
    client.register(fb_timeline, name="fb_timeline")
    client.register_dag("retwis-post", ["fb_read_profile", "fb_post"],
                        [("fb_read_profile", "fb_post")])
    client.register_dag("retwis-timeline", ["fb_read_profile", "fb_timeline"],
                        [("fb_read_profile", "fb_timeline")])
    # Seed tweets receive sequential ids starting at the app's counter base;
    # live posts reply to them (and to each other) by id.
    seed_tweet_ids = [f"t{1_000_000 + index}" for index in range(len(graph.seed_tweets))]
    return cluster, tracker, app, generator, seed_tweet_ids


def _run_fault_class(fault: str, seed: int, request_count: int, clients: int,
                     executor_vms: int, scheduler_count: int, user_count: int,
                     seed_tweet_count: int, mean_interval_ms: float,
                     downtime_ms: float, tick_interval_ms: float,
                     propagation_interval_ms: float,
                     durable_dir: Optional[Union[str, Path]] = None,
                     memory_capacity_keys: int = MEMORY_CAPACITY_KEYS) -> Dict[str, Any]:
    """One LWW retwis run with a single fault class enabled."""
    durable_path: Optional[Path] = None
    if durable_dir is not None:
        # Fresh database per (fault, seed) run: leftover rows from an earlier
        # run would leak stale lattices into this one and break the
        # determinism replay.  The -wal/-shm sidecars go with it.
        durable_path = Path(durable_dir) / f"cold-{fault}-{seed}.sqlite"
        for suffix in ("", "-wal", "-shm"):
            sidecar = Path(str(durable_path) + suffix)
            if sidecar.exists():
                sidecar.unlink()
    cluster, tracker, app, generator, live_tweets = _build_cluster(
        seed, executor_vms, scheduler_count, user_count, seed_tweet_count,
        propagation_interval_ms, durable_path=durable_path,
        memory_capacity_keys=memory_capacity_keys)
    plane = FaultPlane(cluster, RandomSource(seed).spawn("fault-plane"),
                       classes=(fault,), mean_interval_ms=mean_interval_ms,
                       downtime_ms=downtime_ms, tick_interval_ms=tick_interval_ms)
    stream = generator.request_stream(request_count)
    reply_rng = RandomSource(seed).spawn("faultbench/reply")
    live_tweets = list(live_tweets)

    def request(cloud, ctx, index):
        req = stream[index % len(stream)]
        if req.kind == "post":
            tweet_id = f"t{next(app._tweet_ids)}"
            parent = reply_rng.choice(live_tweets) if req.reply_to else None
            live_tweets.append(tweet_id)
            if len(live_tweets) > 200:
                live_tweets.pop(0)
            return cloud.call_dag(
                "retwis-post",
                {"fb_read_profile": [req.user],
                 "fb_post": [req.user, tweet_id, req.text or "", parent]},
                ctx=ctx)
        return cloud.call_dag(
            "retwis-timeline",
            {"fb_read_profile": [req.user], "fb_timeline": [req.user]},
            ctx=ctx)

    driver = EngineLoadDriver(cluster, request, clients=clients,
                              max_requests=request_count,
                              label=f"fault-{fault}")
    # The fault schedule counts from the plane's start: start it where the
    # run will start.
    cluster.settle()
    plane.start()
    try:
        simulation = driver.run()
    finally:
        plane.stop()

    report = tracker.report
    return {
        "fault": fault,
        "requests": driver.issued,
        "completed": driver.completed,
        "failed": driver.failed,
        "duration_ms": simulation.duration_ms,
        "anomalies": report.as_row(),
        "violations": report.invariant_violations(),
        "abandoned_sessions": cluster.abandoned_session_count(),
        "calls_routed_to_dead": sum(
            scheduler.stats.calls_routed_to_dead
            for scheduler in cluster.schedulers),
        "recovered_sessions": sum(
            scheduler.journal.recovered_sessions
            for scheduler in cluster.schedulers),
        "session_retries": sum(
            record.retries for scheduler in cluster.schedulers
            for record in scheduler.journal.records()),
        "faults": plane.snapshot(),
        "timeline_signature": [list(entry)
                               for entry in plane.timeline_signature()],
        "durable": cluster.kvs.durable_stats(),
        # Per-session state transitions of every scheduler: the figure
        # registry moves them out of the snapshot into their own file.
        "journals": [scheduler.journal.to_dict() for scheduler in cluster.schedulers],
    }


def run_fault_recovery(seed: int = 7, request_count: int = 160,
                       clients: int = 8, executor_vms: int = 4,
                       scheduler_count: int = 2, user_count: int = 20,
                       seed_tweet_count: int = 120,
                       mean_interval_ms: float = 20.0,
                       downtime_ms: float = 10.0,
                       tick_interval_ms: float = 5.0,
                       propagation_interval_ms: float = 50.0,
                       fault_classes: Sequence[str] = FAULT_CLASSES,
                       determinism_check: bool = True,
                       durable_dir: Optional[Union[str, Path]] = None,
                       memory_capacity_keys: int = MEMORY_CAPACITY_KEYS) -> Dict[str, Any]:
    """Run retwis under each fault class; returns the ``fault_recovery`` section.

    Each class gets its own seeded run (seed offset per class so schedules
    never alias); ``determinism_check`` re-runs the first class with the same
    seed and asserts the fault timeline *and* the anomaly counters replay
    identically — the bench-gate check for the seeded fault schedules.  Each
    class entry also carries its schedulers' session ``journals``, which the
    figure registry writes to ``BENCH_fault_journals.json``, not the snapshot.

    ``durable_dir`` switches the storage nodes onto real SQLite/WAL cold
    tiers (one fresh database per fault class under that directory) and turns
    ``storage_drop`` into crash/restart; pair it with a small
    ``memory_capacity_keys`` so capacity pressure actually demotes keys to
    disk before the first crash, making the cold-set recovery non-vacuous.
    """

    def run_class(fault: str, class_seed: int) -> Dict[str, Any]:
        return _run_fault_class(
            fault, class_seed, request_count, clients, executor_vms,
            scheduler_count, user_count, seed_tweet_count, mean_interval_ms,
            downtime_ms, tick_interval_ms, propagation_interval_ms,
            durable_dir=durable_dir,
            memory_capacity_keys=memory_capacity_keys)

    classes: Dict[str, Dict[str, Any]] = {}
    class_seeds: Dict[str, int] = {}
    for index, fault in enumerate(fault_classes):
        class_seeds[fault] = seed + 17 * index
        classes[fault] = run_class(fault, class_seeds[fault])

    section: Dict[str, Any] = {
        "seed": seed,
        "fault_classes": list(fault_classes),
        "durable": durable_dir is not None,
        "classes": classes,
    }
    if determinism_check and fault_classes:
        fault = fault_classes[0]
        replay = run_class(fault, class_seeds[fault])
        first = classes[fault]
        section["determinism"] = {
            "fault": fault,
            "timeline_match":
                replay["timeline_signature"] == first["timeline_signature"],
            "anomalies_match": replay["anomalies"] == first["anomalies"],
        }
    return section


def fault_recovery_errors(section: Dict[str, Any]) -> List[str]:
    """The §4.5 oracle over a ``fault_recovery`` section; [] means it holds."""
    errors: List[str] = []
    if not section:
        return ["fault_recovery: section missing"]
    classes = section.get("classes") or {}
    for fault in section.get("fault_classes", FAULT_CLASSES):
        entry = classes.get(fault)
        if entry is None:
            errors.append(f"fault_recovery[{fault}]: class was not run")
            continue
        for message in entry.get("violations", []):
            errors.append(f"fault_recovery[{fault}]: {message}")
        if entry.get("completed", 0) <= 0:
            errors.append(f"fault_recovery[{fault}]: no request completed")
        abandoned = entry.get("abandoned_sessions", -1)
        if abandoned != 0:
            errors.append(
                f"fault_recovery[{fault}]: {abandoned} session(s) ended the "
                "run abandoned (journal recovery must leave zero)")
        dead_calls = entry.get("calls_routed_to_dead", -1)
        if dead_calls != 0:
            errors.append(
                f"fault_recovery[{fault}]: {dead_calls} call(s) routed to a "
                "dead or drained executor thread")
        faults = entry.get("faults") or {}
        injected = faults.get("injected", 0)
        if injected <= 0:
            errors.append(
                f"fault_recovery[{fault}]: no fault was injected (the run "
                "never exercised the class)")
        if faults.get("recovered", -1) != injected:
            errors.append(
                f"fault_recovery[{fault}]: {injected} injected but "
                f"{faults.get('recovered')} recovered")
        bound = faults.get("recovery_bound_ms", 0.0)
        worst = faults.get("max_recovery_ms", float("inf"))
        if worst > bound:
            errors.append(
                f"fault_recovery[{fault}]: recovery took {worst:.1f} ms, over "
                f"the {bound:.1f} ms bound")
        if fault == "scheduler_crash" and entry.get("recovered_sessions", 0) <= 0:
            errors.append(
                "fault_recovery[scheduler_crash]: no session was recovered "
                "from the journal (the crash never caught a DAG in flight)")
        durable = entry.get("durable") or {}
        if durable.get("enabled"):
            at_crash = durable.get("cold_keys_at_crash", 0)
            recovered = durable.get("cold_keys_recovered", -1)
            if recovered < at_crash:
                errors.append(
                    f"fault_recovery[{fault}]: {at_crash} cold key(s) were on "
                    f"disk at crash time but only {recovered} were recovered "
                    "(the durable tier lost demoted keys)")
            if fault == "storage_drop" and durable.get("crashes", 0) > 0 \
                    and at_crash <= 0:
                errors.append(
                    "fault_recovery[storage_drop]: nodes crashed with an "
                    "empty cold set — the durable-recovery path was never "
                    "exercised (demotions did not happen before the crash)")
    determinism = section.get("determinism")
    if determinism is not None:
        if not determinism.get("timeline_match"):
            errors.append(
                "fault_recovery: fault timeline is not seed-deterministic")
        if not determinism.get("anomalies_match"):
            errors.append(
                "fault_recovery: anomaly counters are not seed-deterministic")
    return errors
