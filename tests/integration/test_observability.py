"""Integration tests for the observability plane.

The acceptance properties: one client call yields a
*connected* causal span tree covering scheduler placement, executor queueing,
cache traffic and Anna storage; span context survives ``fork()``, §4.5
retries, executor kills and scheduler crash/recovery without orphaning a
single span; and tracing never touches a clock — seeded latency timelines
are byte-identical with tracing fully on, fully off, or attached at rate 0.
"""

import pytest

from repro.bench.harness import EngineLoadDriver
from repro.cloudburst import CloudburstCluster, CloudburstReference
from repro.errors import (DagDeletedError, DagExecutionError, DagNotFoundError,
                          ExecutorFailedError, FunctionNotFoundError)
from repro.obs import Tracer, spans_to_json
from repro.sim import FaultPlane, RandomSource, RequestContext, SimClock


def _pipeline_cluster(tracer=None, seed=3, executor_vms=2,
                      scheduler_count=1, **cluster_kwargs):
    cluster = CloudburstCluster(executor_vms=executor_vms, threads_per_vm=3,
                                scheduler_count=scheduler_count,
                                tracer=tracer, seed=seed, **cluster_kwargs)
    cloud = cluster.connect()
    cloud.put("k1", 5)

    def inc(cloudburst, ref):
        cloudburst.simulate_compute(5.0)
        return ref + 1

    def double(cloudburst, value):
        cloudburst.simulate_compute(5.0)
        return value * 2

    cloud.register(inc, name="inc")
    cloud.register(double, name="double")
    cloud.register_dag("pipeline", ["inc", "double"], [("inc", "double")])
    return cluster, cloud


def _request_roots(tracer):
    return [span for span in tracer.spans if span.parent_id is None
            and not (span.attrs or {}).get("background")]


def _trace(tracer, trace_id):
    return [span for span in tracer.spans if span.trace_id == trace_id]


class TestConnectedSpanTree:
    def test_single_call_dag_covers_every_tier(self):
        tracer = Tracer(sample_rate=1.0)
        # Prefetch off so the reference read is a foreground cache miss and
        # the request tree reaches the anna tier (prefetch would serve it
        # from a background fetch — covered in test_prefetch.py).
        cluster, cloud = _pipeline_cluster(tracer=tracer,
                                           prefetch_references=False)
        future = cloud.call_dag("pipeline",
                                {"inc": [CloudburstReference("k1")]})
        assert future.result().value == 12

        request_roots = _request_roots(tracer)
        assert len(request_roots) == 1
        members = _trace(tracer, request_roots[0].trace_id)
        # One connected tree: every tier, no orphans, everything closed.
        assert {span.tier for span in members} == \
            {"client", "scheduler", "executor", "cache", "anna"}
        assert tracer.orphan_spans() == []
        assert tracer.unfinished_spans() == []
        names = {span.name for span in members}
        assert {"schedule", "invoke:inc", "invoke:double"} <= names

    def test_forked_branches_share_the_trace(self):
        # A diamond DAG forks the context; both branches' spans must land in
        # the same trace, parented under the same attempt.
        tracer = Tracer(sample_rate=1.0)
        cluster = CloudburstCluster(executor_vms=2, threads_per_vm=3,
                                    tracer=tracer, seed=7)
        cloud = cluster.connect()

        def source(cloudburst):
            return 1

        def left(cloudburst, value):
            cloudburst.simulate_compute(4.0)
            return value + 10

        def right(cloudburst, value):
            cloudburst.simulate_compute(6.0)
            return value + 20

        def join(cloudburst, a, b):
            return a + b

        for func, name in ((source, "source"), (left, "left"),
                           (right, "right"), (join, "join")):
            cloud.register(func, name=name)
        cloud.register_dag("diamond", ["source", "left", "right", "join"],
                           [("source", "left"), ("source", "right"),
                            ("left", "join"), ("right", "join")])
        assert cloud.call_dag("diamond", {"source": []}).result().value == 32

        trace_ids = {span.trace_id for span in tracer.spans
                     if not (span.attrs or {}).get("background")}
        assert len(trace_ids) == 1
        members = _trace(tracer, trace_ids.pop())
        function_spans = [s for s in members if s.name.startswith("function:")]
        assert {s.name for s in function_spans} == \
            {"function:source", "function:left", "function:right",
             "function:join"}
        # Both forked branches hang off the same attempt span.
        attempt = next(s for s in members if s.name.startswith("attempt:"))
        assert {s.parent_id for s in function_spans} == {attempt.span_id}
        assert tracer.orphan_spans() == []

    def test_rate_zero_records_nothing_end_to_end(self):
        tracer = Tracer(sample_rate=0.0)
        cluster, cloud = _pipeline_cluster(tracer=tracer)
        future = cloud.call_dag("pipeline",
                                {"inc": [CloudburstReference("k1")]})
        assert future.result().value == 12
        assert len(tracer) == 0


def _run_under_faults(fault_class, tracer, seed, requests=60, clients=6):
    # A compact fault timeout (as in the fault-plane suite): the default 5 s
    # dwarfs this workload's ~15 ms DAGs, so timed-out attempts would sit
    # out fault after fault instead of retrying inside the run window.
    cluster, cloud = _pipeline_cluster(
        tracer=tracer, seed=seed, executor_vms=4, scheduler_count=2,
        fault_timeout_ms=50.0)
    plane = FaultPlane(cluster, RandomSource(seed).spawn("fault-plane"),
                       classes=(fault_class,), mean_interval_ms=15.0,
                       downtime_ms=8.0, tick_interval_ms=4.0)

    def request(cloud_client, ctx, index):
        return cloud_client.call_dag(
            "pipeline", {"inc": [CloudburstReference("k1")]}, ctx=ctx)

    driver = EngineLoadDriver(cluster, request, clients=clients,
                              max_requests=requests)
    plane.start()
    try:
        driver.run()
    finally:
        plane.stop()
    assert plane.injected_count() > 0, "fault class never fired — vacuous"
    return cluster


def _links(tracer, relation):
    return [span for span in tracer.spans
            if span.links and any(rel == relation for rel, _ in span.links)]


class TestSpansSurviveFaults:
    def test_executor_kill_retries_link_not_orphan(self):
        tracer = Tracer(sample_rate=1.0)
        _run_under_faults("executor_kill", tracer, seed=21)
        retried = _links(tracer, "retry_of")
        assert retried, "no retry attempt was ever traced"
        by_id = {span.span_id: span for span in tracer.spans}
        for attempt in retried:
            relation, superseded_id = attempt.links[0]
            superseded = by_id[superseded_id]
            # The superseded attempt belongs to the same trace and is closed;
            # the retry is a sibling (linked), never a child of the failure.
            assert superseded.trace_id == attempt.trace_id
            assert superseded.end_ms is not None
            assert attempt.parent_id != superseded.span_id
        assert tracer.orphan_spans() == []

    def test_scheduler_crash_recovery_links_abandoned_attempt(self):
        tracer = Tracer(sample_rate=1.0)
        cluster = _run_under_faults("scheduler_crash", tracer, seed=23,
                                    requests=80, clients=8)
        recovered = _links(tracer, "recovered_from")
        assert recovered, "no crash landed on an in-flight traced session"
        by_id = {span.span_id: span for span in tracer.spans}
        for attempt in recovered:
            _, abandoned_id = next(link for link in attempt.links
                                   if link[0] == "recovered_from")
            assert by_id[abandoned_id].trace_id == attempt.trace_id
        assert tracer.orphan_spans() == []
        assert cluster.abandoned_session_count() == 0


    def test_every_span_lies_inside_its_parent(self):
        # A failed attempt is closed at its session's clock, which stays at
        # the attempt's start while its functions run on branch contexts:
        # the attempt span must still cover the function spans it parents.
        for fault_class in ("executor_kill", "scheduler_crash"):
            tracer = Tracer(sample_rate=1.0)
            _run_under_faults(fault_class, tracer, seed=3)
            assert _links(tracer, "retry_of") + _links(tracer, "recovered_from")
            by_id = {span.span_id: span for span in tracer.spans}
            outside = [span for span in tracer.spans
                       if span.parent_id is not None
                       and not (by_id[span.parent_id].start_ms <= span.start_ms
                                and span.end_ms <= by_id[span.parent_id].end_ms)]
            assert outside == [], (fault_class, outside)


class TestFailedInvocationsCloseTheirRoot:
    """Every failed invocation closes its client root with the error's type,
    whether its session resolved the future with the error or no session
    opened at all (the DAG lookup raised)."""

    @pytest.mark.parametrize("entry, target, error", [
        ("call", "boom", ValueError),
        ("call", "dying", DagExecutionError),
        ("call", "never-registered", FunctionNotFoundError),
        ("call_dag", "boom-dag", ValueError),
        ("call_dag", "no-such-dag", DagNotFoundError),
        ("call_dag", "deleted-dag", DagDeletedError),
    ])
    def test_root_ends_with_the_error(self, entry, target, error):
        tracer = Tracer(sample_rate=1.0)
        cluster = CloudburstCluster(executor_vms=2, threads_per_vm=2, seed=5,
                                    tracer=tracer)
        cloud = cluster.connect()

        def boom(cloudburst):
            raise ValueError("application bug")

        def dying(cloudburst):
            raise ExecutorFailedError(cloudburst.get_id(), "injected fault")

        cloud.register(boom, name="boom")
        cloud.register(dying, name="dying")
        cloud.register_dag("boom-dag", ["boom"])
        cloud.register_dag("deleted-dag", ["boom"])
        cloud.delete_dag("deleted-dag")

        invoke = cloud.call if entry == "call" else cloud.call_dag
        with pytest.raises(error):
            invoke(target).get()
        assert tracer.unfinished_spans() == []
        assert tracer.orphan_spans() == []
        (root,) = [span for span in tracer.spans if span.tier == "client"]
        assert root.name == f"{entry}:{target}"
        assert root.attrs["error"] == error.__name__


class TestReusedContext:
    def test_each_call_on_one_context_gets_its_own_trace(self):
        tracer = Tracer(sample_rate=1.0)
        cluster = CloudburstCluster(executor_vms=1, tracer=tracer, seed=1)
        cloud = cluster.connect()
        cloud.register(lambda x: x + 1, name="inc")
        ctx = RequestContext(clock=SimClock(cluster.engine.now_ms))
        first = len(tracer)
        cloud.call("inc", [1], ctx=ctx)
        first_spans = tracer.spans[first:]
        second = len(tracer)
        cloud.call("inc", [2], ctx=ctx)
        second_spans = tracer.spans[second:]

        assert ctx.span is None
        roots = _request_roots(tracer)
        assert [root.name for root in roots] == ["call:inc", "call:inc"]
        for root, spans in zip(roots, (first_spans, second_spans)):
            assert {span.trace_id for span in spans} == {root.trace_id}
            assert all(root.start_ms <= span.start_ms
                       and span.end_ms <= root.end_ms for span in spans)
        assert roots[0].end_ms <= roots[1].start_ms


class TestTracingNeverChargesClocks:
    def _drive(self, tracer, seed=13):
        cluster, _cloud = _pipeline_cluster(tracer=tracer, seed=seed)

        def request(cloud, ctx, index):
            return cloud.call_dag(
                "pipeline", {"inc": [CloudburstReference("k1")]}, ctx=ctx)

        return EngineLoadDriver(cluster, request, clients=4,
                                max_requests=40).run()

    def test_latency_samples_byte_identical_on_off_and_rate_zero(self):
        baseline = self._drive(tracer=None)
        fully_on = self._drive(tracer=Tracer(sample_rate=1.0))
        rate_zero = self._drive(tracer=Tracer(sample_rate=0.0))
        assert fully_on.latencies.samples_ms == baseline.latencies.samples_ms
        assert rate_zero.latencies.samples_ms == baseline.latencies.samples_ms
        assert fully_on.duration_ms == baseline.duration_ms


class TestSeededRunsAreReproducible:
    """Two runs of one seed dump the same spans and the same journals.

    Execution ids are the journal's attempt ids, derived from the scheduler
    and session sequence, so nothing in either dump is drawn at random.
    """

    def _retried_once(self):
        tracer = Tracer(sample_rate=1.0)
        cluster, cloud = _pipeline_cluster(tracer=tracer, seed=11)
        failed = []

        def flaky(cloudburst, value):
            if not failed:
                failed.append(cloudburst.get_id())
                raise ExecutorFailedError(cloudburst.get_id(), "forced retry")
            return value - 1

        cloud.register(flaky, name="flaky")
        cloud.register_dag("retried", ["inc", "flaky"], [("inc", "flaky")])
        future = cloud.call_dag("retried", {"inc": [CloudburstReference("k1")]})
        assert future.result().value == 5
        assert future.result().retries == 1
        return (spans_to_json(tracer),
                [scheduler.journal.to_dict() for scheduler in cluster.schedulers])

    def test_span_dump_and_journals_repeat_for_a_seed(self):
        first_spans, first_journals = self._retried_once()
        second_spans, second_journals = self._retried_once()
        assert first_spans == second_spans
        assert first_journals == second_journals
        attempts = [attempt["execution_id"]
                    for journal in first_journals
                    for session in journal["sessions"]
                    for attempt in session["attempts"]]
        assert len(attempts) == 2
        assert [execution_id.rsplit("/", 1)[1] for execution_id in attempts] \
            == ["attempt-0", "attempt-1"]

