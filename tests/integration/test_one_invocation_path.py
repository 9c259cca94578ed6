"""Every ``call`` and ``call_dag`` is one ``DagSession``.

The scheduler used to run an invocation three ways: ``call``'s own retry
loop, an inline DAG executor, and the engine-event session.  They are one
body now, so these tests pin what must not depend on which public method
opened the session (``call`` drives it in-line on a private engine,
``call_dag`` puts it on the cluster's):

* a bare ``call`` and a registered one-function DAG make the same charges,
  reach the same session state and leave the same cache counters;
* the reference-prefetch epoch reaches the first function of an attempt
  (the bug the old ``call_dag`` twin had and ``call`` did not);
* a fork/join DAG computes the same result whether a blocked caller steps
  the engine or a run drains it;
* a killed executor leaves the same ``attempt:`` / ``retry_of`` span lineage
  whichever way the request came in;
* an application error closes its session instead of leaving it journaled
  as in flight.
"""

import dataclasses

import pytest

from repro.cloudburst import (
    CloudburstCluster,
    CloudburstReference,
    ConsistencyLevel,
)
from repro.errors import ExecutorFailedError
from repro.obs import Tracer
from repro.sim import RequestContext, SimClock

from engine_time import at_engine_time


def _one_thread_cluster(level=ConsistencyLevel.LWW, seed=3, **kwargs):
    """1 VM x 1 thread: pinned and unpinned placement pick the same thread."""
    cluster = CloudburstCluster(executor_vms=1, threads_per_vm=1, seed=seed,
                                consistency=level, **kwargs)
    cloud = cluster.connect()
    cloud.put("ref", 40)
    cloud.put("side", 2)

    def work(cloudburst, ref_value, key):
        total = ref_value + cloudburst.get(key)
        cloudburst.put("out", total)
        return total

    cloud.register(work, name="work")
    cloud.register_dag("work-dag", ["work"])
    return cluster, cloud


def _ctx_now(cluster):
    return RequestContext(clock=SimClock(cluster.engine.now_ms))


def _invoke(entry, level):
    """One request through ``entry``; everything observable about it."""
    cluster, cloud = _one_thread_cluster(level)
    scheduler = cluster.schedulers[0]
    args = [CloudburstReference("ref"), "side"]
    ctx = _ctx_now(cluster)
    if entry == "call":
        result = scheduler.call("work", args, consistency=level,
                                ctx=ctx).future.result()
    else:
        result = scheduler.call_dag("work-dag", {"work": args},
                                    consistency=level, ctx=ctx).future.result()
    return {
        "value": result.value,
        "latency_ms": result.latency_ms,
        "charges": list(ctx.charges),
        "session": dataclasses.replace(result.session, execution_id=""),
        "cache": cluster.vms[0].cache.stats,
        "in_flight": cluster.abandoned_session_count(),
    }


class TestCallIsAOneFunctionDag:
    @pytest.mark.parametrize("level", list(ConsistencyLevel))
    def test_same_value_latency_charges_session_and_cache(self, level):
        called = _invoke("call", level)
        dag = _invoke("call_dag", level)
        assert called["value"] == dag["value"] == 42
        assert called["charges"], "the charge log is what is being compared"
        assert called == dag
        assert called["in_flight"] == 0

    def test_first_function_pays_its_own_prefetch_wait(self):
        # The prefetch epoch used to be stamped into the request context
        # *after* the DAG path had copied it into the branch, so a DAG's
        # first reference-bearing function never matched its own epoch and
        # read a cold 200k-element list for free; ``call`` paid 8.6 ms.
        waits = {}
        for entry in ("call", "call_dag"):
            cluster, cloud = _one_thread_cluster()
            cloud.put("big", list(range(200_000)))
            cloud.register(lambda big: len(big), name="measure")
            cloud.register_dag("measure-dag", ["measure"])
            scheduler = cluster.schedulers[0]
            ctx = _ctx_now(cluster)
            args = [CloudburstReference("big")]
            if entry == "call":
                result = scheduler.call("measure", args, ctx=ctx).future.result()
            else:
                result = scheduler.call_dag("measure-dag", {"measure": args},
                                            ctx=ctx).future.result()
            assert result.value == 200_000
            waits[entry] = (ctx.total("cache", "prefetch_wait"),
                            result.latency_ms)
        assert waits["call"][0] > 1.0
        assert waits["call"] == waits["call_dag"]


def _diamond_cluster(seed=7):
    cluster = CloudburstCluster(executor_vms=2, threads_per_vm=3, seed=seed)
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
    return cluster


class TestForkJoinWhoeverFiresTheEvents:
    def test_diamond_stepped_by_a_blocked_caller_matches_a_run(self):
        scheduler = _diamond_cluster().schedulers[0]
        stepped = scheduler.call_dag("diamond", ctx=at_engine_time(scheduler)).future.result()

        cluster = _diamond_cluster()
        scheduler = cluster.schedulers[0]
        session = scheduler.call_dag("diamond", ctx=at_engine_time(scheduler))
        cluster.engine.run()
        drained = session.future.result()

        assert stepped.value == drained.value == 32
        # The join waits for the slower branch, whoever fires the events.
        assert stepped.latency_ms == drained.latency_ms
        assert stepped.ctx.clock.now_ms == drained.ctx.clock.now_ms
        assert stepped.latency_ms > 6.0


def _lineage(tracer):
    """Per attempt span: (ended in error, links to what it supersedes)."""
    by_id = {span.span_id: span for span in tracer.spans}
    return [
        ("error" in (span.attrs or {}),
         [(relation, by_id[target].name.split(":")[0],
           "error" in (by_id[target].attrs or {}))
          for relation, target in (span.links or [])])
        for span in tracer.spans if span.name.startswith("attempt:")]


class TestRetryLineageIsTheSameEverywhere:
    def _killed_once(self, entry):
        tracer = Tracer(sample_rate=1.0)
        cluster = CloudburstCluster(executor_vms=3, threads_per_vm=2, seed=11,
                                    tracer=tracer)
        cloud = cluster.connect()
        killed = []

        def flaky(cloudburst, x):
            if not killed:
                vm_id = cloudburst.get_id().split(":")[0]
                killed.append(vm_id)
                cluster.vm(vm_id).fail()
                raise ExecutorFailedError(cloudburst.get_id(), "chaos")
            return x * 2

        cloud.register(flaky, name="flaky")
        cloud.register_dag("flaky-dag", ["flaky"])
        if entry == "call":
            future = cloud.call("flaky", [21])
        else:
            future = cloud.call_dag("flaky-dag", {"flaky": [21]})
            if entry == "call_dag, run":
                cluster.engine.run()
        assert future.result().value == 42
        assert future.result().retries == 1
        assert tracer.orphan_spans() == []
        assert cluster.abandoned_session_count() == 0
        return _lineage(tracer)

    def test_call_blocked_dag_and_drained_dag_agree(self):
        expected = [(True, []), (False, [("retry_of", "attempt", True)])]
        for entry in ("call", "call_dag, blocked", "call_dag, run"):
            assert self._killed_once(entry) == expected, entry


class TestApplicationErrorsCloseTheSession:
    def test_raising_function_is_released_and_not_left_in_flight(self):
        cluster = CloudburstCluster(
            executor_vms=1, threads_per_vm=1, seed=5,
            consistency=ConsistencyLevel.DISTRIBUTED_SESSION_RR)
        cloud = cluster.connect()
        cloud.put("k", 1)

        def read_then_raise(cloudburst):
            cloudburst.get("k")  # pins a repeatable-read snapshot
            raise ValueError("application bug")

        cloud.register(read_then_raise, name="boom")
        scheduler = cluster.schedulers[0]
        with pytest.raises(ValueError, match="application bug"):
            scheduler.call("boom", ctx=at_engine_time(scheduler)).future.result()
        assert cluster.abandoned_session_count() == 0
        assert cluster.vms[0].cache.snapshot_count() == 0
        counts = scheduler.journal.counts()
        assert counts["failed"] == 1 and counts["running"] == 0
        # Application errors are not §4.5 faults: no retry, no timeout.
        (record,) = scheduler.journal.records()
        assert record.retries == 0 and len(record.attempts) == 1
        assert "ValueError" in record.attempts[0].failure
