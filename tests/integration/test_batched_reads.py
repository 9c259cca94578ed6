"""Integration tests for the batched read plane at the fig12 cold point.

The fig12 starvation diagnosis showed cold invokes paying a *sequential*
chain of cache-miss round trips per request.  These tests drive a
multi-reference function end to end and assert, via the tracer, that one
``get_many`` collapses that chain: the misses nest under one ``multi_get``
parent and the invoke's virtual latency drops well below what the same keys
cost when user code loops over ``get``.
"""

from repro.cloudburst import CloudburstCluster
from repro.obs import Tracer
from repro.sim import RequestContext, SimClock

KEYS = [f"timeline:{i}" for i in range(8)]


def _run_cold_call(function_name, tracer=None, seed=19):
    # Prefetch off: this suite isolates the foreground miss path, the way a
    # fig12 cold invoke pays it when placement hints are unavailable.
    cluster = CloudburstCluster(executor_vms=1, threads_per_vm=1, seed=seed,
                                prefetch_references=False, tracer=tracer)
    cloud = cluster.connect()
    for key in KEYS:
        cloud.put(key, [1, 2, 3])

    def fan_in(cloudburst, keys):
        return sum(len(v) for v in cloudburst.get_many(keys).values())

    def fan_in_loop(cloudburst, keys):
        return sum(len(cloudburst.get(key)) for key in keys)

    cloud.register(fan_in, name="fan_in")
    cloud.register(fan_in_loop, name="fan_in_loop")
    ctx = RequestContext(clock=SimClock())
    result = cloud.call(function_name, [list(KEYS)], ctx=ctx).result()
    assert result.value == 3 * len(KEYS)
    return ctx


class TestColdPointSpanShape:
    def test_batching_collapses_sequential_miss_chain(self):
        batched = Tracer(sample_rate=1.0)
        _run_cold_call("fan_in", tracer=batched)
        looped = Tracer(sample_rate=1.0)
        _run_cold_call("fan_in_loop", tracer=looped)

        def miss_spans(tracer):
            return [s for s in tracer.spans if s.name == "cache_miss"]

        def multi_get_spans(tracer):
            return [s for s in tracer.spans if s.name == "multi_get"]

        # Same number of cold misses either way — batching changes their
        # *arrangement*, not the amount of storage work.
        assert len(miss_spans(batched)) == len(miss_spans(looped)) == len(KEYS)
        # Batched: every miss is a child of one multi_get parent span.
        parents = multi_get_spans(batched)
        assert len(parents) == 1
        assert {s.parent_id for s in miss_spans(batched)} == {parents[0].span_id}
        # A loop of single-key reads is a chain of batches of one: no batch
        # parent at all.
        assert multi_get_spans(looped) == []

    def test_batched_misses_overlap_in_virtual_time(self):
        tracer = Tracer(sample_rate=1.0)
        ctx_batched = _run_cold_call("fan_in", tracer=tracer)
        ctx_looped = _run_cold_call("fan_in_loop")

        # The loop pays len(KEYS) sequential anna round trips; the batch
        # pays ~one plus dispatch, so the whole request is far faster at the
        # cold point.
        assert ctx_batched.clock.now_ms < ctx_looped.clock.now_ms * 0.6
        # And inside the trace, sibling misses genuinely overlap: at least
        # one miss starts before another finishes.
        misses = sorted((s for s in tracer.spans if s.name == "cache_miss"),
                        key=lambda s: s.start_ms)
        assert any(later.start_ms < earlier.end_ms
                   for earlier, later in zip(misses, misses[1:]))
