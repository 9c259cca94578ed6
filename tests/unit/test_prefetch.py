"""Unit and end-to-end tests for scheduler-driven reference prefetching.

Contracts under test:

* a prefetch started at placement time warms the cache before the invoke
  arrives: the read pays at most the residual ``prefetch_wait``, never a
  foreground Anna round trip;
* prefetch is background traffic — it charges nothing at issue time and
  draws no RNG, and with an engine attached the landing is a background
  event that makes the entry visible at the modelled completion time;
* only the issuing execution pays residual waits: readers from other
  executions (whose clocks are not comparable) see entries as landed;
* never-read prefetches are counted as wasted by
  ``settle_prefetch_accounting``;
* the ``prefetch_references`` knob disables the whole plane — no issued
  fetches, no stats, and repeat runs stay deterministic.
"""

import pytest

from jitter_free import JitterFreeLatencyModel
from repro.anna import AnnaCluster
from repro.cloudburst import (
    CloudburstCluster,
    CloudburstReference,
    ExecutorCache,
)
from repro.lattices import LWWLattice, Timestamp
from repro.sim import RequestContext, SimClock

import charges


def lww(value, clock=1.0, node="n"):
    return LWWLattice(Timestamp(clock, node), value)


def ctx_at(now_ms: float = 0.0, epoch=None) -> RequestContext:
    ctx = RequestContext(clock=SimClock(now_ms))
    ctx.prefetch_epoch = epoch
    return ctx


def make_cache() -> ExecutorCache:
    anna = AnnaCluster(node_count=2, replication_factor=1,
                       latency_model=JitterFreeLatencyModel())
    return ExecutorCache("cache-a", anna, peer_registry={})


class TestPrefetchWarmsReads:
    def test_issue_charges_nothing_and_read_pays_residual_only(self):
        cache = make_cache()
        cache.kvs.background_put("k", lww("v"))
        started = cache.prefetch(["k"], now_ms=0.0, epoch="e1")
        assert started == 1
        assert cache.stats.prefetches_issued == 1

        # The invoke arrives one executor hop later, before the modelled
        # completion: the read pays the residual wait, not an anna.get.
        ready_ms = cache.latency_model.cost("anna", "get").mean_ms(
            cache.kvs.peek("k").size_bytes())
        ctx = ctx_at(ready_ms / 2, epoch="e1")
        value = cache.get_or_fetch("k", ctx)
        assert value.reveal() == "v"
        assert charges.count(ctx, "anna", "get") == 0
        assert charges.total(ctx, "cache", "prefetch_wait") == \
            pytest.approx(ready_ms / 2, abs=1e-9)
        assert cache.stats.prefetch_hits == 1

    def test_read_after_completion_is_free(self):
        cache = make_cache()
        cache.kvs.background_put("k", lww("v"))
        cache.prefetch(["k"], now_ms=0.0, epoch="e1")
        ctx = ctx_at(10_000.0, epoch="e1")
        cache.get_or_fetch("k", ctx)
        assert charges.total(ctx, "cache", "prefetch_wait") == 0.0
        assert charges.count(ctx, "anna", "get") == 0

    def test_cross_epoch_reader_sees_entry_as_landed(self):
        # A different execution's clock is not comparable to the issuer's
        # readiness timestamp: it must never be charged a residual wait.
        cache = make_cache()
        cache.kvs.background_put("k", lww("v"))
        cache.prefetch(["k"], now_ms=500.0, epoch="e1")
        ctx = ctx_at(0.0, epoch="e2")
        cache.get_or_fetch("k", ctx)
        assert charges.total(ctx, "cache", "prefetch_wait") == 0.0
        assert cache.stats.prefetch_hits == 1

    def test_transfers_serialize_on_the_ingress_link(self):
        # Prefetch hides round trips, not bandwidth: N large values take
        # N transfer times to become ready, exactly like on-demand fetches.
        cache = make_cache()
        big = "x" * 1_000_000
        for key in ("a", "b", "c"):
            cache.kvs.background_put(key, lww(big))
        cache.prefetch(["a", "b", "c"], now_ms=0.0, epoch="e1")
        cost = cache.latency_model.cost("anna", "get")
        transfer = cost.mean_ms(cache.kvs.peek("a").size_bytes()) - cost.base_ms
        # Reading the *last* key right away pays ~3 serialized transfers.
        ctx = ctx_at(0.0, epoch="e1")
        cache.get_or_fetch("c", ctx)
        assert charges.total(ctx, "cache", "prefetch_wait") == \
            pytest.approx(2 * transfer + cost.mean_ms(
                cache.kvs.peek("c").size_bytes()), rel=0.01)

    def test_prefetch_lands_as_a_background_engine_event(self):
        cache = make_cache()
        cache.kvs.background_put("k", lww("v"))
        cache.prefetch(["k"], now_ms=0.0, epoch="e1")
        assert not cache.contains("k")
        cache.kvs.engine.run()
        assert cache.contains("k")
        # The landed entry still credits the prefetch on first read.
        cache.get_or_fetch("k", ctx_at(10_000.0))
        assert cache.stats.prefetch_hits == 1

    def test_missing_key_is_not_prefetched(self):
        cache = make_cache()
        assert cache.prefetch(["ghost"], now_ms=0.0, epoch="e1") == 0
        assert cache.stats.prefetches_issued == 0


class TestWastedAccounting:
    def test_unread_prefetches_count_as_wasted(self):
        cache = make_cache()
        for key in ("a", "b", "c"):
            cache.kvs.background_put(key, lww("v"))
        cache.prefetch(["a", "b", "c"], now_ms=0.0, epoch="e1")
        cache.kvs.engine.run()
        cache.get_or_fetch("a", ctx_at(10_000.0))  # one read, two wasted
        assert cache.settle_prefetch_accounting() == 2
        assert cache.stats.prefetch_hits == 1
        assert cache.stats.prefetch_wasted == 2
        # Settling is idempotent once the tracking sets are drained.
        assert cache.settle_prefetch_accounting() == 0

    def test_inflight_never_landed_counts_as_wasted(self):
        cache = make_cache()
        cache.kvs.background_put("k", lww("v"))
        cache.prefetch(["k"], now_ms=0.0, epoch="e1")  # no engine, never read
        assert cache.settle_prefetch_accounting() == 1
        assert cache.stats.prefetch_wasted == 1


def _reference_cluster(prefetch_references, seed=11):
    cluster = CloudburstCluster(executor_vms=2, threads_per_vm=2, seed=seed,
                                prefetch_references=prefetch_references)
    cloud = cluster.connect()
    cloud.put("ref-key", 41)

    def inc(cloudburst, ref):
        return ref + 1

    cloud.register(inc, name="inc")
    return cluster, cloud


class TestSchedulerDrivenPrefetch:
    def test_placement_warms_the_chosen_vm(self):
        cluster, cloud = _reference_cluster(prefetch_references=True)
        assert cloud.call("inc", [CloudburstReference("ref-key")]) \
            .result().value == 42
        stats = [vm.cache.stats for vm in cluster.vms]
        assert sum(s.prefetches_issued for s in stats) >= 1
        assert sum(s.prefetch_hits for s in stats) >= 1

    def test_knob_off_issues_nothing(self):
        cluster, cloud = _reference_cluster(prefetch_references=False)
        assert cloud.call("inc", [CloudburstReference("ref-key")]) \
            .result().value == 42
        stats = [vm.cache.stats for vm in cluster.vms]
        assert sum(s.prefetches_issued for s in stats) == 0
        assert sum(s.prefetch_hits for s in stats) == 0

    def test_knob_off_runs_are_deterministic(self):
        # Same seed, knob off, twice: byte-identical charge timelines.
        samples = []
        for _ in range(2):
            cluster, cloud = _reference_cluster(prefetch_references=False)
            ctx = RequestContext(clock=SimClock())
            cloud.call("inc", [CloudburstReference("ref-key")],
                       ctx=ctx).result()
            samples.append([(r.service, r.operation, r.latency_ms)
                            for r in ctx.charges])
        assert samples[0] == samples[1]

    def test_prefetch_speeds_up_reference_reads(self):
        latencies = {}
        for knob in (True, False):
            cluster, cloud = _reference_cluster(prefetch_references=knob)
            ctx = RequestContext(clock=SimClock())
            cloud.call("inc", [CloudburstReference("ref-key")],
                       ctx=ctx).result()
            latencies[knob] = ctx.clock.now_ms
        assert latencies[True] < latencies[False]
