"""Unit tests for the batched read plane (cache/Anna multi_get).

The charge-model contracts under test:

* hits and misses partition correctly, and a batch's misses overlap in
  virtual time — the caller pays ``(N-1) * dispatch + max(fetch latencies)``
  plus the ingress-bandwidth overflow, never the sum of the fetches;
* per-key queue/service charges still land on each storage node, so replica
  queues stay honest under overlap (redirect/overload semantics identical to
  the single-key path);
* a batch of one forks nothing and pays no dispatch: its Anna charges are
  exactly those of a direct ``AnnaCluster.get`` (``read(k)`` against
  ``read_many([k])`` per protocol is pinned in ``test_protocols.py``);
* after a batch's causal-cut repair, no dependency reachable from the batch
  violates the cut unless Anna could not resolve it (hypothesis property,
  graded by ``violates_causal_cut`` rather than by a second implementation).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from internals import replicas_of
from jitter_free import JitterFreeLatencyModel
from repro.anna import AnnaCluster, StorageServiceModel
from repro.anna import cluster as anna_cluster
from repro.anna import storage_node
from repro.cloudburst import ExecutorCache
from repro.lattices import (
    CausalLattice,
    LWWLattice,
    Timestamp,
    VectorClock,
)
from repro.sim import LatencyModel, RequestContext, SimClock

import charges


def lww(value, clock=1.0, node="n"):
    return LWWLattice(Timestamp(clock, node), value)


def ctx_at(now_ms: float = 0.0) -> RequestContext:
    return RequestContext(clock=SimClock(now_ms))


def make_anna(**kwargs) -> AnnaCluster:
    kwargs.setdefault("node_count", 4)
    kwargs.setdefault("replication_factor", 2)
    kwargs.setdefault("latency_model", JitterFreeLatencyModel())
    return AnnaCluster(**kwargs)


def make_cache(anna=None) -> ExecutorCache:
    return ExecutorCache("cache-a", anna or make_anna(), peer_registry={})


def charge_log(ctx: RequestContext):
    return [(r.service, r.operation, r.latency_ms) for r in ctx.charges]


class TestHitMissPartition:
    def test_hits_and_misses_partition(self):
        cache = make_cache()
        for key in ("a", "b", "c", "d"):
            cache.kvs.background_put(key, lww(key.upper()))
        cache.get_or_fetch("a", ctx_at())
        cache.get_or_fetch("b", ctx_at())
        hits_before = cache.stats.hits
        ctx = ctx_at()
        result = cache.multi_get(["a", "b", "c", "d", "ghost"], ctx)
        assert {k: v.reveal() if v else None for k, v in result.items()} == {
            "a": "A", "b": "B", "c": "C", "d": "D", "ghost": None}
        assert cache.stats.hits == hits_before + 2
        # Two misses fetched ("c", "d"), one not-found ("ghost") — all three
        # charged an anna round trip on some branch.
        assert charges.count(ctx, "anna", "get") == 3
        # Hits cost one batched IPC, not one cache.get per key; the two
        # fetched misses still pay their per-value IPC delivery (same body
        # as the single-key miss path).
        assert charges.count(ctx, "cache", "multi_get") == 1
        assert charges.count(ctx, "cache", "get") == 2
        for key in ("c", "d"):
            assert cache.contains(key)

    def test_duplicates_collapse(self):
        cache = make_cache()
        cache.kvs.background_put("k", lww("v"))
        ctx = ctx_at()
        result = cache.multi_get(["k", "k", "k"], ctx)
        assert list(result) == ["k"]
        assert charges.count(ctx, "anna", "get") == 1

    def test_missing_key_maps_to_none_and_pays_the_not_found_round_trip(self):
        cache = make_cache()
        batched = ctx_at()
        assert cache.multi_get(["ghost"], batched) == {"ghost": None}
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        direct = ctx_at()
        assert make_anna().get_or_none("ghost", direct) is None
        assert charge_log(batched) == charge_log(direct)


class TestOverlapCharging:
    # (batch size, how many times faster than the sequential misses it must
    # finish): a cold 64-key batch, jitter off, reads about 22x.
    @pytest.mark.parametrize("size, speedup", [(8, 2.0), (64, 8.0)])
    def test_batch_pays_max_not_sum(self, size, speedup):
        cache = make_cache()
        keys = [f"k{i}" for i in range(size)]
        for key in keys:
            cache.kvs.background_put(key, lww("v"))
        batched = ctx_at()
        cache.multi_get(list(keys), batched)

        sequential = ctx_at()
        fresh = make_cache()
        for key in keys:
            fresh.kvs.background_put(key, lww("v"))
        for key in keys:
            fresh.get_or_fetch(key, sequential)

        # Same per-key anna work on both paths...
        assert charges.count(batched, "anna", "get") == charges.count(sequential, "anna", "get")
        # ...but the batched caller's clock advances by roughly one fetch
        # plus dispatch, far below the sequential sum.
        assert batched.clock.now_ms * speedup < sequential.clock.now_ms
        assert charges.count(batched, "anna", "multi_get_dispatch") == len(keys) - 1

    def test_ingress_overflow_charged_for_large_values(self):
        cache = make_cache()
        big = "x" * 500_000
        for key in ("a", "b", "c"):
            cache.kvs.background_put(key, lww(big))
        ctx = ctx_at()
        cache.multi_get(["a", "b", "c"], ctx)
        # Three ~0.5 MB responses into one NIC: two of them stream after the
        # slowest branch finishes, so the caller owes their transfer time.
        ingress = charges.total(ctx, "cache", "ingress")
        bandwidth = cache.latency_model.cost(
            "anna", "get").bandwidth_bytes_per_ms
        expected = 2 * cache.kvs.background_get("a").size_bytes() / bandwidth
        assert ingress == pytest.approx(expected, rel=0.01)
        # The whole charge sequence: two serial dispatches on the caller,
        # then each branch's log in key order ("c" queues behind "a" on
        # their shared node), then the ingress tail after the join.
        branch = [("anna", "get"), ("anna", "service"), ("cache", "get")]
        assert [(c.service, c.operation) for c in ctx.charges] == [
            ("anna", "multi_get_dispatch"), ("anna", "multi_get_dispatch"),
            *branch, *branch,
            ("anna", "get"), ("anna", "queue"), ("anna", "service"),
            ("cache", "get"),
            ("cache", "ingress")]

    def test_storage_queue_charges_land_under_overlap(self, monkeypatch):
        # Two batch members on the same storage node serialize in its
        # reservation queue: the second fetch is charged a real queue wait
        # even though the batch overlaps in virtual time.
        monkeypatch.setattr(anna_cluster, "STORAGE_SERVICE",
                            StorageServiceModel(memory_base_ms=5.0))
        anna = make_anna(node_count=1, replication_factor=1)
        anna.background_put("a", lww("v"))
        anna.background_put("b", lww("v"))
        cache = make_cache(anna)
        ctx = ctx_at()
        cache.multi_get(["a", "b"], ctx)
        # The second branch arrives one dispatch (0.03 ms) after the first
        # and waits out the remainder of its 5 ms service slot.
        assert charges.total(ctx, "anna", "queue") == pytest.approx(5.0 - 0.03, abs=0.05)
        assert charges.total(ctx, "anna", "service") == pytest.approx(10.0, abs=0.05)

    def test_read_redirect_parity_with_single_key(self, monkeypatch):
        # A saturated primary redirects batched reads exactly as it does
        # single-key reads.
        monkeypatch.setattr(anna_cluster, "STORAGE_SERVICE",
                            StorageServiceModel(memory_base_ms=5.0))
        monkeypatch.setattr(storage_node, "NODE_QUEUE_BOUND", 1)

        def build():
            anna = make_anna(node_count=3, replication_factor=2)
            anna.background_put("k", lww("v"))
            anna.run_gossip_round()  # every replica holds it
            first, _ = replicas_of(anna, "k")
            anna.node(first).work_queue.reserve(0.0, 5.0)
            return anna, first

        anna, first = build()
        cache = make_cache(anna)
        batched = ctx_at()
        cache.multi_get(["k"], batched)
        assert anna.node(first).read_redirects == 1
        assert charges.total(batched, "anna", "queue") == 0.0

        anna, first = build()
        single = anna.get("k", ctx_at())
        assert anna.node(first).read_redirects == 1


class TestBatchOfOne:
    def test_cold_batch_of_one_is_a_direct_anna_get_plus_one_ipc(self):
        # Jitter on: the RNG draws must line up too.
        logs = []
        for through_cache in (True, False):
            anna = AnnaCluster(node_count=4, replication_factor=2,
                               latency_model=LatencyModel())
            anna.background_put("k", lww("v"))
            ctx = ctx_at()
            if through_cache:
                cache = ExecutorCache("cache-a", anna, peer_registry={})
                assert cache.multi_get(["k"], ctx)["k"].reveal() == "v"
            else:
                anna.get("k", ctx)
                anna.latency_model.charge(ctx, "cache", "get",
                                          size_bytes=lww("v").size_bytes())
            logs.append(charge_log(ctx))
        assert logs[0] == logs[1]

    def test_warm_batch_of_one_is_one_ipc_charge(self):
        cache = make_cache()
        cache.kvs.background_put("k", lww("v"))
        cache.multi_get(["k"], ctx_at())
        ctx = ctx_at()
        assert cache.get_or_fetch("k", ctx).reveal() == "v"
        assert [(r.service, r.operation) for r in ctx.charges] == [
            ("cache", "multi_get")]


class TestAnnaMultiGet:
    def test_multi_get_returns_values_and_none(self):
        anna = make_anna()
        anna.background_put("a", lww("A"))
        anna.background_put("b", lww("B"))
        ctx = ctx_at()
        result = anna.multi_get(["a", "b", "ghost"], ctx)
        assert result["a"].reveal() == "A"
        assert result["b"].reveal() == "B"
        assert result["ghost"] is None
        # Dispatches on the caller, one round trip per branch (the missing
        # key pays its not-found trip too), then the ingress tail.
        assert [(c.service, c.operation) for c in ctx.charges] == [
            ("anna", "multi_get_dispatch"), ("anna", "multi_get_dispatch"),
            ("anna", "get"), ("anna", "service"),
            ("anna", "get"), ("anna", "service"),
            ("anna", "get"), ("anna", "service"),
            ("anna", "ingress")]

    def test_batch_of_one_matches_get_or_none(self):
        charge_logs = []
        for use_batch in (False, True):
            anna = AnnaCluster(node_count=4, replication_factor=2,
                               latency_model=LatencyModel())
            anna.background_put("a", lww("A"))
            ctx = ctx_at()
            if use_batch:
                anna.multi_get(["a"], ctx)
            else:
                anna.get_or_none("a", ctx)
            charge_logs.append(charge_log(ctx))
        assert charge_logs[0] == charge_logs[1]


# -- causal-cut property test ------------------------------------------------------------

def _causal(value, clock_entries, deps=None):
    clock = VectorClock()
    for node, count in clock_entries.items():
        for _ in range(count):
            clock = clock.increment(node)
    return CausalLattice(clock, value, dependencies=deps or {})


GHOST = "ghost"  # a dependency target Anna never stored


@st.composite
def causal_stores(draw):
    """A small KVS of causally versioned keys with random dependency edges.

    Every dependency names a version Anna can satisfy (dominated by, equal
    to or concurrent with the stored one) or the never-stored ``GHOST`` key,
    and the cache starts with stale copies of some keys.  All dependents of
    a key demand the same version of it: the repair walk visits each
    dependency name once, so a weaker demand met locally would mask a
    stronger one (a known gap, recorded in DESIGN.md DR-9, not this
    property's subject).
    """
    key_count = draw(st.integers(min_value=2, max_value=6))
    keys = [f"k{i}" for i in range(key_count)]
    stored, stale, demanded = {}, {}, {GHOST: VectorClock({"w0": 1})}
    for index, key in enumerate(keys):
        writer, count = f"w{draw(st.integers(0, 2))}", draw(st.integers(1, 3))
        # Dependencies point only at earlier keys: the graph stays acyclic.
        deps = {dep_key: demanded[dep_key] for dep_key in keys[:index] + [GHOST]
                if draw(st.booleans())}
        stored[key] = _causal(f"v-{key}", {writer: count}, deps)
        if count > 1 and draw(st.booleans()):
            stale[key] = _causal(f"old-{key}", {writer: 1})
        demanded[key] = VectorClock({
            writer + draw(st.sampled_from(["", "-concurrent"])):
            draw(st.integers(1, count))})
    batch = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6))
    return stored, stale, batch


class TestCausalCutProperty:
    @settings(max_examples=60, deadline=None)
    @given(causal_stores())
    def test_batch_leaves_no_unexplained_cut_violation(self, store):
        """After multi_get, every cut violation reachable from the batch is a
        dependency Anna could not resolve — and each was counted."""
        stored, stale, batch = store
        anna = AnnaCluster(node_count=2, replication_factor=1,
                           latency_model=JitterFreeLatencyModel())
        for key, lattice in stored.items():
            anna.background_put(key, lattice)
        cache = ExecutorCache("cache-a", anna, peer_registry={})
        for key, lattice in stale.items():
            cache._store(key, lattice)

        result = cache.multi_get(batch, ctx_at())
        assert all(result[key] is cache.get_local(key) for key in batch)

        reachable, frontier = set(), list(dict.fromkeys(batch))
        while frontier:
            key = frontier.pop()
            local = cache.get_local(key)
            for dep_key in (local.dependencies if local is not None else ()):
                if (key, dep_key) not in reachable:
                    reachable.add((key, dep_key))
                    frontier.append(dep_key)
        violating = reachable & set(cache.violates_causal_cut())
        assert {dep_key for _, dep_key in violating} <= {GHOST}
        assert cache.stats.causal_deps_unresolved == (1 if violating else 0)
