"""Unit tests for the distributed session consistency protocols (§5.3)."""

import pytest

from repro.anna import AnnaCluster
from repro.cloudburst import ConsistencyLevel, ExecutorCache
from repro.cloudburst.consistency.protocols import (
    DistributedSessionCausalProtocol,
    LWWProtocol,
    MultiKeyCausalProtocol,
    ObservingProtocol,
    RepeatableReadProtocol,
    SessionState,
    SingleKeyCausalProtocol,
    make_protocol,
)
from repro.lattices import CausalLattice, LWWLattice, Timestamp, VectorClock
from repro.errors import KeyNotFoundError
from repro.sim import LatencyModel, RequestContext, SimClock


@pytest.fixture
def anna():
    return AnnaCluster(node_count=2, replication_factor=1,
                       latency_model=LatencyModel(jitter_enabled=False),
                       propagation_mode=AnnaCluster.PROPAGATE_PERIODIC)


@pytest.fixture
def peers():
    return {}


@pytest.fixture
def cache_a(anna, peers):
    return ExecutorCache("cache-a", anna, peer_registry=peers)


@pytest.fixture
def cache_b(anna, peers):
    return ExecutorCache("cache-b", anna, peer_registry=peers)


def lww(value, clock=1.0, node="writer"):
    return LWWLattice(Timestamp(clock, node), value)


def causal(value, clock_entries, deps=None):
    return CausalLattice(VectorClock(clock_entries), value, dependencies=deps)


class TestMakeProtocol:
    def test_every_level_has_a_protocol(self):
        for level in ConsistencyLevel:
            assert make_protocol(level).level == level


def _observing_lww():
    class Recorder:
        def observe_read(self, *event):
            pass

    return ObservingProtocol(LWWProtocol(), Recorder())


class TestReadIsTheBatchOfOne:
    """``read(k)`` and ``read_many([k])`` are one path, at every level."""

    @staticmethod
    def _read(protocol_factory, scenario, batched):
        anna = AnnaCluster(node_count=2, replication_factor=1,
                           latency_model=LatencyModel())  # jitter on, seeded
        cache = ExecutorCache("cache-a", anna, peer_registry={})
        protocol = protocol_factory()
        if scenario != "missing":
            if protocol.level.is_causal:
                anna.background_put("dep", causal("dep-v", {"w": 1}))
                anna.background_put("k", causal("k-v", {"w": 2},
                                     deps={"dep": VectorClock({"w": 1})}))
            else:
                anna.background_put("k", lww("k-v"))
        ctx = RequestContext(clock=SimClock(0.0))
        if scenario == "hit":
            cache.multi_get(["k"], RequestContext(), repair_cut=False)
        elif scenario == "prefetched":
            cache.prefetch(["k"], now_ms=0.0, epoch="exec")
            ctx.prefetch_epoch = "exec"
        state = SessionState("exec", protocol)
        if batched:
            value = protocol.read_many(cache, ["k"], ctx, state).get("k")
        else:
            try:
                value = protocol.read(cache, "k", ctx, state)
            except KeyNotFoundError:
                value = None
        return (value, state, cache.stats, ctx.clock.now_ms,
                [(c.service, c.operation, c.latency_ms) for c in ctx.charges],
                cache.cached_keys())

    @pytest.mark.parametrize("scenario", ["hit", "miss", "missing", "prefetched"])
    @pytest.mark.parametrize("protocol_factory", [
        LWWProtocol, RepeatableReadProtocol, SingleKeyCausalProtocol,
        MultiKeyCausalProtocol, DistributedSessionCausalProtocol,
        _observing_lww])
    def test_single_and_batch_agree(self, protocol_factory, scenario):
        single = self._read(protocol_factory, scenario, batched=False)
        batch = self._read(protocol_factory, scenario, batched=True)
        assert single == batch
        value, state, stats, now_ms, _charges, _cached = single
        if scenario == "missing":
            assert value is None and state.reads == 0 and stats.misses == 1
        else:
            assert value.reveal() == "k-v" and state.reads == 1
            assert now_ms > 0
            assert stats.prefetch_hits == (scenario == "prefetched")


class TestLWWProtocol:
    def test_read_write_through_cache(self, anna, cache_a):
        protocol = LWWProtocol()
        state = SessionState("exec", protocol)
        anna.background_put("k", lww("v"))
        assert protocol.read(cache_a, "k", RequestContext(), state).reveal() == "v"
        protocol.write(cache_a, "k", lww("v2", clock=2.0), RequestContext(), state)
        assert anna.background_get("k").reveal() == "v2"
        assert state.reads == 1 and state.writes == 1
        assert state.metadata_bytes() == 0


class TestRepeatableRead:
    def test_first_read_pins_snapshot(self, anna, cache_a):
        protocol = RepeatableReadProtocol()
        state = SessionState("exec", protocol)
        anna.background_put("k", lww("v1"))
        protocol.read(cache_a, "k", RequestContext(), state)
        assert "k" in state.read_set
        assert cache_a.get_snapshot(state.execution_id, "k") is not None

    def test_downstream_mismatch_fetches_exact_version_from_upstream(
            self, anna, cache_a, cache_b):
        protocol = RepeatableReadProtocol()
        state = SessionState("exec", protocol)
        anna.background_put("k", lww("v1", clock=1.0))
        first = protocol.read(cache_a, "k", RequestContext(), state)
        # A newer version lands in Anna and in cache-b before the downstream read.
        anna.background_put("k", lww("v2", clock=9.0))
        cache_b.get_or_fetch("k", RequestContext())
        ctx = RequestContext()
        second = protocol.read(cache_b, "k", ctx, state)
        assert second.reveal() == first.reveal() == "v1"
        assert state.upstream_fetches == 1
        assert ctx.count("cache", "fetch_from_upstream") == 1

    def test_matching_version_served_locally(self, anna, cache_a, cache_b):
        protocol = RepeatableReadProtocol()
        state = SessionState("exec", protocol)
        anna.background_put("k", lww("v1", clock=1.0))
        protocol.read(cache_a, "k", RequestContext(), state)
        cache_b.get_or_fetch("k", RequestContext())  # same version everywhere
        protocol.read(cache_b, "k", RequestContext(), state)
        assert state.upstream_fetches == 0

    def test_write_within_dag_visible_to_later_reads(self, anna, cache_a, cache_b):
        protocol = RepeatableReadProtocol()
        state = SessionState("exec", protocol)
        anna.background_put("k", lww("v1", clock=1.0))
        protocol.read(cache_a, "k", RequestContext(), state)
        protocol.write(cache_a, "k", lww("updated", clock=2.0), RequestContext(), state)
        later = protocol.read(cache_b, "k", RequestContext(), state)
        assert later.reveal() == "updated"

    def test_finalize_evicts_snapshots(self, anna, cache_a, peers):
        protocol = RepeatableReadProtocol()
        state = SessionState("exec", protocol)
        anna.background_put("k", lww("v"))
        protocol.read(cache_a, "k", RequestContext(), state)
        protocol.finalize(state, peers, completed=True)
        assert cache_a.snapshot_count() == 0

    def test_metadata_bytes_positive_once_reads_exist(self, anna, cache_a):
        protocol = RepeatableReadProtocol()
        state = SessionState("exec", protocol)
        anna.background_put("k", lww("v"))
        protocol.read(cache_a, "k", RequestContext(), state)
        assert state.metadata_bytes() > 0


class TestMultiKeyCausal:
    def test_read_maintains_causal_cut(self, anna, cache_a):
        protocol = MultiKeyCausalProtocol()
        state = SessionState("exec", protocol)
        anna.background_put("dep", causal("dep-v", {"w": 1}))
        anna.background_put("k", causal("k-v", {"w": 2}, deps={"dep": VectorClock({"w": 1})}))
        protocol.read(cache_a, "k", RequestContext(), state)
        assert cache_a.contains("dep")
        assert cache_a.violates_causal_cut() == []
        assert "dep" in state.dependencies


class TestDistributedSessionCausal:
    def test_dependency_forces_fresh_read_on_other_cache(self, anna, cache_a, cache_b):
        protocol = DistributedSessionCausalProtocol()
        state = SessionState("exec", protocol)
        # cache-b holds a stale version of "l".
        anna.background_put("l", causal("l-old", {"w": 1}))
        cache_b.get_or_fetch("l", RequestContext())
        # A newer l and a k that depends on it land in Anna.
        anna.background_put("l", causal("l-new", {"w": 2}))
        anna.background_put("k", causal("k-v", {"x": 1}, deps={"l": VectorClock({"w": 2})}))
        # Upstream function (cache-a) reads k, shipping the dependency on l@w:2.
        protocol.read(cache_a, "k", RequestContext(), state)
        assert "l" in state.dependencies
        # Downstream function on cache-b must not read the stale l.
        value = protocol.read(cache_b, "l", RequestContext(), state)
        clock = value.vector_clock
        # Equal, newer or concurrent: anything the dependency does not dominate.
        assert not VectorClock({"w": 2}).dominates(clock)
        assert value.reveal() == "l-new"

    def test_valid_local_version_served_without_fetch(self, anna, cache_a, cache_b):
        protocol = DistributedSessionCausalProtocol()
        state = SessionState("exec", protocol)
        anna.background_put("k", causal("v", {"w": 5}))
        protocol.read(cache_a, "k", RequestContext(), state)
        cache_b.get_or_fetch("k", RequestContext())
        ctx = RequestContext()
        protocol.read(cache_b, "k", ctx, state)
        assert state.upstream_fetches == 0

    def test_writes_update_read_set_with_new_clock(self, anna, cache_a):
        protocol = DistributedSessionCausalProtocol()
        state = SessionState("exec", protocol)
        anna.background_put("k", causal("v1", {"w": 1}))
        protocol.read(cache_a, "k", RequestContext(), state)
        new_version = causal("v2", {"w": 1, "me": 1})
        protocol.write(cache_a, "k", new_version, RequestContext(), state)
        assert state.read_set["k"].version.get("me") == 1

    def test_dsc_metadata_larger_than_rr(self, anna, cache_a):
        anna.background_put("dep", causal("d", {"w": 1}))
        anna.background_put("k", causal("v", {"w": 2}, deps={"dep": VectorClock({"w": 1})}))
        dsc_state = SessionState(
            "exec-dsc", make_protocol(ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL))
        DistributedSessionCausalProtocol().read(cache_a, "k", RequestContext(), dsc_state)
        rr_state = SessionState(
            "exec-rr", make_protocol(ConsistencyLevel.DISTRIBUTED_SESSION_RR))
        RepeatableReadProtocol().read(cache_a, "k", RequestContext(), rr_state)
        assert dsc_state.metadata_bytes() > rr_state.metadata_bytes()


class TestObservingProtocol:
    def test_reports_reads_and_writes(self, anna, cache_a):
        events = []

        class Recorder:
            def observe_read(self, execution_id, cache_id, key, lattice):
                events.append(("read", cache_id, key))

            def observe_write(self, execution_id, cache_id, key, lattice):
                events.append(("write", cache_id, key))

        protocol = ObservingProtocol(LWWProtocol(), Recorder())
        state = SessionState("exec", protocol)
        anna.background_put("k", lww("v"))
        protocol.read(cache_a, "k", RequestContext(), state)
        protocol.write(cache_a, "k", lww("v2", clock=2.0), RequestContext(), state)
        assert ("read", "cache-a", "k") in events
        assert ("write", "cache-a", "k") in events
        assert protocol.level == ConsistencyLevel.LWW
