"""Unit tests for the Anna storage tier as a discrete-event participant.

An :class:`AnnaCluster` lives on one engine from construction.  Covers
quorum-of-1 multi-master writes with anti-entropy gossip, bounded node work
queues (backpressure + read redirect), service-time charging, gossip
partitions, membership rebalancing under divergent replicas, the lifecycle of
the recurring rounds across idle gaps, and the storage autoscaler running as
a recurring engine event.
"""

import pytest

from repro.anna import (
    AnnaCluster,
    StorageAutoscaler,
    StorageAutoscalerConfig,
    StorageServiceModel,
)
from repro.anna import autoscaler
from repro.anna import cluster as anna_cluster
from repro.anna import storage_node
from repro.errors import StorageOverloadError
from repro.lattices import LWWLattice, SetLattice, Timestamp
from repro.sim import Engine, LatencyModel, RequestContext, SimClock


def lww(value, clock=1.0):
    return LWWLattice(Timestamp(clock, "test"), value)


def ctx_at(now_ms: float = 0.0) -> RequestContext:
    return RequestContext(clock=SimClock(now_ms))


@pytest.fixture
def anna_constants(monkeypatch):
    """Set Anna's module constants for one test (before building the cluster).

    ``memory_base_ms`` (and ``bandwidth``) replace the storage service model
    the cluster charges, ``queue_bound`` every new node's work-queue bound and
    ``gossip_interval_ms`` the anti-entropy period a new cluster arms.
    """
    def set_constants(queue_bound=None, memory_base_ms=None, bandwidth=None,
                      gossip_interval_ms=None):
        if queue_bound is not None:
            monkeypatch.setattr(storage_node, "NODE_QUEUE_BOUND", queue_bound)
        if memory_base_ms is not None:
            service = StorageServiceModel(memory_base_ms=memory_base_ms)
            if bandwidth is not None:
                service = StorageServiceModel(memory_base_ms=memory_base_ms,
                                              memory_bandwidth_bytes_per_ms=bandwidth)
            monkeypatch.setattr(anna_cluster, "STORAGE_SERVICE", service)
        if gossip_interval_ms is not None:
            monkeypatch.setattr(anna_cluster, "GOSSIP_INTERVAL_MS", gossip_interval_ms)
    return set_constants


def make_cluster(**kwargs) -> AnnaCluster:
    kwargs.setdefault("node_count", 4)
    kwargs.setdefault("replication_factor", 2)
    kwargs.setdefault("latency_model", LatencyModel(jitter_enabled=False))
    return AnnaCluster(**kwargs)


class TestEngineOwnership:
    def test_builds_its_own_engine_by_default(self):
        anna = make_cluster()
        assert isinstance(anna.engine, Engine)
        assert anna.engine.now_ms == 0.0

    def test_nothing_is_armed_on_an_idle_engine(self):
        anna = make_cluster(propagation_mode=AnnaCluster.PROPAGATE_PERIODIC,
                            propagation_interval_ms=50.0)
        assert anna.engine.pending == 0
        anna.engine.run()
        assert anna.gossip_rounds == 0


class TestQuorumOfOneAndGossip:
    def test_put_lands_on_one_replica_until_gossip(self):
        anna = make_cluster()
        anna.put("k", lww("v"), ctx_at())
        assert len(anna.replicas_of("k")) == 1
        assert anna.dirty_key_count() == 1

        exchanged = anna.run_gossip_round()
        assert exchanged == 1
        assert len(anna.replicas_of("k")) == 2
        assert anna.dirty_key_count() == 0

    def test_gossip_merges_do_not_count_as_client_load(self):
        anna = make_cluster()
        anna.put("k", lww("v"), ctx_at())
        accesses_before = anna.total_access_count()
        anna.run_gossip_round()
        assert anna.total_access_count() == accesses_before
        replicas = [anna.node(owner) for owner in anna.replicas_of("k")]
        assert sum(node.replica_merges for node in replicas) == 1

    def test_round_after_the_last_write_needs_no_drain(self):
        # The write is the engine's last foreground event; the round already
        # scheduled behind it still fires, replicates the write and pauses.
        anna = make_cluster()
        engine = anna.engine
        engine.at(5.0, lambda: anna.put("k", lww("v"), ctx_at(5.0)))
        engine.run()
        assert anna.dirty_key_count() == 0
        assert len(anna.replicas_of("k")) == 2
        assert anna.gossip_rounds == 1
        assert engine.now_ms == 25.0
        assert engine.pending == 0

    def test_periodic_gossip_runs_on_virtual_time(self, anna_constants):
        anna_constants(gossip_interval_ms=10.0)
        anna = make_cluster()
        engine = anna.engine
        # Foreground work keeps the recurring gossip tick alive past 10 ms.
        engine.at(5.0, lambda: anna.put("k", lww("v"), ctx_at(5.0)))
        engine.at(30.0, lambda: None)
        engine.run()
        assert anna.gossip_rounds == 3  # the round at 30 finds no work left
        assert anna.dirty_key_count() == 0

    def test_divergent_replicas_converge_after_one_round(self, anna_constants):
        # Two concurrent writers land on *different* replicas (the first
        # replica's bounded queue is busy when the second write arrives) and
        # the set lattice merges both elements after one gossip exchange.
        anna_constants(queue_bound=1, memory_base_ms=5.0)
        anna = make_cluster(node_count=3, replication_factor=2)
        anna.put("s", SetLattice({"a"}), ctx_at())
        anna.put("s", SetLattice({"b"}), ctx_at())
        owners = anna.replicas_of("s")
        values = [anna.node(owner).peek("s") for owner in owners]
        assert {frozenset(v.reveal()) for v in values if v is not None} == \
            {frozenset({"a"}), frozenset({"b"})}

        anna.run_gossip_round()
        for owner in owners:
            assert anna.node(owner).peek("s").reveal() == {"a", "b"}


class TestGossipPartitions:
    @pytest.fixture(autouse=True)
    def ten_ms_gossip(self, anna_constants):
        anna_constants(gossip_interval_ms=10.0)

    def partitioned_write(self):
        anna = make_cluster(node_count=3, replication_factor=2)
        _accepting, peer = anna._owners("k")
        anna.partition_node(peer)
        anna.engine.at(1.0, lambda: anna.put("k", lww("v"), ctx_at(1.0)))
        return anna, peer

    def test_outstanding_partition_does_not_keep_the_engine_alive(self):
        anna, peer = self.partitioned_write()
        anna.engine.run()  # must return: the requeued key cannot re-arm the tick
        assert anna.engine.pending == 0
        assert anna.dirty_key_count() == 1
        assert not anna.node(peer).contains("k")

    def test_healed_partition_converges_on_the_next_round(self):
        anna, peer = self.partitioned_write()
        engine = anna.engine
        engine.run()
        anna.heal_partition(peer)
        rounds_before = anna.gossip_rounds
        engine.at(engine.now_ms + 1.0, lambda: None)  # work returns
        engine.run()
        assert anna.gossip_rounds > rounds_before
        assert anna.dirty_key_count() == 0
        assert anna.node(peer).peek("k").reveal() == "v"


class TestBoundedNodeQueues:
    @pytest.fixture(autouse=True)
    def slow_memory_tier(self, anna_constants):
        anna_constants(memory_base_ms=5.0)
        self.anna_constants = anna_constants

    def saturated_cluster(self):
        self.anna_constants(queue_bound=2)
        return make_cluster(node_count=2, replication_factor=1)

    def one_slot_cluster(self):
        self.anna_constants(queue_bound=1)
        return make_cluster(node_count=3, replication_factor=2)

    def test_put_rejects_when_every_replica_full(self):
        anna = self.saturated_cluster()
        anna.put("k", lww(0), ctx_at())
        anna.put("k", lww(1), ctx_at())
        with pytest.raises(StorageOverloadError):
            anna.put("k", lww(2), ctx_at())
        assert anna.total_rejections() == 1

    def test_skipped_replica_on_successful_put_is_not_a_rejection(self):
        # Regression: landing on a later replica because an earlier one was
        # busy used to count a rejection at the skipped node, inflating the
        # bench's storage.rejections for puts that succeeded.
        anna = self.one_slot_cluster()
        anna.put("k", lww(0), ctx_at())
        anna.put("k", lww(1), ctx_at())  # first owner busy -> lands on second
        assert anna.total_rejections() == 0

    def test_queue_depth_is_bounded_not_unbounded(self):
        anna = self.saturated_cluster()
        accepted = 0
        for index in range(50):
            try:
                anna.put("k", lww(index), ctx_at())
                accepted += 1
            except StorageOverloadError:
                pass
        owner = anna.replicas_of("k")[0]
        assert accepted == 2
        assert anna.node(owner).work_queue.depth(0.0) <= 2
        assert anna.total_rejections() == 48

    def test_past_reservations_are_history_not_load(self):
        # One monotonic clock: a queue that was full at t=0 has room again
        # once its reservations have ended — nothing needs resetting.
        anna = self.saturated_cluster()
        anna.put("k", lww(0), ctx_at())
        anna.put("k", lww(1), ctx_at())
        later = ctx_at(1_000.0)
        anna.put("k", lww(2, clock=2.0), later)
        assert later.total("anna", "queue") == 0.0
        assert anna.total_rejections() == 0

    def test_waiting_writer_is_charged_queueing_delay(self):
        anna = self.saturated_cluster()
        first = ctx_at()
        anna.put("k", lww(0), first)
        second = ctx_at()
        anna.put("k", lww(1), second)
        # The second writer waited out the first's 5 ms service slot (give or
        # take the sub-microsecond skew of the preceding network charges).
        assert second.total("anna", "queue") == pytest.approx(5.0, abs=0.01)
        assert second.total("anna", "service") == pytest.approx(5.0, abs=0.01)
        assert first.total("anna", "queue") == 0.0

    def test_reads_redirect_to_less_loaded_replica(self):
        anna = self.one_slot_cluster()
        anna.background_put("k", lww("v"))
        anna.run_gossip_round()  # every replica holds it
        first, second = anna.replicas_of("k")
        anna.node(first).work_queue.reserve(0.0, 5.0)  # saturate the primary
        reader = ctx_at()
        value = anna.get("k", reader)
        assert value.reveal() == "v"
        # Redirected: no queueing delay, and the skip is recorded as a
        # redirect — not a rejection, because the read still succeeded.
        assert reader.total("anna", "queue") == 0.0
        assert anna.node(first).read_redirects == 1
        assert anna.node(first).rejections == 0
        assert anna.node(second).stats("k").reads == 1

    @pytest.mark.parametrize("background", [
        lambda anna: anna.background_put("k", lww(2, clock=9.0)),
        lambda anna: anna.background_get("k"),
        lambda anna: anna.background_delete("other"),
    ], ids=["background_put", "background_get", "background_delete"])
    def test_background_traffic_never_queues(self, background):
        def charged_read(with_background):
            anna = self.saturated_cluster()
            anna.background_put("other", lww("o"))
            anna.put("k", lww(0), ctx_at())
            anna.put("k", lww(1), ctx_at())
            busy_ms = anna.total_queue_busy_ms()
            if with_background:
                # Background traffic (a cache write-back, a prior-version
                # read, a metadata clean-up) cannot be rejected, charges no
                # one and does not occupy the work queue.
                background(anna)
            assert anna.total_queue_busy_ms() == busy_ms
            reader = ctx_at()
            anna.get("k", reader)
            return ([(c.service, c.operation, c.latency_ms) for c in reader.charges],
                    reader.clock.now_ms)

        alone = charged_read(with_background=False)
        assert ("anna", "queue") in [charge[:2] for charge in alone[0]]
        assert charged_read(with_background=True) == alone

    def test_a_background_write_cannot_be_rejected(self):
        anna = self.saturated_cluster()
        anna.put("k", lww(0), ctx_at())
        anna.put("k", lww(1), ctx_at())
        merged = anna.background_put("k", lww(2, clock=9.0))
        assert merged.reveal() == 2

    def test_a_background_read_stamps_the_access(self):
        anna = make_cluster()
        anna.background_put("k", lww("v"))
        node = anna.node(anna.replicas_of("k")[0])
        anna.engine.at(40.0, lambda: None)
        anna.engine.run(until_ms=40.0)
        assert anna.background_get("k").reveal() == "v"
        assert node.stats("k").reads == 1
        assert node.stats("k").accesses == 2
        assert node.stats("k").last_access_ms == 40.0
        assert anna.background_get("ghost") is None


class TestServiceCharging:
    def test_uncontended_put_charges_service_but_no_queue(self, anna_constants):
        anna_constants(memory_base_ms=0.5, bandwidth=1e9)
        anna = make_cluster()
        ctx = ctx_at()
        anna.put("k", lww("v"), ctx)
        assert ctx.total("anna", "service") == pytest.approx(0.5, rel=1e-3)
        assert ctx.total("anna", "queue") == 0.0

    def test_disk_tier_service_slower_than_memory(self):
        model = StorageServiceModel()
        assert model.service_ms("disk", 1024) > model.service_ms("memory", 1024)

    def test_one_client_pays_round_trips_and_service_only(self):
        # A client that waits for each answer before sending the next request
        # never meets its own reservations: every iteration costs the same
        # two round trips plus two service slots, and nothing queues.
        anna = make_cluster()
        costs = []
        clock = 0.0
        for index in range(20):
            ctx = ctx_at(clock)
            anna.put(f"k{index % 5}", lww(index, clock=index), ctx)
            anna.get(f"k{index % 5}", ctx)
            assert ctx.total("anna", "queue") == 0.0
            costs.append(ctx.clock.now_ms - clock)
            clock = ctx.clock.now_ms
        assert costs == pytest.approx([costs[0]] * 20)

    def test_busy_time_survives_node_removal(self, anna_constants):
        anna_constants(memory_base_ms=2.0)
        anna = make_cluster(node_count=3, replication_factor=2)
        for index in range(12):
            anna.put(f"k{index}", lww(index), ctx_at(index * 10.0))
        busy = anna.total_queue_busy_ms()
        assert busy == pytest.approx(12 * 2.0, rel=1e-3)
        anna.remove_node(anna.node_ids[0])
        assert anna.total_queue_busy_ms() == pytest.approx(busy)


class TestRebalanceUnderLoad:
    def test_add_node_migrates_dirty_state_without_loss(self, anna_constants):
        anna_constants(queue_bound=1, memory_base_ms=5.0)
        anna = make_cluster(node_count=3, replication_factor=2)
        # Staggered writes (bound=1, 5 ms service): no two collide at a node.
        for index in range(40):
            anna.put(f"k{index}", SetLattice({f"v{index}"}), ctx_at(index * 10.0))
        # Two concurrent writers at t=1000 diverge onto different replicas.
        anna.put("shared", SetLattice({"a"}), ctx_at(1_000.0))
        anna.put("shared", SetLattice({"b"}), ctx_at(1_000.0))

        new_node = anna.add_node()
        anna.run_gossip_round()
        migrated = anna.node(new_node).key_count()
        assert migrated > 0
        for index in range(40):
            assert anna.background_get(f"k{index}").reveal() == {f"v{index}"}
        assert anna.background_get("shared").reveal() == {"a", "b"}

    def test_remove_node_preserves_ungossiped_writes(self):
        anna = make_cluster(node_count=3, replication_factor=2)
        anna.put("k", lww("fresh", clock=5.0), ctx_at())
        holder, = anna.replicas_of("k")
        # The accepting replica leaves before gossip ever ran: its write must
        # reach the remaining owners through the departure drain.
        anna.remove_node(holder)
        assert anna.background_get("k").reveal() == "fresh"

    def test_add_node_merges_replica_copies_not_first_copy_wins(self):
        # Regression: an ex-owner can keep a stale copy of a key whose
        # ownership migrated away from it; seeding a new node from whichever
        # node iterates first used to resurrect that stale version.
        anna = make_cluster(node_count=2, replication_factor=1)
        anna.background_put("k", lww("v0", clock=1.0))
        # Grow the ring until ownership of "k" moves off every original holder.
        original_holders = set(anna.replicas_of("k"))
        for _ in range(6):
            anna.add_node()
        anna.background_put("k", lww("v1", clock=2.0))
        # Keep adding nodes: every new owner must observe the newest write,
        # no matter which stale ex-owner copies happen to linger.
        for _ in range(4):
            anna.add_node()
            assert anna.background_get("k").reveal() == "v1"
        assert original_holders  # the scenario really exercised migration

    def test_migration_does_not_inflate_access_stats(self):
        anna = make_cluster(node_count=3, replication_factor=2)
        for index in range(30):
            anna.put(f"k{index}", lww(index), ctx_at())
        before = anna.total_access_count()
        anna.add_node()
        # Migration copies are system traffic: no new client accesses.
        assert anna.total_access_count() == before
        # Removing a node drops its per-key counters but the drain's merges
        # must not register as client load on the receiving nodes either.
        anna.remove_node(anna.node_ids[0])
        assert anna.total_access_count() <= before


def write_burst(anna: AnnaCluster, start_ms: float, writes: int = 20) -> None:
    """Schedule ``writes`` puts, 2 ms apart from ``start_ms``, and run them."""
    for index in range(writes):
        at_ms = start_ms + 2.0 * index
        anna.engine.at(at_ms, lambda i=index, at=at_ms: anna.put(
            f"burst-{start_ms}-{i}", lww(i, clock=at), ctx_at(at)))
    anna.engine.run()


class TestRoundsResumeAfterIdle:
    """The recurring rounds of a lifetime engine tick in every burst of work.

    At the parent commit a recurring event that fired on an idle engine was
    gone for good; only the per-run re-attach hid it.
    """

    def test_second_burst_is_gossiped_too(self):
        anna = make_cluster()
        write_burst(anna, 0.0)
        rounds_after_first = anna.gossip_rounds
        assert rounds_after_first > 0
        assert anna.dirty_key_count() == 0

        write_burst(anna, anna.engine.now_ms + 500.0)
        assert anna.gossip_rounds > rounds_after_first
        assert anna.dirty_key_count() == 0
        assert anna.engine.pending == 0

    def test_periodic_propagation_drains_in_both_bursts(self):
        anna = make_cluster(propagation_mode=AnnaCluster.PROPAGATE_PERIODIC,
                            propagation_interval_ms=10.0)
        write_burst(anna, 0.0)
        assert anna.pending_update_count() == 0
        write_burst(anna, anna.engine.now_ms + 500.0)
        assert anna.pending_update_count() == 0

    def test_autoscaler_set_once_ticks_in_both_bursts(self):
        anna = make_cluster()
        scaler = StorageAutoscaler(anna)
        anna.set_autoscaler(scaler, interval_ms=10.0)
        write_burst(anna, 0.0)
        ticks_after_first = len(scaler.history)
        assert ticks_after_first > 0
        write_burst(anna, anna.engine.now_ms + 500.0)
        assert len(scaler.history) > ticks_after_first


class TestStorageAutoscalerOnEngine:
    def test_tick_runs_as_recurring_engine_event(self, monkeypatch):
        monkeypatch.setattr(autoscaler, "HOT_KEY_EXTRA_REPLICAS", 1)
        anna = make_cluster()
        scaler = StorageAutoscaler(anna, StorageAutoscalerConfig(
            scale_up_accesses_per_node=5.0, scale_down_accesses_per_node=0.0,
            hot_key_threshold=8, max_nodes=8))
        anna.set_autoscaler(scaler, interval_ms=20.0)
        engine = anna.engine

        def burst(at_ms):
            ctx = ctx_at(at_ms)
            for _ in range(5):
                anna.put("hot", lww("v", clock=at_ms), ctx)
                anna.get("hot", ctx)
        for at_ms in range(0, 100, 10):
            engine.at(float(at_ms), lambda at=at_ms: burst(float(at)))
        engine.run()

        assert len(scaler.history) >= 2
        assert any(report.nodes_added for report in scaler.history)
        assert any("hot" in report.keys_boosted for report in scaler.history)
        assert scaler.node_count_timeline[-1][1] == anna.node_count()
        # Boosted replication really widened the replica set.
        assert len(anna.replicas_of("hot")) > 2

    def test_clear_autoscaler_stops_the_tick(self):
        anna = make_cluster()
        scaler = StorageAutoscaler(anna)
        anna.set_autoscaler(scaler, interval_ms=10.0)
        anna.clear_autoscaler()
        anna.engine.at(5.0, lambda: None)
        anna.engine.run(until_ms=100.0)
        assert scaler.history == []

    def test_set_autoscaler_rejects_bad_interval(self):
        anna = make_cluster()
        with pytest.raises(ValueError):
            anna.set_autoscaler(StorageAutoscaler(anna), interval_ms=0.0)
