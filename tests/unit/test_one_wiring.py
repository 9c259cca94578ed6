"""One wiring: the cluster's parts read the cluster (DESIGN.md DR-20).

Each data-plane part takes its owner and reads the shared state from it, so
a scheduler, a VM and a client hold the cluster's own objects rather than
copies handed in through options.  The second copies of the same facts are
gone.  A background storage operation touches its key at the engine's time.
"""

import inspect

from repro.anna import AnnaCluster, StorageNode
from repro.cloudburst import (
    CloudburstClient,
    CloudburstCluster,
    ExecutorCache,
    ExecutorThread,
    ExecutorVM,
    Scheduler,
)
from repro.cloudburst.dag import DagRegistry
from repro.cloudburst.messaging import MessageRouter
from repro.cloudburst.sessions import DagSession
from repro.lattices import LWWLattice, Timestamp
from repro.sim import RequestContext, SimClock


def _parameters(constructor):
    return [name for name in inspect.signature(constructor.__init__).parameters
            if name != "self"]


def _lww(value, clock_ms):
    return LWWLattice(Timestamp(clock_ms, "writer"), value)


class TestOneWiring:
    def test_each_part_takes_its_owner(self):
        assert _parameters(Scheduler) == ["cluster", "scheduler_id"]
        assert _parameters(ExecutorVM) == ["cluster", "vm_id", "threads_per_vm"]
        assert _parameters(CloudburstClient) == ["cluster", "client_id", "consistency"]
        assert _parameters(ExecutorCache) == ["cache_id", "kvs", "peer_registry"]
        assert _parameters(MessageRouter) == ["kvs"]
        assert "engine" not in _parameters(AnnaCluster)
        session = _parameters(DagSession)
        assert "inline" in session
        assert not {"engine", "use_pins"} & set(session)

    def test_every_part_holds_the_clusters_objects(self):
        cluster = CloudburstCluster(executor_vms=2, scheduler_count=2, seed=4)
        cluster.add_vm(threads=1)
        for scheduler in cluster.schedulers:
            assert scheduler.kvs is cluster.kvs
            assert scheduler.engine is cluster.engine
            assert scheduler.latency_model is cluster.latency_model
            assert scheduler.dag_registry is cluster.dag_registry
            assert scheduler.vms is cluster.vms
            assert scheduler.cache_registry is cluster.cache_registry
        for vm in cluster.vms:
            assert vm.kvs is cluster.kvs
            assert vm.engine is cluster.engine
            assert vm.latency_model is cluster.latency_model
            assert vm.compute_model is cluster.compute_model
            assert vm.router is cluster.router
            assert vm.cache.latency_model is cluster.latency_model
            assert cluster.cache_registry[vm.cache.cache_id] is vm.cache
        assert cluster.engine is cluster.kvs.engine
        assert cluster.latency_model is cluster.kvs.latency_model
        assert cluster.router.latency_model is cluster.latency_model
        client = cluster.connect()
        assert client.kvs is cluster.kvs
        assert client._schedulers is cluster.schedulers

    def test_scheduler_rng_is_the_clusters_stream_for_its_id(self):
        cluster = CloudburstCluster(scheduler_count=2, seed=9)
        for scheduler in cluster.schedulers:
            expected = cluster.rng.spawn(scheduler.scheduler_id)
            assert [scheduler.rng.randint(0, 1 << 30) for _ in range(5)] == \
                [expected.randint(0, 1 << 30) for _ in range(5)]

    def test_each_thread_owns_its_encapsulator(self):
        cluster = CloudburstCluster(executor_vms=1, threads_per_vm=2)
        encapsulators = [thread.encapsulator for thread in cluster.vms[0].threads]
        assert [e.node_id for e in encapsulators] == cluster.vms[0].thread_ids()
        assert encapsulators[0] is not encapsulators[1]
        assert all(e.level is cluster.consistency for e in encapsulators)

    def test_the_second_copies_are_gone(self):
        assert not hasattr(DagRegistry, "record_call")
        assert not hasattr(DagRegistry, "call_count")
        assert not hasattr(ExecutorThread, "utilization")
        assert not hasattr(ExecutorThread, "reset_window")
        assert not hasattr(ExecutorVM, "encapsulator_for")
        assert not hasattr(Scheduler, "_cache_registry")
        thread = CloudburstCluster(executor_vms=1).vms[0].threads[0]
        assert not hasattr(thread, "busy_ms")

    def test_a_drained_cache_leaves_the_registry_sessions_finalize_against(self):
        cluster = CloudburstCluster(executor_vms=2, seed=2)
        drained = cluster.vms[0]
        cluster.drain_vm(drained)
        assert drained.cache.cache_id not in cluster.schedulers[0].cache_registry
        assert cluster.vms[1].cache.cache_id in cluster.schedulers[0].cache_registry


class TestBackgroundAccessTime:
    def test_a_write_back_is_not_the_least_recently_used_key(self):
        anna = AnnaCluster(node_count=1, replication_factor=1, memory_capacity_keys=2)
        node = anna.node(anna.node_ids[0])
        anna.put("A", _lww("a1", 1.0), RequestContext(clock=SimClock(10.0)))
        anna.put("B", _lww("b1", 2.0), RequestContext(clock=SimClock(20.0)))
        anna.get("B", RequestContext(clock=SimClock(50.0)))
        reached = []
        anna.engine.at(100.0, lambda: reached.append(True))
        while not reached:
            anna.engine.step()
        # A cache's asynchronous write-back: no request context.
        anna.background_put("A", _lww("a2", 3.0))
        assert node.stats("A").last_access_ms == 100.0
        # A fresh key fills the tier: the coldest resident key is B (t=50).
        anna.put("C", _lww("c1", 4.0), RequestContext(clock=SimClock(110.0)))
        assert node.tier_of("B") == StorageNode.DISK_TIER
        assert node.tier_of("A") == StorageNode.MEMORY_TIER
        assert node.tier_of("C") == StorageNode.MEMORY_TIER
