"""Constructors take only what a caller selects (DESIGN.md DR-19).

Each value below was settable but set by no caller outside ``tests/``; it is
a module constant now, read where it is used, and tests that need another
value patch the constant.  The functions below were run only by tests and are
gone, and ``StorageNode`` talks to one cold-tier object whatever backs it.
"""

import inspect
from pathlib import Path

import pytest

from repro.anna import AnnaCluster, HashRing, KeyCacheIndex, StorageNode, autoscaler
from repro.apps.gossip import GossipAggregation
from repro.baselines import SandPlatform, SimulatedLambda
from repro.baselines.storage import SimulatedStorageService
from repro.cloudburst import (
    CacheStats,
    CloudburstClient,
    CloudburstCluster,
    CloudburstFuture,
    DagRegistry,
    ExecutorCache,
    ExecutorThread,
    ExecutorVM,
    Scheduler,
)
from repro.cloudburst.messaging import MessageRouter
from repro.cloudburst.sessions import DagSession
from repro.lattices import CausalLattice, VectorClock
from repro.sim import (
    FaultPlane,
    LatencyRecorder,
    RequestContext,
    ReservationQueue,
    WorkQueue,
    ZipfGenerator,
)
from repro.workloads import arrays
from repro.workloads.dags import ConsistencyWorkload
from repro.workloads.social import SocialWorkloadGenerator

#: constructor -> the parameters that became module constants.
CONSTANTS = {
    CloudburstCluster: ("anna_replication", "compute_model", "overload_threshold",
                        "work_queue_bound"),
    Scheduler: ("overload_threshold", "max_retries", "placement_policy"),
    ExecutorVM: ("work_queue_bound",),
    ExecutorThread: ("work_queue_bound",),
    AnnaCluster: ("virtual_nodes", "storage_service", "node_queue_bound",
                  "gossip_interval_ms"),
    StorageNode: ("service_model", "queue_bound"),
    HashRing: ("virtual_nodes",),
    SimulatedLambda: ("cold_start_probability",),
    SandPlatform: ("same_host_probability",),
    GossipAggregation: ("round_processing_ms",),
    ConsistencyWorkload: ("min_length", "max_length", "refs_per_function", "key_prefix"),
    SocialWorkloadGenerator: ("reply_fraction",),
}

#: owner (a class or a module) -> the functions only tests ran (DESIGN.md
#: DR-19, DR-36).
REMOVED = {
    CloudburstCluster: ("remove_vm", "total_threads", "scheduler", "crash_scheduler",
                        "restart_scheduler", "vm"),
    MessageRouter: ("unregister_thread", "is_registered", "address_of", "pending_count"),
    LatencyRecorder: ("extend", "__len__"),
    StorageNode: ("promote", "over_memory_capacity", "coldest_memory_keys",
                  "memory_key_count", "key_count"),
    AnnaCluster: ("key_count", "replicas_of", "dirty_key_count", "pending_update_count"),
    HashRing: ("nodes", "__contains__", "__len__", "primary"),
    KeyCacheIndex: ("keys_for", "replication_factor", "tracked_keys", "tracked_caches",
                    "__contains__"),
    SimulatedStorageService: ("delete", "keys"),
    CacheStats: ("hit_rate",),
    ExecutorCache: ("snapshot_count",),
    CloudburstClient: ("reference", "last_latency_ms"),
    DagRegistry: ("__contains__", "names"),
    CloudburstFuture: ("execution_id", "retries", "ctx", "session"),
    DagSession: ("retries", "session_id"),
    RequestContext: ("charges_for", "count", "total", "breakdown"),
    WorkQueue: ("is_full",),
    ReservationQueue: ("busy_at",),
    ZipfGenerator: ("draw",),
    VectorClock: ("get", "entries"),
    CausalLattice: ("siblings", "with_dependency"),
    FaultPlane: ("timeline_signature",),
    autoscaler: ("hot_key_report",),
    arrays: ("total_bytes",),
}


class TestOnlyWhatACallerSelects:
    def test_the_24_values_are_constants_not_parameters(self):
        assert sum(len(names) for names in CONSTANTS.values()) == 24
        for constructor, names in CONSTANTS.items():
            parameters = inspect.signature(constructor.__init__).parameters
            assert not set(names) & set(parameters), constructor.__name__

    @pytest.mark.parametrize("owner", sorted(REMOVED, key=lambda cls: cls.__name__),
                             ids=lambda cls: cls.__name__)
    def test_test_only_methods_are_gone(self, owner):
        assert not [name for name in REMOVED[owner] if hasattr(owner, name)]

    def test_storage_node_calls_one_cold_tier(self):
        source = Path(inspect.getfile(StorageNode)).read_text()
        assert "cold_tier is not None" not in source
