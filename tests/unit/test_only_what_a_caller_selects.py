"""Constructors take only what a caller selects (DESIGN.md DR-19).

Each value below was settable but set by no caller outside ``tests/``; it is
a module constant now, read where it is used, and tests that need another
value patch the constant.  The methods below were run only by tests and are
gone, and ``StorageNode`` talks to one cold-tier object whatever backs it.
"""

import inspect
from pathlib import Path

import pytest

from repro.anna import AnnaCluster, HashRing, StorageNode
from repro.apps.gossip import GossipAggregation
from repro.baselines import SandPlatform, SimulatedLambda
from repro.cloudburst import CloudburstCluster, ExecutorThread, ExecutorVM, Scheduler
from repro.cloudburst.messaging import MessageRouter
from repro.sim import LatencyRecorder
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

#: owner -> the methods only tests ran.
REMOVED = {
    CloudburstCluster: ("remove_vm", "total_threads", "scheduler", "crash_scheduler",
                        "restart_scheduler"),
    MessageRouter: ("unregister_thread",),
    LatencyRecorder: ("extend", "__len__"),
    StorageNode: ("promote", "over_memory_capacity", "coldest_memory_keys",
                  "memory_key_count"),
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
