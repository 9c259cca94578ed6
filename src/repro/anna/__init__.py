"""Anna: the autoscaling, lattice-based key-value store Cloudburst builds on.

This is a pure-Python reimplementation of the Anna KVS interface Cloudburst
depends on: lattice-merging multi-master puts, consistent-hash partitioning
with replication, memory/disk tiering, selective hot-key replication, and the
key-to-cache index used for update propagation and locality scheduling.
"""

from .autoscaler import (
    StorageAutoscaler,
    StorageAutoscalerConfig,
    StorageAutoscalerReport,
)
from .cluster import GOSSIP_INTERVAL_MS, AnnaCluster
from .hash_ring import HashRing, stable_hash
from .index import IndexOverhead, KeyCacheIndex
from .storage_node import (
    ColdTier,
    KeyStats,
    StorageNode,
    StorageServiceModel,
)

__all__ = [
    "AnnaCluster",
    "ColdTier",
    "GOSSIP_INTERVAL_MS",
    "StorageServiceModel",
    "HashRing",
    "stable_hash",
    "IndexOverhead",
    "KeyCacheIndex",
    "KeyStats",
    "StorageNode",
    "StorageAutoscaler",
    "StorageAutoscalerConfig",
    "StorageAutoscalerReport",
]
