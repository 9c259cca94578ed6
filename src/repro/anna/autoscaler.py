"""Storage-tier autoscaling policy.

Anna responds to workload changes by (1) growing and shrinking the storage
cluster, (2) selectively replicating frequently-accessed ("hot") keys, and
(3) moving cold data from the memory tier to the disk tier ([86], summarised
in §2.2 of the Cloudburst paper).  The Cloudburst compute tier has its own,
separate autoscaler (:mod:`repro.cloudburst.controlplane`); this one only
manages storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .cluster import AnnaCluster

#: Policy values no caller selects (tests patch them): the node floor, the
#: replicas a hot key gains, the age (virtual ms) at which an untouched key
#: is demoted to disk, and how many keys :func:`hot_key_report` ranks.
MIN_NODES = 1
HOT_KEY_EXTRA_REPLICAS = 2
COLD_KEY_AGE_MS = 300_000.0
HOT_KEY_REPORT_SIZE = 10


@dataclass
class StorageAutoscalerConfig:
    """Thresholds for the storage autoscaling policy."""

    #: Add a node when mean accesses per node per tick exceeds this value.
    scale_up_accesses_per_node: float = 5_000.0
    #: Remove a node when mean accesses per node per tick falls below this value.
    scale_down_accesses_per_node: float = 500.0
    max_nodes: int = 64
    #: Keys accessed at least this many times per tick get extra replicas.
    hot_key_threshold: int = 1_000


@dataclass
class StorageAutoscalerReport:
    """What one policy tick decided (returned for observability and tests)."""

    nodes_added: int = 0
    nodes_removed: int = 0
    keys_boosted: List[str] = field(default_factory=list)
    keys_demoted: int = 0
    accesses_per_node: float = 0.0


class StorageAutoscaler:
    """Periodic policy engine for the Anna storage tier.

    Runs as a recurring event on the storage cluster's engine (armed by
    ``AnnaCluster.set_autoscaler``), evaluating the policy every interval of
    *virtual* time; :meth:`tick` is also callable by hand.  Add/remove-node
    decisions rebalance the hash ring through the cluster's migration path,
    so shard state follows membership.
    """

    def __init__(self, cluster: AnnaCluster,
                 config: Optional[StorageAutoscalerConfig] = None):
        self.cluster = cluster
        self.config = config or StorageAutoscalerConfig()
        self._last_total_accesses = 0
        self._engine_event = None
        #: One report per tick, in tick order (observability + tests).
        self.history: List[StorageAutoscalerReport] = []
        #: ``(virtual_ms, node_count)`` after every tick — the storage-tier
        #: analogue of the compute driver's capacity timeline.
        self.node_count_timeline: List[Tuple[float, int]] = []

    # -- lifecycle ---------------------------------------------------------------
    def start(self, interval_ms: float = 5_000.0) -> None:
        """Run :meth:`tick` as a recurring engine event on virtual time."""
        if interval_ms <= 0:
            raise ValueError("autoscaler interval must be positive")
        self.stop()
        engine = self.cluster.engine
        self._engine_event = engine.every(
            interval_ms, lambda: self.tick(now_ms=engine.now_ms))

    def stop(self) -> None:
        if self._engine_event is not None:
            self._engine_event.cancel()
            self._engine_event = None

    def tick(self, now_ms: float = 0.0) -> StorageAutoscalerReport:
        """Run one policy evaluation and apply its decisions."""
        report = StorageAutoscalerReport()
        total_accesses = self.cluster.total_access_count()
        window_accesses = max(0, total_accesses - self._last_total_accesses)
        self._last_total_accesses = total_accesses
        node_count = self.cluster.node_count()
        report.accesses_per_node = window_accesses / max(1, node_count)

        # 1. Cluster elasticity.
        if (report.accesses_per_node > self.config.scale_up_accesses_per_node
                and node_count < self.config.max_nodes):
            self.cluster.add_node()
            report.nodes_added = 1
        elif (report.accesses_per_node < self.config.scale_down_accesses_per_node
                and node_count > MIN_NODES):
            self.cluster.remove_node(self.cluster.node_ids[-1])
            report.nodes_removed = 1

        # 2. Selective replication of hot keys.
        for key in self.cluster.hot_keys(min_accesses=self.config.hot_key_threshold):
            self.cluster.boost_replication(key, HOT_KEY_EXTRA_REPLICAS)
            report.keys_boosted.append(key)

        # 3. Cold-data demotion to the disk tier.
        report.keys_demoted = self._demote_cold_keys(now_ms)
        self.history.append(report)
        self.node_count_timeline.append((now_ms, self.cluster.node_count()))
        return report

    def _demote_cold_keys(self, now_ms: float) -> int:
        demoted = 0
        for node_id in self.cluster.node_ids:
            node = self.cluster.node(node_id)
            # Only memory-tier keys are demotion candidates, so iterate the
            # memory tier directly: the old keys()+tier_of scan touched every
            # disk key per tick, which becomes a database query per key once
            # the disk tier is a durable SqliteColdTier.
            for key in list(node.memory_keys()):
                age = now_ms - node.stats(key).last_access_ms
                if age > COLD_KEY_AGE_MS:
                    if node.demote(key):
                        demoted += 1
        return demoted


def hot_key_report(cluster: AnnaCluster) -> Dict[str, int]:
    """The :data:`HOT_KEY_REPORT_SIZE` most-accessed keys across the cluster."""
    accesses: Dict[str, int] = {}
    for node_id in cluster.node_ids:
        node = cluster.node(node_id)
        for key in node.keys():
            accesses[key] = accesses.get(key, 0) + node.stats(key).accesses
    ranked = sorted(accesses.items(), key=lambda item: item[1], reverse=True)
    return dict(ranked[:HOT_KEY_REPORT_SIZE])
