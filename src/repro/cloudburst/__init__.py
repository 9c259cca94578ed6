"""Cloudburst: the stateful Functions-as-a-Service platform (the paper's core).

The public API mirrors the paper's programming interface (§3): connect a
client to a cluster, ``register`` functions and DAGs, pass
``CloudburstReference`` arguments for locality-aware scheduling, and choose a
consistency level for distributed sessions.
"""

from .cache import CacheStats, ExecutorCache
from .client import CloudburstClient, RegisteredFunction
from .cluster import CloudburstCluster
from .consistency import (
    AnomalyReport,
    AnomalyTracker,
    ConsistencyLevel,
    SessionState,
    make_protocol,
)
from .controlplane import (
    AutoscalerDecision,
    ComputeControlPlane,
    ControlPlaneReport,
    MonitoringConfig,
    PinMigration,
)
from .dag import Dag, DagEdge, DagRegistry
from .executor import ExecutorThread, ExecutorVM, UserLibrary, simulated_compute
from .messaging import MessageRouter
from .policy import (
    LocalityPlacementPolicy,
    PlacementPolicy,
    RandomPlacementPolicy,
)
from .references import CloudburstFuture, CloudburstReference, extract_references
from .scheduler import Scheduler
from .serialization import LatticeEncapsulator
from .sessions import ExecutionResult

__all__ = [
    "CacheStats",
    "ExecutorCache",
    "CloudburstClient",
    "RegisteredFunction",
    "CloudburstCluster",
    "AnomalyReport",
    "AnomalyTracker",
    "ConsistencyLevel",
    "SessionState",
    "make_protocol",
    "Dag",
    "DagEdge",
    "DagRegistry",
    "ExecutorThread",
    "ExecutorVM",
    "UserLibrary",
    "simulated_compute",
    "MessageRouter",
    "AutoscalerDecision",
    "ComputeControlPlane",
    "ControlPlaneReport",
    "MonitoringConfig",
    "PinMigration",
    "PlacementPolicy",
    "LocalityPlacementPolicy",
    "RandomPlacementPolicy",
    "CloudburstFuture",
    "CloudburstReference",
    "extract_references",
    "ExecutionResult",
    "Scheduler",
    "LatticeEncapsulator",
]
