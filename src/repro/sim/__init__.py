"""Simulation substrate: virtual clocks, latency models, statistics, queueing.

This package replaces the AWS infrastructure of the original Cloudburst
deployment with deterministic, seeded models so the rest of the reproduction
(the Anna KVS, the Cloudburst compute tier, the baselines and the benchmark
harness) can run on a laptop while preserving the shape of the paper's
evaluation.
"""

from .clock import ChargeRecord, RequestContext, SimClock
from .engine import (
    Engine,
    Event,
    ForkJoin,
    ReservationQueue,
    WorkQueue,
)
from .faults import DEFAULT_FAULT_CLASSES, FaultEvent, FaultPlane
from .latency import ComputeModel, DEFAULT_COSTS, LatencyModel, OperationCost
from .overlap import ingress_overflow_ms, run_overlapped
from .rng import RandomSource, ZipfGenerator
from .stats import (
    LatencyRecorder,
    LatencySummary,
    SimulationResult,
    ThroughputPoint,
    format_table,
    mean,
    median,
    percentile,
)

__all__ = [
    "ChargeRecord",
    "RequestContext",
    "SimClock",
    "Engine",
    "Event",
    "ForkJoin",
    "ReservationQueue",
    "WorkQueue",
    "DEFAULT_FAULT_CLASSES",
    "FaultEvent",
    "FaultPlane",
    "ComputeModel",
    "DEFAULT_COSTS",
    "LatencyModel",
    "OperationCost",
    "ingress_overflow_ms",
    "run_overlapped",
    "RandomSource",
    "ZipfGenerator",
    "LatencyRecorder",
    "LatencySummary",
    "ThroughputPoint",
    "format_table",
    "mean",
    "median",
    "percentile",
    "SimulationResult",
]
