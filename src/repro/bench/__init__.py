"""Benchmark harness: one entry point per table/figure in the paper's §6."""

from .ablations import (
    ReplicationAblation,
    SchedulingAblation,
    run_caching_ablation,
    run_hot_key_replication_ablation,
    run_messaging_ablation,
    run_scheduling_ablation,
)
from .casestudies import (
    RetwisExperiment,
    ScalingPoint,
    ScalingResult,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
)
from .enginebench import (
    FLOOR_EVENTS_PER_SEC,
    PRE_PR_BASELINE,
    engine_throughput_errors,
    run_engine_micro,
)
from .consistency_bench import (
    ConsistencyLatencyResult,
    MetadataOverhead,
    run_figure8,
    run_table2,
)
from .faultbench import (
    FAULT_CLASSES,
    fault_recovery_errors,
    run_fault_recovery,
)
from .harness import (
    ComparisonResult,
    EngineLoadDriver,
    SweepResult,
    run_closed_loop,
)
from .ledger import (
    DEFAULT_LEDGER_NAME,
    TREND_GATES,
    TREND_TOLERANCE,
    TREND_WINDOW,
    BenchLedger,
    TrendGate,
    apply_ledger,
    extract_samples,
    trend_errors,
)
from .microbenchmarks import (
    AutoscalingExperiment,
    run_figure1,
    run_figure5,
    run_figure6,
    run_figure7,
)

__all__ = [
    "ReplicationAblation",
    "SchedulingAblation",
    "run_caching_ablation",
    "run_hot_key_replication_ablation",
    "run_messaging_ablation",
    "run_scheduling_ablation",
    "RetwisExperiment",
    "ScalingPoint",
    "ScalingResult",
    "run_figure9",
    "run_figure10",
    "run_figure11",
    "run_figure12",
    "FLOOR_EVENTS_PER_SEC",
    "PRE_PR_BASELINE",
    "engine_throughput_errors",
    "run_engine_micro",
    "ConsistencyLatencyResult",
    "MetadataOverhead",
    "run_figure8",
    "run_table2",
    "ComparisonResult",
    "EngineLoadDriver",
    "SweepResult",
    "run_closed_loop",
    "DEFAULT_LEDGER_NAME",
    "TREND_GATES",
    "TREND_TOLERANCE",
    "TREND_WINDOW",
    "BenchLedger",
    "TrendGate",
    "apply_ledger",
    "extract_samples",
    "trend_errors",
    "FAULT_CLASSES",
    "fault_recovery_errors",
    "run_fault_recovery",
    "AutoscalingExperiment",
    "run_figure1",
    "run_figure5",
    "run_figure6",
    "run_figure7",
]
