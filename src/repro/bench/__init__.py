"""Benchmark harness: one entry point per table/figure in the paper's §6.

Every ``run_*`` returns plain data: its ``BENCH_throughput.json`` section(s).
"""

from .ablations import (
    run_ablations,
    run_caching_ablation,
    run_hot_key_replication_ablation,
    run_messaging_ablation,
    run_scheduling_ablation,
)
from .casestudies import (
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
)
from .consistency_bench import (
    run_figure8,
    run_table2,
)
from .faultbench import (
    FAULT_CLASSES,
    fault_recovery_errors,
    run_fault_recovery,
)
from .harness import (
    EngineLoadDriver,
    run_closed_loop,
)
from .microbenchmarks import (
    run_figure1,
    run_figure5,
    run_figure6,
    run_figure7,
)

__all__ = [
    "run_ablations",
    "run_caching_ablation",
    "run_hot_key_replication_ablation",
    "run_messaging_ablation",
    "run_scheduling_ablation",
    "run_figure9",
    "run_figure10",
    "run_figure11",
    "run_figure12",
    "run_figure8",
    "run_table2",
    "EngineLoadDriver",
    "run_closed_loop",
    "FAULT_CLASSES",
    "fault_recovery_errors",
    "run_fault_recovery",
    "run_figure1",
    "run_figure5",
    "run_figure6",
    "run_figure7",
]
