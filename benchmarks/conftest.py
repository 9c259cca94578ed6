"""Shared configuration for the benchmark harness.

``bench_figures.py`` regenerates every table and figure of the paper's §6 at
full scale.  The experiments are deterministic (seeded virtual-time
simulations), so a single round per benchmark is sufficient; pytest-benchmark
is used for orchestration and for reporting each experiment's harness
runtime.

Run with::

    pytest benchmarks/ --benchmark-only
"""

import pytest


@pytest.fixture
def bench_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark's timer."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner


def emit(title: str, body: str) -> None:
    """Print an experiment's result table into the captured benchmark log."""
    print(f"\n{'=' * 78}\n{title}\n{'=' * 78}\n{body}\n")
