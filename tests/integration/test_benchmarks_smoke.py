"""Every registry entry at ``smoke`` scale, gated by the same clauses as CI.

``repro.bench.figures`` declares each experiment once — budgets per scale,
section builder, gate, table.  Here every entry runs at its ``smoke``
budget with ``SMOKE_SEED`` and must pass its gate at that scale; the
assertions are orderings ("who wins") and ratios rather than absolute
numbers.  The determinism and one-client checks below are not gates of any
single snapshot section, so they stay as tests of their own.
"""

import pytest

from repro.bench import run_figure7, run_figure8, run_table2
from repro.bench.figures import FIGURES, SMOKE_SEED
from repro.cloudburst.monitoring import MonitoringConfig


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.sections[0])
def test_gate_holds_at_smoke_scale(figure, tmp_path):
    sections = figure.record("smoke", SMOKE_SEED, tmp_path)
    assert sorted(sections) == sorted(figure.sections)
    assert figure.table(sections)
    assert figure.errors(sections, "smoke") == []


class TestFigure7Shape:
    def test_seeded_run_is_deterministic(self):
        # The acceptance bar for the engine refactor: two invocations of the
        # same seeded experiment replay the identical event order.
        kwargs = dict(initial_threads=6, client_count=8,
                      load_duration_s=10.0, total_duration_s=15.0,
                      policy_interval_ms=2_500.0,
                      monitoring_config=MonitoringConfig(
                          vms_per_scale_up=1, node_startup_delay_ms=5_000.0,
                          max_vms=6),
                      seed=3)
        first = run_figure7(**kwargs)
        second = run_figure7(**kwargs)
        assert first.simulation.latencies.samples_ms == \
            second.simulation.latencies.samples_ms
        assert first.simulation.capacity_timeline == \
            second.simulation.capacity_timeline


class TestConsistencyExperiments:
    def test_table2_one_client_agrees_qualitatively(self):
        # One closed-loop client (the sequential run): weaker contention —
        # the anomalies come from propagation staleness alone — but the same
        # qualitative ordering must hold.
        report = run_table2(executions=400, dag_count=25, populated_keys=200,
                            executor_vms=3, clients=1,
                            propagation_interval_ms=50.0, seed=1)
        assert report.invariant_violations() == []
        assert report.executions == 400

    def test_figure8_same_seed_replays(self):
        kwargs = dict(requests_per_level=60, dag_count=15, populated_keys=120,
                      executor_vms=3, seed=5)
        first = run_figure8(**kwargs)
        second = run_figure8(**kwargs)
        for label, recorder in first.comparison.recorders.items():
            assert second.comparison.recorders[label].samples_ms == \
                recorder.samples_ms, label
        assert first.metadata_overhead == second.metadata_overhead
