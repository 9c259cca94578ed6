"""Every registry entry at ``smoke`` scale, gated by the same clauses as CI.

``repro.bench.figures`` declares each experiment once — budgets per scale,
gate, table; each run returns its own sections.  Here every entry runs at its ``smoke``
budget with ``SMOKE_SEED`` and must pass its gate at that scale; the
assertions are orderings ("who wins") and ratios rather than absolute
numbers.  The determinism and one-client checks below are not gates of any
single snapshot section, so they stay as tests of their own.
"""

import json

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
    for name in figure.files:
        assert (tmp_path / name).is_file(), name


class TestFaultJournals:
    def test_journals_are_written_beside_the_snapshot_not_into_it(self, tmp_path):
        figure = next(f for f in FIGURES if f.sections == ("fault_recovery",))
        classes = figure.record("smoke", SMOKE_SEED, tmp_path)["fault_recovery"]["classes"]
        assert all("journals" not in entry for entry in classes.values())
        journals = json.loads((tmp_path / "BENCH_fault_journals.json").read_text())
        assert sorted(journals) == sorted(classes)
        for fault, per_scheduler in journals.items():
            assert per_scheduler, fault
            # Every journaled session reached a terminal state.
            assert all(journal["counts"]["running"] == 0 for journal in per_scheduler)


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
        assert run_figure7(**kwargs) == run_figure7(**kwargs)


class TestConsistencyExperiments:
    def test_table2_one_client_agrees_qualitatively(self):
        # One closed-loop client (the sequential run): weaker contention —
        # the anomalies come from propagation staleness alone — but the same
        # qualitative ordering must hold.
        section = run_table2(executions=400, dag_count=25, populated_keys=200,
                             executor_vms=3, clients=1,
                             propagation_interval_ms=50.0, seed=1)["table2_anomalies"]
        assert section["invariant_violations"] == []
        assert section["executions"] == 400

    def test_figure8_same_seed_replays(self):
        kwargs = dict(requests_per_level=60, dag_count=15, populated_keys=120,
                      executor_vms=3, seed=5)
        assert run_figure8(**kwargs) == run_figure8(**kwargs)
