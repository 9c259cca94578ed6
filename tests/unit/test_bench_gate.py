"""Unit tests for the ``benchmarks/run_all.py`` regression gate.

CI runs ``run_all.py --quick`` on every push and fails the build when the
snapshot's invariants break.  These tests pin the gate itself: the ordering
checks flag broken payloads, and ``main`` exits nonzero when they do —
without re-running the (seconds-long) benchmark harnesses.
"""

import importlib.util
import json
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "bench_run_all", REPO_ROOT / "benchmarks" / "run_all.py")
run_all = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_all)


def test_schema_doc_states_the_version_run_all_writes():
    doc = (REPO_ROOT / "docs" / "BENCH_SCHEMA.md").read_text()
    stated = re.search(r"current\s+schema \(\*\*(\d+)\*\*\)", doc)
    assert stated, "docs/BENCH_SCHEMA.md no longer states the current schema"
    assert int(stated.group(1)) == run_all.SCHEMA_VERSION
    assert f"| {run_all.SCHEMA_VERSION} |" in doc, "no history row for it"


def _stats(median_ms: float) -> dict:
    return {"count": 8, "median_ms": median_ms, "p99_ms": median_ms * 2}


def good_figure5() -> dict:
    return {
        "driver": "engine",
        "sizes": {
            "8MB": {
                "Cloudburst (Hot)": _stats(2.0),
                "Cloudburst (Cold)": _stats(60.0),
                "Lambda (Redis)": _stats(120.0),
                "Lambda (S3)": _stats(400.0),
            },
            "80MB": {
                "Cloudburst (Hot)": _stats(50.0),
                "Cloudburst (Cold)": _stats(500.0),
                "Lambda (Redis)": _stats(1_500.0),
                "Lambda (S3)": _stats(1_200.0),
            },
        },
        "wall_seconds": 1.0,
    }


def good_figure6() -> dict:
    return {
        "driver": "engine",
        "systems": {
            "Cloudburst (gossip)": _stats(220.0),
            "Cloudburst (gather)": _stats(10.0),
            "Lambda+Redis (gather)": _stats(240.0),
            "Lambda+Dynamo (gather)": _stats(320.0),
            "Lambda+S3 (gather)": _stats(640.0),
        },
        "wall_seconds": 1.0,
    }


def good_controlplane() -> dict:
    return {
        "publish_interval_ms": 1_250.0,
        "policy_interval_ms": 2_500.0,
        "publish_ticks": 12,
        "policy_ticks": 6,
        "scale_up_events": 1,
        "threads_drained": 7,
        "migrations": 1,
        "calls_routed_to_drained": 0,
        "baseline_threads": 6,
        "peak_threads": 9,
        "final_threads": 2,
        "min_threads": 2,
    }


def good_figure7() -> dict:
    return {
        "requests_per_s": 80.0,
        "peak_requests_per_s": 150.0,
        "completed_requests": 100,
        "capacity_timeline": [[0.0, 6], [7_500.0, 9], [12_500.0, 2]],
        "initial_threads": 6,
        "clients": 8,
        "latency": _stats(60.0),
        "storage": {"nodes": 4},
        "storage_node_timeline": [],
        "controlplane": good_controlplane(),
        "wall_seconds": 1.0,
    }


def good_scaling() -> dict:
    # A healthy paper-shaped sweep: 160 threads beats 10 by 15x, clearing
    # both the fig10 (8x) and fig12 (4x) gate ratios.
    return {
        "requests_per_point": 2_000,
        "points": [
            {"threads": 10, "clients": 10, "requests_per_s": 100.0,
             "median_ms": 5.0, "p99_ms": 10.0},
            {"threads": 160, "clients": 160, "requests_per_s": 1_500.0,
             "median_ms": 5.0, "p99_ms": 10.0},
        ],
        "wall_seconds": 1.0,
    }


def good_engine_throughput() -> dict:
    return {
        "events_per_sec": 350_000.0,
        "floor_events_per_sec": 100_000.0,
        "speedup_vs_pre_pr": 2.5,
        "sim_ms_per_wall_ms": 8.0,
    }


def _fault_entry(fault: str, injected: int = 3) -> dict:
    return {
        "fault": fault,
        "requests": 200,
        "completed": 200,
        "failed": 0,
        "anomalies": {"LWW": 0, "SK": 120, "MK": 120, "DSC": 121, "DSRR": 0},
        "violations": [],
        "abandoned_sessions": 0,
        "calls_routed_to_dead": 0,
        "recovered_sessions": 4 if fault == "scheduler_crash" else 0,
        "faults": {"injected": injected, "recovered": injected,
                   "max_recovery_ms": 10.0, "recovery_bound_ms": 15.0},
    }


def good_fault_recovery() -> dict:
    classes = ("executor_kill", "storage_drop", "gossip_partition",
               "scheduler_crash")
    return {
        "seed": 14,
        "fault_classes": list(classes),
        "classes": {fault: _fault_entry(fault) for fault in classes},
        "determinism": {"fault": "executor_kill", "timeline_match": True,
                        "anomalies_match": True},
        "wall_seconds": 1.0,
    }


def good_observability() -> dict:
    return {
        "source": "figure7",
        "sample_rate": 0.05,
        "traces": 600,
        "spans": 1_000,
        "orphan_spans": 0,
        "tiers": ["anna", "cache", "client", "executor", "scheduler"],
        "span_dump": "BENCH_spans_fig7.json",
        "chrome_trace": "BENCH_trace_fig7.json",
    }


def good_payload() -> dict:
    return {
        "figure5_locality": good_figure5(),
        "figure6_aggregation": good_figure6(),
        "figure7_autoscaling": good_figure7(),
        "figure10_prediction_scaling": good_scaling(),
        "figure12_retwis_scaling": good_scaling(),
        "engine_throughput": good_engine_throughput(),
        "table2_anomalies": {"invariant_violations": []},
        "fault_recovery": good_fault_recovery(),
        "observability": good_observability(),
    }


class TestOrderingChecks:
    def test_good_payload_has_no_errors(self):
        assert run_all.collect_gate_errors(good_payload()) == []

    def test_fig5_hot_slower_than_cold_is_flagged(self):
        fig5 = good_figure5()
        fig5["sizes"]["8MB"]["Cloudburst (Hot)"] = _stats(80.0)
        errors = run_all.figure5_ordering_errors(fig5)
        assert any("Cloudburst (Hot) < Cloudburst (Cold)" in e for e in errors)

    def test_fig5_speedup_floor_is_flagged(self):
        fig5 = good_figure5()
        # Ordering intact, but the hot cache advantage collapsed below 10x.
        fig5["sizes"]["8MB"]["Cloudburst (Hot)"] = _stats(20.0)
        errors = run_all.figure5_ordering_errors(fig5)
        assert any(">10x" in e for e in errors)

    def test_fig5_s3_crossover_is_flagged(self):
        fig5 = good_figure5()
        fig5["sizes"]["80MB"]["Lambda (S3)"] = _stats(2_000.0)
        errors = run_all.figure5_ordering_errors(fig5)
        assert any("crossover" in e for e in errors)

    def test_fig6_gather_slower_than_gossip_is_flagged(self):
        fig6 = good_figure6()
        fig6["systems"]["Cloudburst (gather)"] = _stats(300.0)
        errors = run_all.figure6_ordering_errors(fig6)
        assert errors

    def test_consistency_violations_pass_through(self):
        payload = good_payload()
        payload["table2_anomalies"]["invariant_violations"] = ["LWW != 0"]
        assert "LWW != 0" in run_all.collect_gate_errors(payload)


class TestScalingAndEngineGates:
    def test_collapsed_scaling_curve_is_flagged(self):
        fig = good_scaling()
        fig["points"][1]["requests_per_s"] = 300.0  # only 3x the 10-thread point
        errors = run_all.scaling_curve_errors("fig12", fig, min_ratio=4.0)
        assert any("scaling collapsed" in e for e in errors)

    def test_missing_endpoint_is_flagged(self):
        fig = good_scaling()
        fig["points"] = fig["points"][:1]  # 160-thread point gone
        errors = run_all.scaling_curve_errors("fig10", fig, min_ratio=8.0)
        assert any("missing" in e for e in errors)

    def test_ratio_is_strict_per_figure(self):
        # 5x clears fig12's 4x bar but not fig10's 8x bar.
        fig = good_scaling()
        fig["points"][1]["requests_per_s"] = 500.0
        assert run_all.scaling_curve_errors("fig12", fig, min_ratio=4.0) == []
        assert run_all.scaling_curve_errors("fig10", fig, min_ratio=8.0)

    def test_engine_below_floor_is_flagged(self):
        payload = good_payload()
        payload["engine_throughput"]["events_per_sec"] = 50_000.0
        errors = run_all.collect_gate_errors(payload)
        assert any("fell below the" in e for e in errors)


class TestFaultRecoveryGate:
    def test_good_section_has_no_errors(self):
        assert run_all.fault_recovery_errors(good_fault_recovery()) == []

    def test_missing_section_is_flagged(self):
        assert run_all.fault_recovery_errors({}) == [
            "fault_recovery: section missing"]

    def test_missing_class_is_flagged(self):
        section = good_fault_recovery()
        del section["classes"]["storage_drop"]
        errors = run_all.fault_recovery_errors(section)
        assert "fault_recovery[storage_drop]: class was not run" in errors

    def test_abandoned_sessions_are_flagged(self):
        section = good_fault_recovery()
        section["classes"]["scheduler_crash"]["abandoned_sessions"] = 2
        errors = run_all.fault_recovery_errors(section)
        assert any("abandoned" in e for e in errors)

    def test_calls_to_dead_threads_are_flagged(self):
        section = good_fault_recovery()
        section["classes"]["executor_kill"]["calls_routed_to_dead"] = 1
        errors = run_all.fault_recovery_errors(section)
        assert any("dead or drained" in e for e in errors)

    def test_unrecovered_fault_is_flagged(self):
        section = good_fault_recovery()
        section["classes"]["gossip_partition"]["faults"]["recovered"] = 2
        errors = run_all.fault_recovery_errors(section)
        assert any("injected but" in e for e in errors)

    def test_recovery_over_bound_is_flagged(self):
        section = good_fault_recovery()
        section["classes"]["executor_kill"]["faults"]["max_recovery_ms"] = 99.0
        errors = run_all.fault_recovery_errors(section)
        assert any("over the" in e for e in errors)

    def test_vacuous_run_is_flagged(self):
        # A schedule that never fires must fail the gate, not silently pass.
        section = good_fault_recovery()
        section["classes"]["executor_kill"]["faults"].update(
            injected=0, recovered=0)
        errors = run_all.fault_recovery_errors(section)
        assert any("never exercised" in e for e in errors)

    def test_crash_without_journal_recovery_is_flagged(self):
        section = good_fault_recovery()
        section["classes"]["scheduler_crash"]["recovered_sessions"] = 0
        errors = run_all.fault_recovery_errors(section)
        assert any("recovered from the journal" in e for e in errors)

    def test_nondeterministic_timeline_is_flagged(self):
        section = good_fault_recovery()
        section["determinism"]["timeline_match"] = False
        errors = run_all.fault_recovery_errors(section)
        assert any("seed-deterministic" in e for e in errors)

    def test_anomaly_violations_pass_through(self):
        section = good_fault_recovery()
        section["classes"]["executor_kill"]["violations"] = ["LWW != 0"]
        errors = run_all.fault_recovery_errors(section)
        assert "fault_recovery[executor_kill]: LWW != 0" in errors


class TestObservabilityGate:
    def test_good_section_has_no_errors(self):
        assert run_all.observability_errors(good_observability()) == []

    def test_traceless_run_is_flagged(self):
        section = good_observability()
        section["traces"] = 0
        errors = run_all.observability_errors(section)
        assert any("no traces" in e for e in errors)

    def test_orphan_spans_are_flagged(self):
        section = good_observability()
        section["orphan_spans"] = 2
        errors = run_all.observability_errors(section)
        assert any("orphan" in e for e in errors)

    def test_missing_tier_is_flagged(self):
        section = good_observability()
        section["tiers"] = ["client", "scheduler", "executor"]
        errors = run_all.observability_errors(section)
        assert any("anna" in e and "cache" in e for e in errors)


class TestControlPlaneChecks:
    def test_good_controlplane_has_no_errors(self):
        assert run_all.figure7_controlplane_errors(good_figure7()) == []

    def test_missing_section_is_flagged(self):
        fig7 = good_figure7()
        fig7["controlplane"] = None
        errors = run_all.figure7_controlplane_errors(fig7)
        assert any("missing" in e for e in errors)

    def test_no_scale_up_is_flagged(self):
        fig7 = good_figure7()
        fig7["controlplane"]["peak_threads"] = 6
        errors = run_all.figure7_controlplane_errors(fig7)
        assert any("never scaled up" in e for e in errors)

    def test_no_drain_back_to_baseline_is_flagged(self):
        fig7 = good_figure7()
        fig7["controlplane"]["final_threads"] = 9
        errors = run_all.figure7_controlplane_errors(fig7)
        assert any("did not return to baseline" in e for e in errors)

    def test_missing_pin_migration_is_flagged(self):
        fig7 = good_figure7()
        fig7["controlplane"]["migrations"] = 0
        errors = run_all.figure7_controlplane_errors(fig7)
        assert any("pin migration" in e for e in errors)

    def test_calls_to_drained_threads_are_flagged(self):
        fig7 = good_figure7()
        fig7["controlplane"]["calls_routed_to_drained"] = 3
        errors = run_all.figure7_controlplane_errors(fig7)
        assert any("drained executor threads" in e for e in errors)


class TestMainExitCode:
    def _canned_sections(self, monkeypatch, fig5: dict, violations=()):
        table2 = {"invariant_violations": list(violations),
                  "anomalies": {"LWW": 0}, "executions": 800,
                  "clients": 8, "propagation_interval_ms": 50.0,
                  "multi_key_additional": 0,
                  "distributed_session_additional": 0, "wall_seconds": 1.0}
        fig7 = good_figure7()
        scaling = good_scaling()
        fig8 = {"levels": {"LWW": _stats(2.0)}, "metadata_overhead_bytes": {},
                "clients": 4, "propagation_interval_ms": 50.0,
                "wall_seconds": 1.0}
        monkeypatch.setattr(run_all, "run_engine_micro",
                            lambda *a, **k: good_engine_throughput())
        monkeypatch.setattr(run_all, "snapshot_figure5", lambda *a, **k: fig5)
        monkeypatch.setattr(run_all, "snapshot_figure6",
                            lambda *a, **k: good_figure6())
        monkeypatch.setattr(run_all, "snapshot_figure7", lambda *a, **k: fig7)
        monkeypatch.setattr(run_all, "snapshot_scaling", lambda *a, **k: scaling)
        monkeypatch.setattr(run_all, "snapshot_figure8", lambda *a, **k: fig8)
        monkeypatch.setattr(run_all, "snapshot_table2", lambda *a, **k: table2)
        monkeypatch.setattr(run_all, "snapshot_fault_recovery",
                            lambda *a, **k: good_fault_recovery())
        # The canned figure 7 never drives the tracer, so the real
        # snapshot_observability would (rightly) report a traceless run.
        monkeypatch.setattr(run_all, "snapshot_observability",
                            lambda *a, **k: good_observability())

    def test_quick_run_exits_zero_when_gates_hold(self, monkeypatch, tmp_path):
        self._canned_sections(monkeypatch, good_figure5())
        output = tmp_path / "bench.json"
        assert run_all.main(["--quick", "--no-ledger",
                             "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        assert payload["bench_gate_ok"] is True
        assert payload["scale"] == "quick"

    def test_quick_run_exits_nonzero_on_ordering_breakage(self, monkeypatch,
                                                          tmp_path):
        broken = good_figure5()
        broken["sizes"]["8MB"]["Cloudburst (Hot)"] = _stats(500.0)
        self._canned_sections(monkeypatch, broken)
        output = tmp_path / "bench.json"
        assert run_all.main(["--quick", "--no-ledger",
                             "--output", str(output)]) == 1
        # The snapshot is still written (CI uploads it as an artifact even
        # when the gate fails), with the failure recorded in the payload.
        payload = json.loads(output.read_text())
        assert payload["bench_gate_ok"] is False

    def test_quick_run_exits_nonzero_on_consistency_breakage(self, monkeypatch,
                                                             tmp_path):
        self._canned_sections(monkeypatch, good_figure5(),
                              violations=["SK > MK cumulative"])
        output = tmp_path / "bench.json"
        assert run_all.main(["--quick", "--no-ledger",
                             "--output", str(output)]) == 1


class TestMainLedgerGate:
    """The ledger trend gate as wired into ``run_all.main``."""

    _canned_sections = TestMainExitCode._canned_sections

    def test_fresh_ledger_records_run_and_passes(self, monkeypatch, tmp_path):
        self._canned_sections(monkeypatch, good_figure5())
        output = tmp_path / "bench.json"
        ledger = tmp_path / "ledger.sqlite"
        assert run_all.main(["--quick", "--output", str(output),
                             "--ledger", str(ledger),
                             "--ledger-seed", str(tmp_path / "missing.json")]) == 0
        payload = json.loads(output.read_text())
        assert payload["ledger"]["ledger_ok"] is True
        assert payload["ledger"]["trend_gate_ok"] is True
        assert payload["ledger"]["runs_recorded"] == 1
        assert ledger.exists()

    def test_default_ledger_lands_next_to_output(self, monkeypatch, tmp_path):
        self._canned_sections(monkeypatch, good_figure5())
        output = tmp_path / "bench.json"
        assert run_all.main(["--quick", "--output", str(output),
                             "--ledger-seed",
                             str(tmp_path / "missing.json")]) == 0
        assert (tmp_path / "bench_ledger.sqlite").exists()

    def test_trend_regression_fails_the_gate(self, monkeypatch, tmp_path):
        # Build history at a high throughput, then regress fig10/fig12 far
        # below 85% of the recorded median: main must exit nonzero.
        self._canned_sections(monkeypatch, good_figure5())
        output = tmp_path / "bench.json"
        ledger = tmp_path / "ledger.sqlite"
        seed = str(tmp_path / "missing.json")
        common = ["--quick", "--output", str(output), "--ledger", str(ledger),
                  "--ledger-seed", seed]
        assert run_all.main(common) == 0
        assert run_all.main(common) == 0

        regressed = good_scaling()
        regressed["points"][1]["requests_per_s"] = 900.0  # 9x: fixed gates hold
        monkeypatch.setattr(run_all, "snapshot_scaling",
                            lambda *a, **k: regressed)
        assert run_all.main(common) == 1
        payload = json.loads(output.read_text())
        assert payload["ledger"]["trend_gate_ok"] is False
        assert any("below the median" in e for e in payload["gate_errors"])
