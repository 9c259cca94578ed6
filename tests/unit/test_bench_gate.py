"""Unit tests for the bench gate: the registry's clauses and ``run_all.main``.

CI runs ``benchmarks/run_all.py --quick`` on every push and fails the build
when the snapshot's gates break.  Every gate lives in the figure registry
(``repro.bench.figures``); these tests pin it without running a harness:
a canned payload passes every gate at every scale, each breakage case below
fails exactly the clause it names (so deleting any clause fails a test),
and ``main`` exits nonzero when a gate fails.
"""

import ast
import copy
import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.bench import figures
from repro.bench.figures import FIGURES, SCALES, gate_errors

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "bench_run_all", REPO_ROOT / "benchmarks" / "run_all.py")
run_all = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_all)
_SCHEMA_DOC = (REPO_ROOT / "docs" / "BENCH_SCHEMA.md").read_text()
SECTIONS = [name for figure in FIGURES for name in figure.sections]


def test_schema_doc_states_the_version_run_all_writes():
    stated = re.search(r"current\s+schema \(\*\*(\d+)\*\*\)", _SCHEMA_DOC)
    assert stated, "docs/BENCH_SCHEMA.md no longer states the current schema"
    assert int(stated.group(1)) == run_all.SCHEMA_VERSION
    assert f"| {run_all.SCHEMA_VERSION} |" in _SCHEMA_DOC, "no history row for it"


class TestOneDeclaration:
    def test_run_all_declares_no_section_or_gate(self):
        tree = ast.parse((REPO_ROOT / "benchmarks" / "run_all.py").read_text())
        names = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        assert names == ["main"]

    def test_one_bench_wrapper_outside_perf(self):
        assert sorted(p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")) == [
            "bench_figures.py"]

    def test_the_fault_matrix_is_a_registry_entry(self):
        # Its CI run and journal dump are the fault_recovery entry's record.
        assert not (REPO_ROOT / "benchmarks" / "run_fault_matrix.py").exists()

    def test_registry_sections_are_the_documented_sections(self):
        history = _SCHEMA_DOC.index("## Schema version history")
        headings = re.findall(r"^## (.+)$", _SCHEMA_DOC[:history], flags=re.MULTILINE)
        documented = {name for heading in headings for name in re.findall(r"`(\w+)`", heading)}
        # The ledger section is run_all's own bookkeeping, not a figure.
        assert sorted(documented - {"ledger"}) == sorted(SECTIONS)
        assert len(set(SECTIONS)) == len(SECTIONS)

    def test_unknown_scale_is_rejected(self):
        with pytest.raises(ValueError):
            FIGURES[0].kwargs("huge")


class TestRecord:
    """``Figure.record`` with each entry's run replaced by one that echoes its call."""

    @pytest.mark.parametrize("figure", FIGURES, ids=[f.sections[0] for f in FIGURES])
    def test_record_returns_the_run_sections_with_wall_seconds_on_the_first(
            self, figure, tmp_path):
        calls = []

        def run(seed, **kwargs):
            calls.append((seed, kwargs))
            return {name: {"name": name} for name in figure.sections}

        sections = dataclasses.replace(figure, run=run).record("smoke", 3, tmp_path)
        assert list(sections) == list(figure.sections)
        first, *rest = figure.sections
        assert set(sections[first]) == {"name", "wall_seconds"}
        assert all(sections[name] == {"name": name} for name in rest)
        expected = figure.kwargs("smoke")
        if figure.files:
            expected["out_dir"] = tmp_path
        assert calls == [(3, expected)]


def _stats(median_ms: float, p99_ms: float = None) -> dict:
    return {"count": 8, "median_ms": median_ms,
            "p99_ms": median_ms * 2 if p99_ms is None else p99_ms}


def _point(threads: int, rps: float, median_ms: float) -> dict:
    return {"threads": threads, "clients": threads, "requests_per_s": rps,
            "median_ms": median_ms, "p99_ms": median_ms * 2}


def good_controlplane() -> dict:
    return {"publish_interval_ms": 1_250.0, "policy_interval_ms": 2_500.0,
            "publish_ticks": 12, "policy_ticks": 6, "scale_up_events": 1,
            "threads_drained": 7, "migrations": 1, "calls_routed_to_drained": 0,
            "baseline_threads": 6, "peak_threads": 12, "final_threads": 2,
            "min_threads": 2}


def good_engine_throughput() -> dict:
    return {
        "events_per_sec": 350_000.0, "floor_events_per_sec": 100_000.0,
        "sim_ms_per_wall_ms": 8.0,
        "multi_get_keys_per_sec": 50_000.0, "multi_get_floor_keys_per_sec": 5_000.0,
        "multi_get_overlap_ratio": 20.0, "multi_get_min_overlap_ratio": 8.0,
        "tracing_overhead_pct": 1.0, "tracing_overhead_max_pct": 10.0,
        "scenarios": {"charge_log": {"checksum": 12.5},
                      "charge_log_unlogged": {"checksum": 12.5},
                      "tracing_overhead": {"spans_created": 0.0}},
    }


def _fault_entry(fault: str, injected: int = 3) -> dict:
    return {
        "fault": fault, "requests": 200, "completed": 200, "failed": 0,
        "anomalies": {"LWW": 0, "SK": 120, "MK": 120, "DSC": 121, "DSRR": 0},
        "violations": [], "abandoned_sessions": 0, "calls_routed_to_dead": 0,
        "recovered_sessions": 4 if fault == "scheduler_crash" else 0,
        "faults": {"injected": injected, "recovered": injected,
                   "max_recovery_ms": 10.0, "recovery_bound_ms": 15.0},
    }


def good_fault_recovery() -> dict:
    classes = ("executor_kill", "storage_drop", "gossip_partition", "scheduler_crash")
    durable_entry = {**_fault_entry("storage_drop"),
                     "durable": {"enabled": True, "crashes": 3, "cold_keys_at_crash": 300,
                                 "cold_keys_recovered": 300}}
    return {"seed": 14, "fault_classes": list(classes),
            "classes": {fault: _fault_entry(fault) for fault in classes},
            "determinism": {"fault": "executor_kill", "timeline_match": True,
                            "anomalies_match": True},
            "durable_storage_drop": {
                "seed": 14, "fault_classes": ["storage_drop"], "durable": True,
                "classes": {"storage_drop": durable_entry},
                "determinism": {"fault": "storage_drop", "timeline_match": True,
                                "anomalies_match": True}},
            "wall_seconds": 1.0}


def good_payload(scale: str = "quick") -> dict:
    """One snapshot that passes every registry gate at ``scale``."""
    executions = next(f for f in FIGURES if "table2_anomalies" in f.sections
                      ).kwargs(scale)["executions"]
    return {
        "figure1_composition": {"systems": {
            "Cloudburst": _stats(2.0), "Dask": _stats(2.5), "SAND": _stats(20.0),
            "Lambda": _stats(30.0), "Lambda + Dynamo": _stats(60.0),
            "Lambda + S3": _stats(100.0), "Step Functions": _stats(300.0)}},
        "figure5_locality": {"driver": "engine", "sizes": {
            "8MB": {"Cloudburst (Hot)": _stats(2.0), "Cloudburst (Cold)": _stats(60.0),
                    "Lambda (Redis)": _stats(120.0), "Lambda (S3)": _stats(400.0)},
            "80MB": {"Cloudburst (Hot)": _stats(50.0), "Cloudburst (Cold)": _stats(500.0),
                     "Lambda (Redis)": _stats(1_500.0), "Lambda (S3)": _stats(1_200.0)}}},
        "figure6_aggregation": {"driver": "engine", "systems": {
            "Cloudburst (gossip)": _stats(220.0), "Cloudburst (gather)": _stats(10.0),
            "Lambda+Redis (gather)": _stats(240.0), "Lambda+Dynamo (gather)": _stats(320.0),
            "Lambda+S3 (gather)": _stats(640.0)}},
        "figure7_autoscaling": {
            "initial_threads": 6, "peak_requests_per_s": 200.0,
            "capacity_timeline": [[0.0, 6], [7_500.0, 9], [12_500.0, 12], [15_000.0, 2]],
            # ~6 threads / 54 ms at both probe minutes (6 s and 15 s).
            "throughput_curve": [[0.0, 111.0, 6], [6.0, 111.0, 6], [15.0, 111.0, 9],
                                 [20.0, 200.0, 12]],
            "index_overhead": {"median_bytes": 24.0, "p99_bytes": 96.0,
                               "max_bytes": 192.0, "tracked_keys": 700},
            "controlplane": good_controlplane()},
        "observability": {"source": "figure7", "sample_rate": 0.05, "traces": 600,
                          "spans": 1_000, "orphan_spans": 0, "unfinished_spans": 0,
                          "tiers": ["anna", "cache", "client", "executor", "scheduler"]},
        "figure8_consistency": {
            "levels": {"LWW": _stats(1.4, 2.5), "SK": _stats(1.4, 2.3),
                       "MK": _stats(1.7, 2.8), "DSC": _stats(1.8, 3.3),
                       "DSRR": _stats(1.5, 2.6)},
            "metadata_overhead_bytes": {"DSC": {"median": 16.0, "p99": 600.0}}},
        "figure9_prediction": {"systems": {
            "Python": _stats(100.0), "Cloudburst": _stats(115.0),
            "AWS Sagemaker": _stats(180.0), "Lambda (Mock)": _stats(300.0),
            "Lambda (Actual)": _stats(1_100.0)}},
        "figure10_prediction_scaling": {"points": [
            _point(10, 100.0, 200.0), _point(12, 120.0, 202.0), _point(48, 480.0, 205.0),
            _point(160, 1_500.0, 210.0)]},
        "figure11_retwis": {
            "systems": {"Redis": _stats(3.7), "Cloudburst (LWW)": _stats(4.4),
                        "Cloudburst (Causal)": _stats(4.6)},
            "anomaly_rate": {"Cloudburst (LWW)": 0.3, "Cloudburst (Causal)": 0.0}},
        "figure12_retwis_scaling": {"points": [
            _point(10, 100.0, 5.0), _point(40, 300.0, 5.2), _point(160, 1_500.0, 6.4)]},
        "table2_anomalies": {"invariant_violations": [], "executions": executions},
        "ablations": {
            "scheduling": {"systems": {"Locality scheduling": _stats(2.0),
                                       "Random placement": _stats(2.5)},
                           "hit_rate": {"Locality scheduling": 0.9,
                                        "Random placement": 0.3}},
            "caching": {"systems": {"Caches enabled": _stats(2.3),
                                    "Caches disabled": _stats(6.8)}},
            "hot_key_replication": {"caches_with_hot_key": {"backpressure": 6,
                                                            "no_backpressure": 1},
                                    "total_caches": 6},
            "messaging": {"systems": {"Direct TCP": _stats(0.6),
                                      "Anna inbox fallback": _stats(2.0)}}},
        "fault_recovery": good_fault_recovery(),
        "engine_throughput": good_engine_throughput(),
    }


@pytest.mark.parametrize("scale", SCALES)
def test_good_payload_passes_every_gate(scale):
    assert gate_errors(good_payload(scale), scale) == []


def _fig7_capacities(*capacities):
    return ("figure7_autoscaling", "capacity_timeline"), [
        [index * 5_000.0, capacity] for index, capacity in enumerate(capacities)]


#: (scale, path to the leaf, new value or "<deleted>", text of the error it
#: must raise) — one case per gate clause.
BREAKAGES = [
    ("quick", ("figure1_composition", "systems", "Lambda", "median_ms"), 1.0,
     "fig1: expected Cloudburst < Lambda"),
    ("quick", ("figure1_composition", "systems", "SAND", "median_ms"), 1.0,
     "fig1: expected Cloudburst < SAND"),
    ("quick", ("figure1_composition", "systems", "Lambda + Dynamo", "median_ms"), 25.0,
     "fig1: expected Lambda < Lambda + Dynamo"),
    ("quick", ("figure1_composition", "systems", "Lambda + S3", "median_ms"), 50.0,
     "fig1: expected Lambda + Dynamo < Lambda + S3"),
    ("quick", ("figure1_composition", "systems", "Step Functions", "median_ms"), 90.0,
     "fig1: expected Lambda + S3 < Step Functions"),
    ("quick", ("figure1_composition", "systems", "Dask", "median_ms"), 6.0,
     "within 0.4x-3x of Dask"),
    ("quick", ("figure1_composition", "systems", "Dask", "median_ms"), 0.8,
     "within 0.4x-3x of Dask"),
    ("quick", ("figure1_composition", "systems", "Cloudburst", "median_ms"), 16.0,
     "Cloudburst >20x faster than Step Functions"),
    ("quick", ("figure5_locality", "sizes", "8MB", "Cloudburst (Hot)", "median_ms"), 80.0,
     "fig5@8MB: expected Cloudburst (Hot) < Cloudburst (Cold)"),
    ("quick", ("figure5_locality", "sizes", "8MB", "Cloudburst (Cold)", "median_ms"), 130.0,
     "fig5@8MB: expected Cloudburst (Cold) < Lambda (Redis)"),
    ("quick", ("figure5_locality", "sizes", "8MB", "Lambda (S3)", "median_ms"), 100.0,
     "fig5@8MB: expected Lambda (Redis) < Lambda (S3)"),
    ("quick", ("figure5_locality", "sizes", "8MB", "Cloudburst (Hot)", "median_ms"), 20.0,
     "fig5@8MB: expected Cloudburst (Hot) >10x"),
    ("quick", ("figure5_locality", "sizes", "80MB", "Lambda (S3)", "median_ms"), 2_000.0,
     "crossover"),
    ("quick", ("figure5_locality", "sizes", "80MB", "Cloudburst (Hot)", "median_ms"), 200.0,
     "fig5@80MB: expected Cloudburst (Hot) >4x"),
    ("quick", ("figure6_aggregation", "systems", "Cloudburst (gather)", "median_ms"), 230.0,
     "fig6: expected Cloudburst (gather) < Cloudburst (gossip)"),
    ("quick", ("figure6_aggregation", "systems", "Cloudburst (gossip)", "median_ms"), 330.0,
     "fig6: expected Cloudburst (gossip) < Lambda+Dynamo (gather)"),
    ("quick", ("figure6_aggregation", "systems", "Lambda+S3 (gather)", "median_ms"), 200.0,
     "fig6: expected Lambda+Redis (gather) < Lambda+S3 (gather)"),
    ("quick", ("figure6_aggregation", "systems", "Cloudburst (gather)", "median_ms"), 60.0,
     ">5x faster than Lambda+Redis (gather)"),
    ("quick", ("figure7_autoscaling", "throughput_curve"),
     [[0.0, 70.0, 6], [6.0, 70.0, 6], [20.0, 200.0, 12]], "initial plateau"),
    ("smoke", ("figure7_autoscaling", "throughput_curve"),
     [[0.0, 155.0, 6], [6.0, 155.0, 6], [20.0, 240.0, 12]], "initial plateau"),
    # Full probes minute 0.25 (15 s), not 0.1: a sag at 15 s fails there only.
    ("full", ("figure7_autoscaling", "throughput_curve"),
     [[0.0, 111.0, 6], [6.0, 111.0, 6], [15.0, 60.0, 6], [20.0, 200.0, 12]],
     "initial plateau at minute 0.25"),
    ("reduced", ("figure7_autoscaling", "peak_requests_per_s"), 160.0,
     "peak throughput >1.5x"),
    ("quick", ("figure7_autoscaling", "peak_requests_per_s"), 140.0,
     "peak throughput >1.3x"),
    ("quick", *_fig7_capacities(9, 12, 2), "capacity to start at the initial threads"),
    ("quick", *_fig7_capacities(6, 9, 11, 2), "capacity to reach twice"),
    ("quick", *_fig7_capacities(6, 12, 3), "capacity to drain to 2 threads"),
    ("quick", ("figure7_autoscaling", "index_overhead", "tracked_keys"), 0, "cache index"),
    ("quick", ("figure7_autoscaling", "controlplane"), None, "control-plane section"),
    ("quick", ("figure7_autoscaling", "controlplane", "peak_threads"), 6,
     "scale up under load"),
    ("quick", ("figure7_autoscaling", "controlplane", "final_threads"), 9,
     "return to baseline"),
    ("quick", ("figure7_autoscaling", "controlplane", "migrations"), 0, "pin migration"),
    ("quick", ("figure7_autoscaling", "controlplane", "calls_routed_to_drained"), 3,
     "drained executor threads"),
    ("quick", ("observability", "traces"), 0, "produce traces"),
    ("quick", ("observability", "orphan_spans"), 2, "orphan"),
    ("quick", ("observability", "unfinished_spans"), 1, "no unfinished span"),
    ("quick", ("observability", "tiers"), ["client", "scheduler", "executor"],
     "spans on every tier (missing ['anna', 'cache'])"),
    ("quick", ("figure8_consistency", "levels", "DSC", "median_ms"), 5.0,
     "medians within 3x"),
    ("quick", ("figure8_consistency", "levels", "DSC", "p99_ms"), 2.0,
     "DSC p99 > LWW p99"),
    ("quick", ("figure8_consistency", "levels", "MK", "p99_ms"), 1.0,
     "MK p99 >= 0.8x SK p99"),
    ("quick", ("figure8_consistency", "metadata_overhead_bytes", "DSC", "p99"), 10.0,
     "DSC metadata p99 >= its median"),
    ("quick", ("figure9_prediction", "systems", "Python", "median_ms"), 120.0,
     "fig9: expected Python <= Cloudburst"),
    ("quick", ("figure9_prediction", "systems", "Python", "median_ms"), 70.0,
     "within 1.5x of Python"),
    ("quick", ("figure9_prediction", "systems", "AWS Sagemaker", "median_ms"), 110.0,
     "fig9: expected Cloudburst < AWS Sagemaker"),
    ("quick", ("figure9_prediction", "systems", "Lambda (Actual)", "median_ms"), 110.0,
     "fig9: expected Cloudburst < Lambda (Actual)"),
    ("quick", ("figure9_prediction", "systems", "Lambda (Mock)", "median_ms"), 1_200.0,
     "fig9: expected Lambda (Mock) < Lambda (Actual)"),
    ("quick", ("figure10_prediction_scaling", "points", 3, "requests_per_s"), 700.0,
     "fig10: 160 threads gives 700.0 req/s, not >8.0x"),
    ("smoke", ("figure10_prediction_scaling", "points", 2, "requests_per_s"), 240.0,
     "fig10: 48 threads gives 240.0 req/s, not >2.5x"),
    ("quick", ("figure10_prediction_scaling", "points", 3, "median_ms"), 520.0,
     "fig10: expected medians within 2.5x"),
    ("smoke", ("figure10_prediction_scaling", "points", 3, "median_ms"), 310.0,
     "fig10: expected medians within 1.5x"),
    ("quick", ("figure11_retwis", "systems", "Redis", "median_ms"), 4.5,
     "fig11: expected Redis < Cloudburst (LWW)"),
    ("quick", ("figure11_retwis", "systems", "Cloudburst (LWW)", "median_ms"), 7.0,
     "<= 1.5x Cloudburst (Causal)"),
    ("quick", ("figure11_retwis", "anomaly_rate", "Cloudburst (Causal)"), 0.3,
     "prevent anomalies"),
    ("quick", ("figure12_retwis_scaling", "points", 2, "requests_per_s"), 550.0,
     "fig12: 160 threads gives 550.0 req/s, not >6.0x"),
    ("quick", ("figure12_retwis_scaling", "points", 1, "requests_per_s"), 190.0,
     "fig12: 40 threads gives 190.0 req/s, not >2.0x"),
    ("smoke", ("figure12_retwis_scaling", "points", 1, "requests_per_s"), 210.0,
     "fig12: 40 threads gives 210.0 req/s, not >2.2x"),
    ("quick", ("figure12_retwis_scaling", "points", 2, "median_ms"), 18.0,
     "fig12: expected medians within 3.5x"),
    ("quick", ("table2_anomalies", "invariant_violations"), ["LWW != 0"], "LWW != 0"),
    ("quick", ("table2_anomalies", "executions"), 799, "800 executions counted"),
    ("quick", ("ablations", "scheduling", "hit_rate", "Locality scheduling"), 0.1,
     "hit the cache more"),
    ("quick", ("ablations", "scheduling", "systems", "Locality scheduling", "median_ms"), 3.0,
     "no slower than random placement"),
    ("quick", ("ablations", "hot_key_replication", "caches_with_hot_key", "backpressure"), 0,
     "replicate the hot key"),
    ("quick", ("ablations", "caching", "systems", "Caches enabled", "median_ms"), 7.0,
     "Caches enabled < Caches disabled"),
    ("quick", ("ablations", "messaging", "systems", "Direct TCP", "median_ms"), 3.0,
     "Direct TCP < Anna inbox fallback"),
    ("quick", ("fault_recovery",), {}, "fault_recovery: section missing"),
    ("quick", ("fault_recovery", "classes", "storage_drop"), "<deleted>",
     "fault_recovery[storage_drop]: class was not run"),
    ("quick", ("fault_recovery", "classes", "executor_kill", "violations"), ["LWW != 0"],
     "fault_recovery[executor_kill]: LWW != 0"),
    ("quick", ("fault_recovery", "classes", "storage_drop", "completed"), 0,
     "no request completed"),
    ("quick", ("fault_recovery", "classes", "scheduler_crash", "abandoned_sessions"), 2,
     "abandoned"),
    ("quick", ("fault_recovery", "classes", "executor_kill", "calls_routed_to_dead"), 1,
     "dead or drained"),
    ("quick", ("fault_recovery", "classes", "executor_kill", "faults"),
     {"injected": 0, "recovered": 0, "max_recovery_ms": 0.0, "recovery_bound_ms": 15.0},
     "never exercised"),
    ("quick", ("fault_recovery", "classes", "gossip_partition", "faults", "recovered"), 2,
     "injected but"),
    ("quick", ("fault_recovery", "classes", "executor_kill", "faults", "max_recovery_ms"),
     99.0, "over the"),
    ("quick", ("fault_recovery", "classes", "scheduler_crash", "recovered_sessions"), 0,
     "recovered from the journal"),
    ("quick", ("fault_recovery", "classes", "storage_drop", "durable"),
     {"enabled": True, "cold_keys_at_crash": 5, "cold_keys_recovered": 4, "crashes": 1},
     "lost demoted keys"),
    ("quick", ("fault_recovery", "classes", "storage_drop", "durable"),
     {"enabled": True, "cold_keys_at_crash": 0, "cold_keys_recovered": 0, "crashes": 1},
     "empty cold set"),
    ("quick", ("fault_recovery", "durable_storage_drop"), "<deleted>",
     "durable_storage_drop: fault_recovery: section missing"),
    ("quick", ("fault_recovery", "durable_storage_drop", "classes", "storage_drop", "durable",
               "cold_keys_recovered"), 299,
     "durable_storage_drop: fault_recovery[storage_drop]: 300 cold key(s)"),
    ("quick", ("fault_recovery", "durable_storage_drop", "classes", "storage_drop", "durable",
               "cold_keys_at_crash"), 0,
     "durable_storage_drop: fault_recovery[storage_drop]: nodes crashed with an empty"),
    ("quick", ("fault_recovery", "determinism", "timeline_match"), False,
     "fault timeline is not seed-deterministic"),
    ("quick", ("fault_recovery", "determinism", "anomalies_match"), False,
     "anomaly counters are not seed-deterministic"),
    ("quick", ("engine_throughput", "events_per_sec"), 50_000.0, "fell below the"),
    ("quick", ("engine_throughput", "multi_get_keys_per_sec"), 1_000.0, "fork/join"),
    ("smoke", ("engine_throughput", "multi_get_overlap_ratio"), 2.0, "overlap ratio"),
    ("quick", ("engine_throughput", "tracing_overhead_pct"), 12.0, "zero-cost-when-off"),
    ("smoke", ("engine_throughput", "scenarios", "tracing_overhead", "spans_created"), 3.0,
     "span(s); tracing is not off"),
    ("smoke", ("engine_throughput", "scenarios", "charge_log_unlogged", "checksum"), 12.0,
     "unlogged charge path"),
]


def _break(payload: dict, path: tuple, value) -> dict:
    *parents, leaf = path
    node = payload
    for key in parents:
        node = node[key]
    if value == "<deleted>":
        del node[leaf]
    else:
        node[leaf] = value
    return payload


@pytest.mark.parametrize("scale, path, value, expected", BREAKAGES,
                         ids=[f"{case[0]}-{'/'.join(map(str, case[1]))}={case[2]!r}"[:90]
                              for case in BREAKAGES])
def test_each_clause_flags_its_breakage(scale, path, value, expected):
    errors = gate_errors(_break(good_payload(scale), path, value), scale)
    assert any(expected in error for error in errors), errors


def test_scaling_sweep_missing_a_gated_point_is_flagged():
    payload = good_payload()
    del payload["figure10_prediction_scaling"]["points"][3]
    assert "fig10: scaling sweep missing the 160-thread point" in gate_errors(payload, "quick")


def test_the_smoke_run_drops_only_the_host_floors():
    # Tier-1 must not gate on host speed; the seeded engine clauses stay.
    for scale, floors_failed in (("smoke", 0), ("quick", 3)):
        slow = good_payload(scale)
        slow["engine_throughput"].update(events_per_sec=50_000.0,
                                         multi_get_keys_per_sec=1.0,
                                         tracing_overhead_pct=50.0)
        assert len(gate_errors(slow, scale)) == floors_failed


# -- run_all.main, with the registry's harnesses replaced by canned sections ----------
def _canned(monkeypatch, payload: dict) -> None:
    """Every registry entry returns its slice of ``payload`` instead of running."""
    def stub(figure):
        sections = {name: copy.deepcopy(payload[name]) for name in figure.sections}
        return dataclasses.replace(figure, run=lambda seed, **kwargs: sections)

    monkeypatch.setattr(figures, "FIGURES", tuple(stub(f) for f in FIGURES))


class TestMainExitCode:
    def test_quick_run_exits_zero_when_gates_hold(self, monkeypatch, tmp_path):
        _canned(monkeypatch, good_payload())
        output = tmp_path / "bench.json"
        assert run_all.main(["--quick", "--no-ledger", "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        assert payload["bench_gate_ok"] is True
        assert payload["scale"] == "quick"
        assert sorted(set(payload) & set(SECTIONS)) == sorted(SECTIONS)

    def test_quick_run_exits_nonzero_on_ordering_breakage(self, monkeypatch, tmp_path):
        broken = good_payload()
        broken["figure5_locality"]["sizes"]["8MB"]["Cloudburst (Hot)"] = _stats(500.0)
        _canned(monkeypatch, broken)
        output = tmp_path / "bench.json"
        assert run_all.main(["--quick", "--no-ledger", "--output", str(output)]) == 1
        # The snapshot is still written (CI uploads it as an artifact even
        # when the gate fails), with the failure recorded in the payload.
        payload = json.loads(output.read_text())
        assert payload["bench_gate_ok"] is False

    def test_quick_run_exits_nonzero_on_consistency_breakage(self, monkeypatch, tmp_path):
        broken = good_payload()
        broken["table2_anomalies"]["invariant_violations"] = ["SK > MK cumulative"]
        _canned(monkeypatch, broken)
        output = tmp_path / "bench.json"
        assert run_all.main(["--quick", "--no-ledger", "--output", str(output)]) == 1
        assert json.loads(output.read_text())["consistency_invariants_ok"] is False


class TestMainLedgerGate:
    """The ledger trend gate as wired into ``run_all.main``."""

    def test_fresh_ledger_records_run_and_passes(self, monkeypatch, tmp_path):
        _canned(monkeypatch, good_payload())
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
        _canned(monkeypatch, good_payload())
        output = tmp_path / "bench.json"
        assert run_all.main(["--quick", "--output", str(output),
                             "--ledger-seed", str(tmp_path / "missing.json")]) == 0
        assert (tmp_path / "bench_ledger.sqlite").exists()

    def test_trend_regression_fails_the_gate(self, monkeypatch, tmp_path):
        # Build history at a high throughput, then regress fig12 far below
        # 85% of the recorded median: main must exit nonzero.
        _canned(monkeypatch, good_payload())
        output = tmp_path / "bench.json"
        common = ["--quick", "--output", str(output),
                  "--ledger", str(tmp_path / "ledger.sqlite"),
                  "--ledger-seed", str(tmp_path / "missing.json")]
        assert run_all.main(common) == 0
        assert run_all.main(common) == 0

        regressed = good_payload()
        regressed["figure12_retwis_scaling"]["points"][2]["requests_per_s"] = 900.0
        _canned(monkeypatch, regressed)  # 9x: the fixed gates still hold
        assert run_all.main(common) == 1
        payload = json.loads(output.read_text())
        assert payload["ledger"]["trend_gate_ok"] is False
        assert any("below the median" in e for e in payload["gate_errors"])
