"""Unit tests for the historical bench ledger and its trend gate.

Pins the ledger's three contracts: runs append atomically and are queryable;
trend checks are one-sided against a windowed median with seeded/wallclock
exclusions; and a corrupt or missing ledger degrades to fixed-threshold
gating with a warning rather than failing the build.
"""

import json
import sqlite3

import pytest

from repro.bench.ledger import (
    TREND_TOLERANCE,
    BenchLedger,
    apply_ledger,
    extract_samples,
    format_report,
    main,
    trend_errors,
)


def make_payload(engine=500_000.0, fig10=1_500.0, fig12=8_000.0, fig7=110.0,
                 scale="quick", seed=0, fig12_host=400.0):
    return {
        "schema": 7,
        "scale": scale,
        "seed": seed,
        "engine_throughput": {"events_per_sec": engine},
        "figure10_prediction_scaling": {
            "points": [
                {"threads": 10, "requests_per_s": fig10 / 10,
                 "median_ms": 5.0},
                {"threads": 160, "requests_per_s": fig10, "median_ms": 5.0},
            ],
        },
        "figure12_retwis_scaling": {
            "sim_requests_per_cpu_s": fig12_host,
            "points": [{"threads": 160, "requests_per_s": fig12}],
        },
        "figure7_autoscaling": {"requests_per_s": fig7},
        "bench_gate_ok": True,
    }


@pytest.fixture
def ledger_path(tmp_path):
    return tmp_path / "ledger.sqlite"


class TestExtractSamples:
    def test_flattens_nested_dicts_and_booleans(self):
        samples = extract_samples(make_payload())
        assert samples["engine_throughput/events_per_sec"] == 500_000.0
        assert samples["figure7_autoscaling/requests_per_s"] == 110.0
        assert samples["bench_gate_ok"] == 1.0
        assert samples["schema"] == 7.0

    def test_points_lists_key_by_thread_count(self):
        samples = extract_samples(make_payload(fig10=1_234.0))
        assert samples[
            "figure10_prediction_scaling/threads_160/requests_per_s"] == 1_234.0
        assert samples[
            "figure10_prediction_scaling/threads_10/median_ms"] == 5.0

    def test_strings_and_plain_lists_are_skipped(self):
        samples = extract_samples(
            {"a": {"name": "x", "timeline": [1, 2, 3], "value": 4}})
        assert samples == {"a/value": 4.0}


class TestBenchLedger:
    def test_append_and_count(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        run_id = ledger.append_run(make_payload(), gate_errors=["boom"])
        assert run_id == 1
        assert ledger.run_count() == 1
        conn = sqlite3.connect(str(ledger_path))
        assert conn.execute(
            "SELECT gate_ok FROM runs WHERE run_id = 1").fetchone() == (0,)
        assert conn.execute(
            "SELECT message FROM gate_outcomes").fetchone() == ("boom",)
        section = conn.execute(
            "SELECT payload FROM sections WHERE section = "
            "'engine_throughput'").fetchone()
        assert json.loads(section[0]) == {"events_per_sec": 500_000.0}
        conn.close()
        ledger.close()

    def test_history_is_newest_first_and_windowed(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        for engine in (100.0, 200.0, 300.0):
            ledger.append_run(make_payload(engine=engine))
        values = ledger.history("engine_throughput/events_per_sec", limit=2)
        assert values == [300.0, 200.0]
        ledger.close()

    def test_history_scale_filter(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        ledger.append_run(make_payload(fig7=50.0, scale="quick"))
        ledger.append_run(make_payload(fig7=500.0, scale="full"))
        assert ledger.history("figure7_autoscaling/requests_per_s",
                              scale="quick") == [50.0]
        ledger.close()

    def test_history_can_exclude_seeded_rows(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        ledger.append_run(make_payload(engine=999.0), seeded=True)
        ledger.append_run(make_payload(engine=100.0))
        metric = "engine_throughput/events_per_sec"
        assert ledger.history(metric) == [100.0, 999.0]
        assert ledger.history(metric, include_seeded=False) == [100.0]
        ledger.close()

    def test_seed_from_snapshot(self, ledger_path, tmp_path):
        snapshot = tmp_path / "snap.json"
        snapshot.write_text(json.dumps(make_payload(scale="reduced")))
        ledger = BenchLedger(ledger_path)
        assert ledger.seed_from_snapshot(snapshot) == 1
        conn = sqlite3.connect(str(ledger_path))
        assert conn.execute("SELECT seeded FROM runs").fetchone() == (1,)
        conn.close()
        ledger.close()

    def test_seed_from_missing_or_garbage_snapshot_is_none(self, ledger_path,
                                                           tmp_path):
        ledger = BenchLedger(ledger_path)
        assert ledger.seed_from_snapshot(tmp_path / "nope.json") is None
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert ledger.seed_from_snapshot(garbage) is None
        assert ledger.run_count() == 0
        ledger.close()


class TestTrendErrors:
    def test_empty_history_passes(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        errors, checks = trend_errors(make_payload(), ledger)
        assert errors == []
        assert checks["engine_throughput/events_per_sec"]["median"] is None
        ledger.close()

    def test_within_tolerance_passes(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        for _ in range(3):
            ledger.append_run(make_payload(engine=1_000.0))
        errors, checks = trend_errors(make_payload(engine=900.0), ledger)
        assert errors == []
        assert checks["engine_throughput/events_per_sec"]["ok"] is True
        ledger.close()

    def test_regression_below_tolerance_fails(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        for _ in range(3):
            ledger.append_run(make_payload(engine=1_000.0))
        floor = (1.0 - TREND_TOLERANCE) * 1_000.0
        errors, checks = trend_errors(make_payload(engine=floor - 1), ledger)
        assert len(errors) == 1
        assert "below the median" in errors[0]
        assert checks["engine_throughput/events_per_sec"]["ok"] is False
        ledger.close()

    def test_improvement_never_fails(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        ledger.append_run(make_payload(engine=1_000.0))
        errors, _ = trend_errors(make_payload(engine=50_000.0), ledger)
        assert errors == []
        ledger.close()

    def test_wallclock_history_excludes_seeded_rows(self, ledger_path):
        # A seeded snapshot recorded on faster hardware must not fail CI.
        ledger = BenchLedger(ledger_path)
        ledger.append_run(make_payload(engine=1_000_000.0), seeded=True)
        errors, checks = trend_errors(make_payload(engine=100.0), ledger)
        assert errors == []
        assert checks["engine_throughput/events_per_sec"]["window"] == 0
        ledger.close()

    def test_fig12_host_speed_is_a_wallclock_row_across_scales(self, ledger_path):
        # Simulated requests per CPU-second of the fig12 sweep: judged only
        # against this ledger's own runs, whatever their scale (fig12 runs
        # the full budget in every mode).
        metric = "figure12_retwis_scaling/sim_requests_per_cpu_s"
        ledger = BenchLedger(ledger_path)
        ledger.append_run(make_payload(fig12_host=9_999.0), seeded=True)
        errors, checks = trend_errors(make_payload(fig12_host=400.0), ledger)
        assert errors == [] and checks[metric]["window"] == 0
        for _ in range(3):
            ledger.append_run(make_payload(fig12_host=400.0, scale="reduced"))
        errors, checks = trend_errors(
            make_payload(fig12_host=300.0, scale="quick"), ledger)
        assert checks[metric]["kind"] == "wallclock"
        assert checks[metric]["ok"] is False and metric in errors[0]
        errors, _ = trend_errors(make_payload(fig12_host=1_000.0), ledger)
        assert errors == []
        ledger.close()

    def test_deterministic_history_includes_seeded_rows(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        ledger.append_run(make_payload(fig10=10_000.0), seeded=True)
        errors, _ = trend_errors(make_payload(fig10=100.0), ledger)
        assert any("figure10" in e for e in errors)
        ledger.close()

    def test_scale_bound_metric_compares_like_to_like(self, ledger_path):
        # fig7's rate at "full" scale must not gate a "quick" run.
        ledger = BenchLedger(ledger_path)
        ledger.append_run(make_payload(fig7=10_000.0, scale="full"))
        errors, checks = trend_errors(make_payload(fig7=50.0, scale="quick"),
                                      ledger)
        assert errors == []
        assert checks["figure7_autoscaling/requests_per_s"]["window"] == 0
        ledger.close()


class TestApplyLedger:
    def test_first_run_seeds_then_records(self, ledger_path, tmp_path):
        snapshot = tmp_path / "snap.json"
        snapshot.write_text(json.dumps(make_payload()))
        section, errors = apply_ledger(make_payload(), [], ledger_path,
                                       seed_snapshot=snapshot)
        assert errors == []
        assert section["ledger_ok"] is True
        assert section["seeded_from"] == str(snapshot)
        assert section["runs_recorded"] == 2  # seed row + this run

    def test_trend_window_excludes_the_judged_run(self, ledger_path):
        # The first real run on an unseeded ledger has no history: it must
        # not be compared against itself.
        section, errors = apply_ledger(make_payload(), [], ledger_path)
        assert errors == []
        assert section["trend"][
            "engine_throughput/events_per_sec"]["window"] == 0

    def test_corrupt_ledger_degrades_with_warning(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.sqlite"
        corrupt.write_bytes(b"definitely not a sqlite database " * 8)
        section, errors = apply_ledger(make_payload(), ["fixed-error"], corrupt)
        assert errors == []
        assert section["ledger_ok"] is False
        assert "fixed thresholds still apply" in section["warning"]
        assert "WARNING" in capsys.readouterr().err

    def test_unwritable_path_degrades_with_warning(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "ledger.sqlite"
        section, errors = apply_ledger(make_payload(), [], missing_dir)
        assert errors == []
        assert section["ledger_ok"] is False
        assert "WARNING" in capsys.readouterr().err

    def test_fixed_errors_are_recorded_alongside_trend_errors(self,
                                                              ledger_path):
        apply_ledger(make_payload(fig10=10_000.0), [], ledger_path)
        section, errors = apply_ledger(make_payload(fig10=100.0),
                                       ["fixed boom"], ledger_path)
        assert errors  # the fig10 trend regression
        conn = sqlite3.connect(str(ledger_path))
        messages = [row[0] for row in
                    conn.execute("SELECT message FROM gate_outcomes")]
        conn.close()
        assert "fixed boom" in messages
        assert any("below the median" in m for m in messages)


class TestCli:
    def test_report_prints_trend_table(self, ledger_path, capsys):
        ledger = BenchLedger(ledger_path)
        ledger.append_run(make_payload())
        ledger.close()
        assert main(["--report", "--ledger", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "engine_throughput/events_per_sec" in out
        assert "1 run(s) recorded" in out

    def test_missing_ledger_exits_zero(self, tmp_path, capsys):
        assert main(["--report",
                     "--ledger", str(tmp_path / "nope.sqlite")]) == 0
        assert "does not exist" in capsys.readouterr().err

    def test_corrupt_ledger_exits_zero(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.sqlite"
        corrupt.write_bytes(b"junk junk junk junk junk junk junk " * 4)
        assert main(["--report", "--ledger", str(corrupt)]) == 0
        assert "WARNING" in capsys.readouterr().err

    def test_format_report_handles_empty_ledger(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        report = format_report(ledger)
        assert "0 run(s) recorded" in report
        ledger.close()
