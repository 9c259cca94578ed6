"""Unit tests for the historical bench ledger and its trend gate.

Pins the ledger's three contracts: runs append atomically and are queryable;
trend checks are one-sided against a windowed median of seed-pinned metrics
only (host-clock leaves are recorded, never gated); and a corrupt or missing
ledger degrades to fixed-threshold gating with a warning rather than failing
the build.  A ledger in the version-1 layout, with its ``runs.seeded``
column, keeps working.
"""

import json
import sqlite3
from pathlib import Path

import pytest

from repro.bench.ledger import (
    TREND_GATES,
    TREND_TOLERANCE,
    BenchLedger,
    apply_ledger,
    extract_samples,
    trend_errors,
)


REPO_ROOT = Path(__file__).resolve().parents[2]
FIG12 = "figure12_retwis_scaling/threads_160/requests_per_s"
FIG12_HOST = "figure12_retwis_scaling/sim_requests_per_cpu_s"


def make_payload(fig10=1_500.0, fig12=8_000.0, fig7=110.0,
                 scale="quick", seed=0, fig12_host=400.0):
    return {
        "schema": 7,
        "scale": scale,
        "seed": seed,
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
        assert samples[FIG12_HOST] == 400.0
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
            "'figure7_autoscaling'").fetchone()
        assert json.loads(section[0]) == {"requests_per_s": 110.0}
        conn.close()
        ledger.close()

    def test_a_new_file_has_the_version_2_layout(self, ledger_path):
        BenchLedger(ledger_path).close()
        conn = sqlite3.connect(str(ledger_path))
        columns = [row[1] for row in conn.execute("PRAGMA table_info(runs)")]
        version = conn.execute("SELECT value FROM ledger_meta"
                               " WHERE key = 'schema_version'").fetchone()
        conn.close()
        assert columns == ["run_id", "recorded_at", "payload_schema", "seed",
                           "scale", "gate_ok"]
        assert version == ("2",)

    def test_history_is_newest_first_and_windowed(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        for fig12 in (100.0, 200.0, 300.0):
            ledger.append_run(make_payload(fig12=fig12))
        values = ledger.history(FIG12, limit=2)
        assert values == [300.0, 200.0]
        ledger.close()

    def test_history_scale_filter(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        ledger.append_run(make_payload(fig7=50.0, scale="quick"))
        ledger.append_run(make_payload(fig7=500.0, scale="full"))
        assert ledger.history("figure7_autoscaling/requests_per_s",
                              scale="quick") == [50.0]
        ledger.close()

    def test_seed_from_snapshot(self, ledger_path, tmp_path):
        snapshot = tmp_path / "snap.json"
        snapshot.write_text(json.dumps(make_payload(scale="reduced")))
        ledger = BenchLedger(ledger_path)
        assert ledger.seed_from_snapshot(snapshot) == 1
        assert ledger.history("figure7_autoscaling/requests_per_s",
                              scale="reduced") == [110.0]
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
        assert checks[FIG12]["median"] is None
        ledger.close()

    def test_within_tolerance_passes(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        for _ in range(3):
            ledger.append_run(make_payload(fig12=1_000.0))
        errors, checks = trend_errors(make_payload(fig12=900.0), ledger)
        assert errors == []
        assert checks[FIG12]["ok"] is True
        ledger.close()

    def test_regression_below_tolerance_fails(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        for _ in range(3):
            ledger.append_run(make_payload(fig12=1_000.0))
        floor = (1.0 - TREND_TOLERANCE) * 1_000.0
        errors, checks = trend_errors(make_payload(fig12=floor - 1), ledger)
        assert len(errors) == 1
        assert "below the median" in errors[0]
        assert checks[FIG12]["ok"] is False
        ledger.close()

    def test_improvement_never_fails(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        ledger.append_run(make_payload(fig12=1_000.0))
        errors, _ = trend_errors(make_payload(fig12=50_000.0), ledger)
        assert errors == []
        ledger.close()

    def test_host_leaves_are_recorded_never_gated(self, ledger_path):
        # fig12's simulated requests per CPU-second sits in the ledger like
        # every numeric leaf, but a host 100x slower fails no trend check.
        ledger = BenchLedger(ledger_path)
        for _ in range(3):
            ledger.append_run(make_payload(fig12_host=400.0))
        assert ledger.history(FIG12_HOST) == [400.0, 400.0, 400.0]
        errors, checks = trend_errors(make_payload(fig12_host=4.0), ledger)
        assert errors == []
        assert set(checks) == {gate.metric for gate in TREND_GATES}
        assert FIG12_HOST not in checks
        ledger.close()

    def test_deterministic_history_includes_seeded_rows(self, ledger_path,
                                                        tmp_path):
        snapshot = tmp_path / "snap.json"
        snapshot.write_text(json.dumps(make_payload(fig10=10_000.0)))
        ledger = BenchLedger(ledger_path)
        ledger.seed_from_snapshot(snapshot)
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
        assert section["seeded_from"] == "snap.json"
        assert section["runs_recorded"] == 2  # seed row + this run

    def test_the_section_records_file_names_not_the_host_paths(self, tmp_path):
        """Two checkouts' snapshots compare leaf by leaf, so the section
        names the ledger and the seed snapshot by file name only."""
        snapshot = tmp_path / "seed" / "BENCH_throughput.json"
        snapshot.parent.mkdir()
        snapshot.write_text(json.dumps(make_payload()))
        ledger_path = tmp_path / "out" / "bench_ledger.sqlite"
        ledger_path.parent.mkdir()
        assert ledger_path.is_absolute() and snapshot.is_absolute()
        section, _ = apply_ledger(make_payload(), [], ledger_path,
                                  seed_snapshot=snapshot)
        assert section["path"] == "bench_ledger.sqlite"
        assert section["seeded_from"] == "BENCH_throughput.json"

    def test_trend_window_excludes_the_judged_run(self, ledger_path):
        # The first real run on an unseeded ledger has no history: it must
        # not be compared against itself.
        section, errors = apply_ledger(make_payload(), [], ledger_path)
        assert errors == []
        assert section["trend"][FIG12]["window"] == 0

    def test_no_trend_gate_is_vacuous_at_the_seeded_scale(self, ledger_path):
        # A fresh ledger seeded from the committed snapshot, judging a run at
        # that snapshot's scale: every trend gate has history to judge by.
        snapshot_path = REPO_ROOT / "BENCH_throughput.json"
        snapshot = json.loads(snapshot_path.read_text())
        section, errors = apply_ledger(snapshot, [], ledger_path,
                                       seed_snapshot=snapshot_path)
        assert errors == []
        assert section["seeded_from"] == "BENCH_throughput.json"
        windows = {metric: check["window"] for metric, check in section["trend"].items()}
        assert sorted(windows) == sorted(gate.metric for gate in TREND_GATES)
        assert all(window >= 1 for window in windows.values()), windows

    def test_missing_ledger_and_snapshot_start_a_new_history(self, tmp_path,
                                                               capsys):
        # Neither file exists yet: the run starts an unseeded history and
        # passes, without a warning.
        ledger_path = tmp_path / "fresh.sqlite"
        section, errors = apply_ledger(make_payload(), [], ledger_path,
                                       seed_snapshot=tmp_path / "nope.json")
        assert errors == []
        assert section["ledger_ok"] is True
        assert section["seeded_from"] is None
        assert section["warning"] is None
        assert section["runs_recorded"] == 1
        assert section["schema_version"] == 2
        assert ledger_path.exists()
        assert "WARNING" not in capsys.readouterr().err

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


#: The version-1 layout, as a ledger written before ``runs.seeded`` went
#: holds it.
SCHEMA_1 = """
CREATE TABLE ledger_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
INSERT INTO ledger_meta (key, value) VALUES ('schema_version', '1');
CREATE TABLE runs (
  run_id INTEGER PRIMARY KEY AUTOINCREMENT,
  recorded_at TEXT NOT NULL,
  payload_schema INTEGER NOT NULL,
  seed INTEGER NOT NULL,
  scale TEXT NOT NULL,
  seeded INTEGER NOT NULL DEFAULT 0,
  gate_ok INTEGER NOT NULL);
CREATE INDEX idx_runs_scale ON runs (scale, run_id);
CREATE TABLE sections (
  run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
  section TEXT NOT NULL,
  payload TEXT NOT NULL,
  PRIMARY KEY (run_id, section));
CREATE TABLE samples (
  run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
  metric TEXT NOT NULL,
  value REAL NOT NULL,
  PRIMARY KEY (run_id, metric));
CREATE INDEX idx_samples_metric ON samples (metric, run_id);
CREATE TABLE gate_outcomes (
  run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
  message TEXT NOT NULL);
"""
FIG10 = "figure10_prediction_scaling/threads_160/requests_per_s"


class TestSchemaOneLedger:
    @pytest.fixture
    def schema_1_path(self, ledger_path):
        conn = sqlite3.connect(str(ledger_path))
        conn.executescript(SCHEMA_1)
        conn.close()
        return ledger_path

    def _rows(self, path, query):
        conn = sqlite3.connect(str(path))
        rows = conn.execute(query).fetchall()
        conn.close()
        return rows

    def test_an_empty_version_1_file_seeds_appends_and_trend_checks(
            self, schema_1_path, tmp_path):
        snapshot = tmp_path / "snap.json"
        snapshot.write_text(json.dumps(make_payload(fig10=10_000.0)))
        section, errors = apply_ledger(make_payload(fig10=100.0), [],
                                       schema_1_path, seed_snapshot=snapshot)
        assert section["ledger_ok"] is True
        assert section["schema_version"] == 1
        assert section["seeded_from"] == "snap.json"
        assert section["runs_recorded"] == 2
        assert section["trend"][FIG10]["window"] == 1
        assert [e for e in errors if FIG10 in e]
        # The file keeps its layout: the old column takes its default.
        assert self._rows(schema_1_path, "SELECT seeded FROM runs") == [(0,), (0,)]
        assert self._rows(schema_1_path, "SELECT value FROM ledger_meta WHERE"
                          " key = 'schema_version'") == [("1",)]

    def test_history_a_version_1_writer_recorded_is_read(self, schema_1_path):
        conn = sqlite3.connect(str(schema_1_path))
        conn.execute("INSERT INTO runs (recorded_at, payload_schema, seed, scale,"
                     " seeded, gate_ok) VALUES ('then', 15, 0, 'quick', 1, 1)")
        conn.execute("INSERT INTO samples (run_id, metric, value)"
                     " VALUES (1, ?, 1000.0)", (FIG12,))
        conn.commit()
        conn.close()
        section, errors = apply_ledger(make_payload(fig12=990.0), [],
                                       schema_1_path, seed_snapshot=None)
        assert errors == []
        assert section["trend"][FIG12] == {"value": 990.0, "window": 1,
                                           "median": 1000.0, "ok": True}
        ledger = BenchLedger(schema_1_path)
        assert ledger.history(FIG12) == [990.0, 1000.0]
        ledger.close()
