"""Unit tests for the historical bench ledger.

Pins the ledger's two contracts: a run appends atomically (sections,
flattened samples and gate outcome, or nothing), and a corrupt or
unwritable ledger prints a warning instead of failing the run.  A ledger in
the version-1 layout, with its ``runs.seeded`` column, keeps working.  Every
check reads the file with plain ``sqlite3``, as a user querying the history
would.
"""

import json
import sqlite3

import pytest

from repro.bench.ledger import BenchLedger, apply_ledger, extract_samples


FIG12 = "figure12_retwis_scaling/threads_160/requests_per_s"
FIG12_HOST = "figure12_retwis_scaling/sim_requests_per_cpu_s"


def make_payload(fig10=1_500.0, fig12=8_000.0, fig12_host=400.0):
    return {
        "schema": 7,
        "scale": "quick",
        "seed": 0,
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
        "figure7_autoscaling": {"requests_per_s": 110.0},
        "bench_gate_ok": True,
    }


@pytest.fixture
def ledger_path(tmp_path):
    return tmp_path / "ledger.sqlite"


def _rows(path, query, params=()):
    conn = sqlite3.connect(str(path))
    rows = conn.execute(query, params).fetchall()
    conn.close()
    return rows


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
    def test_append_records_sections_samples_and_gate_outcome(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        ledger.append_run(make_payload(), ["boom"])
        ledger.close()
        assert _rows(ledger_path, "SELECT run_id, scale, gate_ok FROM runs") == [
            (1, "quick", 0)]
        assert _rows(ledger_path, "SELECT message FROM gate_outcomes") == [("boom",)]
        section = _rows(ledger_path, "SELECT payload FROM sections WHERE"
                        " section = 'figure7_autoscaling'")
        assert json.loads(section[0][0]) == {"requests_per_s": 110.0}
        assert _rows(ledger_path, "SELECT value FROM samples WHERE metric = ?",
                     (FIG12_HOST,)) == [(400.0,)]

    def test_a_failed_append_records_nothing(self, ledger_path):
        ledger = BenchLedger(ledger_path)
        broken = make_payload()
        broken["figure7_autoscaling"]["unserialisable"] = object()
        with pytest.raises(TypeError):
            ledger.append_run(broken, [])
        ledger.append_run(make_payload(fig12=900.0), ["boom"])
        ledger.close()
        (run_id,), = _rows(ledger_path, "SELECT run_id FROM runs")
        for table in ("sections", "samples", "gate_outcomes"):
            run_ids = {row[0] for row in _rows(ledger_path,
                                               f"SELECT run_id FROM {table}")}
            assert run_ids == {run_id}, table
        assert _rows(ledger_path, "SELECT value FROM samples WHERE metric = ?",
                     (FIG12,)) == [(900.0,)]

    def test_a_new_file_has_the_version_2_layout(self, ledger_path):
        BenchLedger(ledger_path).close()
        columns = [row[1] for row in _rows(ledger_path, "PRAGMA table_info(runs)")]
        assert columns == ["run_id", "recorded_at", "payload_schema", "seed",
                           "scale", "gate_ok"]
        assert _rows(ledger_path, "SELECT value FROM ledger_meta"
                     " WHERE key = 'schema_version'") == [("2",)]


class TestApplyLedger:
    def test_a_missing_ledger_starts_a_new_history(self, ledger_path, capsys):
        # The file does not exist yet: the run creates it, without a warning.
        assert apply_ledger(make_payload(), [], ledger_path) is None
        assert _rows(ledger_path, "SELECT run_id, gate_ok FROM runs") == [(1, 1)]
        assert capsys.readouterr().err == ""

    def test_each_run_appends_with_its_gate_errors(self, ledger_path):
        apply_ledger(make_payload(fig12=1_000.0), [], ledger_path)
        apply_ledger(make_payload(fig12=100.0), ["fixed boom"], ledger_path)
        assert _rows(ledger_path, "SELECT r.run_id, r.gate_ok, s.value FROM runs r"
                     " JOIN samples s ON s.run_id = r.run_id WHERE s.metric = ?"
                     " ORDER BY r.run_id", (FIG12,)) == [(1, 1, 1_000.0),
                                                        (2, 0, 100.0)]
        assert _rows(ledger_path, "SELECT run_id, message FROM gate_outcomes") == [
            (2, "fixed boom")]

    def test_corrupt_ledger_degrades_with_warning(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.sqlite"
        garbage = b"definitely not a sqlite database " * 8
        corrupt.write_bytes(garbage)
        payload = make_payload()
        assert apply_ledger(payload, ["fixed-error"], corrupt) is None
        assert payload == make_payload()
        assert corrupt.read_bytes() == garbage
        assert "WARNING" in capsys.readouterr().err

    def test_unwritable_path_degrades_with_warning(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "ledger.sqlite"
        assert apply_ledger(make_payload(), [], missing_dir) is None
        assert not missing_dir.parent.exists()
        assert "WARNING" in capsys.readouterr().err


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


class TestSchemaOneLedger:
    @pytest.fixture
    def schema_1_path(self, ledger_path):
        conn = sqlite3.connect(str(ledger_path))
        conn.executescript(SCHEMA_1)
        conn.close()
        return ledger_path

    def test_an_empty_version_1_file_appends_and_keeps_its_layout(
            self, schema_1_path, capsys):
        apply_ledger(make_payload(fig12=100.0), [], schema_1_path)
        apply_ledger(make_payload(fig12=200.0), [], schema_1_path)
        assert capsys.readouterr().err == ""
        # The old column takes its default, and the file still says version 1.
        assert _rows(schema_1_path, "SELECT seeded FROM runs") == [(0,), (0,)]
        assert _rows(schema_1_path, "SELECT value FROM ledger_meta WHERE"
                     " key = 'schema_version'") == [("1",)]
        assert _rows(schema_1_path, "SELECT value FROM samples WHERE metric = ?"
                     " ORDER BY run_id", (FIG12,)) == [(100.0,), (200.0,)]

    def test_a_run_appends_after_a_version_1_writer_s_history(self, schema_1_path):
        conn = sqlite3.connect(str(schema_1_path))
        conn.execute("INSERT INTO runs (recorded_at, payload_schema, seed, scale,"
                     " seeded, gate_ok) VALUES ('then', 15, 0, 'quick', 1, 1)")
        conn.execute("INSERT INTO samples (run_id, metric, value)"
                     " VALUES (1, ?, 1000.0)", (FIG12,))
        conn.commit()
        conn.close()
        apply_ledger(make_payload(fig12=990.0), [], schema_1_path)
        assert _rows(schema_1_path, "SELECT s.run_id, r.seeded, s.value FROM samples s"
                     " JOIN runs r ON r.run_id = s.run_id WHERE s.metric = ?"
                     " ORDER BY s.run_id", (FIG12,)) == [(1, 1, 1000.0),
                                                        (2, 0, 990.0)]
