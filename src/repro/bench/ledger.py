"""Historical bench ledger: ``run_all.py --ledger PATH`` runs, queryable in SQLite.

Each run given ``--ledger PATH`` appends its sections, its flattened
numeric samples and its gate outcome to one WAL-mode SQLite file (schema
and indexes per the SNIPPETS.md idiom).  The ledger gates nothing: the
committed ``BENCH_throughput.json`` is the golden file, and CI compares a
fresh reduced run with it leaf by leaf (``figures --compare``).  The
ledger is an append-only record of what each run measured, host-clock
leaves (``wall_seconds``, fig10/fig12's ``sim_requests_per_cpu_s``)
included; query it with plain ``sqlite3``.

Degradation contract: a missing ledger starts a new history, and an
unreadable one prints a warning on stderr.  Neither changes the run's exit
code or its snapshot.
"""

from __future__ import annotations

import json
import sqlite3
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Sequence, Union

#: Version of the ledger's on-disk layout, recorded in ``ledger_meta``.
#: Version 1 also had ``runs.seeded``, which nothing read; a version-1 file
#: keeps working, since the column defaults to 0 on insert.
SCHEMA_VERSION = 2

_PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA synchronous=NORMAL",
    "PRAGMA foreign_keys=ON",
    "PRAGMA busy_timeout=30000",
)


def _utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# -- flattening payloads into samples ------------------------------------------------
def extract_samples(payload: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a bench payload into ``{"section/path/metric": value}`` samples.

    Numeric (and boolean) leaves are kept; strings are skipped.  Lists are
    skipped except the scaling sweeps' ``points`` lists, whose entries are
    keyed by thread count (``threads_160/requests_per_s``) so a point stays
    addressable across runs regardless of its position.
    """
    samples: Dict[str, float] = {}
    for section, value in payload.items():
        if isinstance(value, dict):
            _flatten(section, value, samples)
        elif isinstance(value, bool):
            samples[section] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            samples[section] = float(value)
    return samples


def _flatten(prefix: str, node: Dict[str, Any], out: Dict[str, float]) -> None:
    for key, value in node.items():
        path = f"{prefix}/{key}"
        if isinstance(value, bool):
            out[path] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            out[path] = float(value)
        elif isinstance(value, dict):
            _flatten(path, value, out)
        elif isinstance(value, list) and key == "points":
            for point in value:
                if isinstance(point, dict) and "threads" in point:
                    rest = {k: v for k, v in point.items() if k != "threads"}
                    _flatten(f"{prefix}/threads_{point['threads']}", rest, out)


# -- the ledger ----------------------------------------------------------------------
class BenchLedger:
    """Append-only history of bench runs in one WAL-mode SQLite file."""

    def __init__(self, path: Union[str, Path]):
        self._conn = sqlite3.connect(str(path), isolation_level=None)
        for pragma in _PRAGMAS:
            self._conn.execute(pragma)
        self._create_schema()

    def _create_schema(self) -> None:
        conn = self._conn
        conn.execute(
            "CREATE TABLE IF NOT EXISTS ledger_meta ("
            "  key TEXT PRIMARY KEY,"
            "  value TEXT NOT NULL)")
        conn.execute(
            "INSERT OR IGNORE INTO ledger_meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)))
        conn.execute(
            "CREATE TABLE IF NOT EXISTS runs ("
            "  run_id INTEGER PRIMARY KEY AUTOINCREMENT,"
            "  recorded_at TEXT NOT NULL,"
            "  payload_schema INTEGER NOT NULL,"
            "  seed INTEGER NOT NULL,"
            "  scale TEXT NOT NULL,"
            "  gate_ok INTEGER NOT NULL)")
        conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_runs_scale ON runs (scale, run_id)")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS sections ("
            "  run_id INTEGER NOT NULL REFERENCES runs(run_id)"
            "    ON DELETE CASCADE,"
            "  section TEXT NOT NULL,"
            "  payload TEXT NOT NULL,"
            "  PRIMARY KEY (run_id, section))")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS samples ("
            "  run_id INTEGER NOT NULL REFERENCES runs(run_id)"
            "    ON DELETE CASCADE,"
            "  metric TEXT NOT NULL,"
            "  value REAL NOT NULL,"
            "  PRIMARY KEY (run_id, metric))")
        conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_samples_metric "
            "ON samples (metric, run_id)")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS gate_outcomes ("
            "  run_id INTEGER NOT NULL REFERENCES runs(run_id)"
            "    ON DELETE CASCADE,"
            "  message TEXT NOT NULL)")

    def append_run(self, payload: Dict[str, Any], gate_errors: Sequence[str]) -> None:
        """Record one bench run (sections, samples, gate outcome) in one transaction."""
        conn = self._conn
        conn.execute("BEGIN")
        try:
            cursor = conn.execute(
                "INSERT INTO runs (recorded_at, payload_schema, seed, scale,"
                " gate_ok) VALUES (?, ?, ?, ?, ?)",
                (_utc_now_iso(), int(payload.get("schema", 0)),
                 int(payload.get("seed", 0)),
                 str(payload.get("scale", "unknown")),
                 0 if gate_errors else 1))
            run_id = cursor.lastrowid
            conn.executemany(
                "INSERT INTO sections (run_id, section, payload) VALUES (?, ?, ?)",
                [(run_id, section, json.dumps(value, sort_keys=True))
                 for section, value in sorted(payload.items())
                 if isinstance(value, dict)])
            conn.executemany(
                "INSERT INTO samples (run_id, metric, value) VALUES (?, ?, ?)",
                [(run_id, metric, value)
                 for metric, value in sorted(extract_samples(payload).items())])
            conn.executemany(
                "INSERT INTO gate_outcomes (run_id, message) VALUES (?, ?)",
                [(run_id, message) for message in gate_errors])
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def close(self) -> None:
        self._conn.close()


def apply_ledger(payload: Dict[str, Any], gate_errors: Sequence[str],
                 ledger_path: Union[str, Path]) -> None:
    """Append one bench run and its gate errors to the ledger at ``ledger_path``.

    On *any* SQLite-level failure (a corrupt file, an unwritable path) a
    warning goes to stderr and the run is not recorded; the caller's exit
    code and snapshot stay as they were.
    """
    try:
        ledger = BenchLedger(ledger_path)
        try:
            ledger.append_run(payload, gate_errors)
        finally:
            ledger.close()
    except sqlite3.Error as exc:
        print(f"WARNING: bench ledger {ledger_path} unavailable ({exc}); "
              "this run is not recorded", file=sys.stderr)
