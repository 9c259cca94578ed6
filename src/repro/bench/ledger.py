"""Historical bench ledger: every ``run_all.py`` run, queryable in SQLite.

The regression gate used to be a pile of fixed thresholds — useful floors,
but blind to slow drift: a metric can decay 2% per PR for a year without
ever tripping a constant.  This module treats the benchmark history itself
as a first-class dataset (WAL-mode SQLite, schema and indexes per the
SNIPPETS.md idiom): each ``run_all.py`` invocation appends its sections, its
flattened numeric samples, and its gate outcome to ``bench_ledger.sqlite``,
and the gate gains *trend* checks against that history — e.g. "fig12's
160-thread throughput must stay within 15% of the median of the last 5 runs".

Every trend metric is seed-pinned: a virtual-time throughput (the fig10/fig12
160-thread points, fig7's request rate) that depends only on seed, scale and
code — same seed, same value.  A deviation beyond tolerance means the
*simulation* changed, which is exactly what a silent semantic regression
looks like, and the committed snapshot's row is history like any other.
The ledger records host-clock leaves too (``wall_seconds``, fig10/fig12's
``sim_requests_per_cpu_s``) but gates none of them: host speed has one
ruler, ``benchmarks/perf`` (``benchmarks/pairs.py`` pairs two commits on it).

Degradation contract: a missing ledger simply starts a new history, and a
corrupt one prints a warning and falls back to fixed-threshold gating — the
trend layer must never turn an unreadable file into a failed build.
"""

from __future__ import annotations

import json
import sqlite3
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: Version of the ledger's on-disk layout, recorded in ``ledger_meta``.
#: Version 1 also had ``runs.seeded``, which nothing read; a version-1 file
#: keeps working, since the column defaults to 0 on insert.
SCHEMA_VERSION = 2

#: Default name of the ledger database, created next to the bench snapshot.
DEFAULT_LEDGER_NAME = "bench_ledger.sqlite"

#: Trend window: the current value is compared to the median of this many
#: most-recent historical runs.
TREND_WINDOW = 5

#: A metric may fall at most this fraction below the window median.
TREND_TOLERANCE = 0.15

_PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA synchronous=NORMAL",
    "PRAGMA foreign_keys=ON",
    "PRAGMA busy_timeout=30000",
)


@dataclass(frozen=True)
class TrendGate:
    """One history-aware gate: a seed-pinned metric and its history window.

    ``scale_invariant`` metrics run at the same budget in every
    ``run_all.py`` mode, so their history spans scales; the rest compare
    only against runs recorded at the same scale label.
    """

    metric: str
    scale_invariant: bool = True


#: The trend checks the bench gate runs against history.  fig10/fig12 run at
#: full paper budgets in every mode (hence scale-invariant); fig7's request
#: rate depends on the mode's burst length, so it only compares like to like.
TREND_GATES: Tuple[TrendGate, ...] = (
    TrendGate("figure10_prediction_scaling/threads_160/requests_per_s"),
    TrendGate("figure12_retwis_scaling/threads_160/requests_per_s"),
    TrendGate("figure7_autoscaling/requests_per_s", scale_invariant=False),
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
        self.path = Path(path)
        self._conn = sqlite3.connect(str(self.path), isolation_level=None)
        self._conn.row_factory = sqlite3.Row
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

    # -- writes ------------------------------------------------------------------
    def append_run(self, payload: Dict[str, Any],
                   gate_errors: Sequence[str] = ()) -> int:
        """Record one bench run (sections, samples, gate outcome); run id back."""
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
        return run_id

    def seed_from_snapshot(self, snapshot_path: Union[str, Path]) -> Optional[int]:
        """Seed an empty history from a committed bench snapshot, if readable.

        The row was recorded elsewhere, perhaps on other hardware; the trend
        windows count it like any run, since they read only seed-pinned
        metrics.  Returns the run id, or None when the snapshot is missing or
        unparsable.
        """
        path = Path(snapshot_path)
        try:
            snapshot = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(snapshot, dict):
            return None
        return self.append_run(snapshot)

    # -- reads -------------------------------------------------------------------
    def schema_version(self) -> int:
        """The on-disk layout version the file was created with."""
        row = self._conn.execute("SELECT value FROM ledger_meta"
                                 " WHERE key = 'schema_version'").fetchone()
        return int(row[0])

    def run_count(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(row[0])

    def history(self, metric: str, scale: Optional[str] = None,
                limit: int = TREND_WINDOW) -> List[float]:
        """The metric's most-recent historical values, newest first."""
        query = ("SELECT s.value FROM samples s JOIN runs r"
                 " ON r.run_id = s.run_id WHERE s.metric = ?")
        params: List[Any] = [metric]
        if scale is not None:
            query += " AND r.scale = ?"
            params.append(scale)
        query += " ORDER BY s.run_id DESC LIMIT ?"
        params.append(int(limit))
        return [float(row[0]) for row in self._conn.execute(query, params)]

    def close(self) -> None:
        self._conn.close()


# -- the trend gate ------------------------------------------------------------------
def trend_errors(payload: Dict[str, Any], ledger: BenchLedger,
                 ) -> Tuple[List[str], Dict[str, Dict[str, Any]]]:
    """Check the payload's trend metrics against the ledger's history.

    Returns ``(errors, checks)``: the gate errors (a metric more than
    ``tolerance`` below the median of its window) and the per-metric detail
    recorded in the snapshot's ``ledger`` section.  The window is the last
    ``TREND_WINDOW`` runs and the tolerance ``TREND_TOLERANCE``.  An empty
    window passes —
    the first run on a fresh ledger has nothing to regress against.  The
    check is one-sided on purpose: an *improvement* must never fail CI.
    """
    samples = extract_samples(payload)
    errors: List[str] = []
    checks: Dict[str, Dict[str, Any]] = {}
    for gate in TREND_GATES:
        value = samples.get(gate.metric)
        if value is None:
            continue
        history = ledger.history(
            gate.metric,
            scale=None if gate.scale_invariant else payload.get("scale"),
            limit=TREND_WINDOW)
        check: Dict[str, Any] = {
            "value": value,
            "window": len(history),
            "median": None,
            "ok": True,
        }
        if history:
            window_median = median(history)
            check["median"] = window_median
            floor = (1.0 - TREND_TOLERANCE) * window_median
            if value < floor:
                check["ok"] = False
                errors.append(
                    f"ledger[{gate.metric}]: {value:.2f} is more than "
                    f"{TREND_TOLERANCE:.0%} below the median {window_median:.2f} of "
                    f"the last {len(history)} run(s)")
        checks[gate.metric] = check
    return errors, checks


def apply_ledger(payload: Dict[str, Any], fixed_errors: Sequence[str],
                 ledger_path: Union[str, Path],
                 seed_snapshot: Optional[Union[str, Path]] = None,
                 ) -> Tuple[Dict[str, Any], List[str]]:
    """Seed/append the ledger and run the trend gate for one bench run.

    Returns ``(section, trend_errors)`` where ``section`` goes into the
    snapshot under ``"ledger"``.  On *any* SQLite-level failure — corrupt
    file, unwritable path — the gate degrades to fixed thresholds: a warning
    is printed, ``section["ledger_ok"]`` is False, and no trend errors are
    returned.  History must never make a build fail for being unreadable.
    """
    section: Dict[str, Any] = {
        "path": str(ledger_path),
        "schema_version": SCHEMA_VERSION,
        "window": TREND_WINDOW,
        "tolerance": TREND_TOLERANCE,
        "ledger_ok": True,
        "seeded_from": None,
        "warning": None,
    }
    try:
        ledger = BenchLedger(ledger_path)
    except sqlite3.Error as exc:
        section["ledger_ok"] = False
        section["warning"] = (f"bench ledger {ledger_path} unavailable "
                              f"({exc}); trend gate skipped, fixed thresholds "
                              "still apply")
        print(f"WARNING: {section['warning']}", file=sys.stderr)
        return section, []
    try:
        section["schema_version"] = ledger.schema_version()
        if seed_snapshot is not None and ledger.run_count() == 0:
            seeded_id = ledger.seed_from_snapshot(seed_snapshot)
            if seeded_id is not None:
                section["seeded_from"] = str(seed_snapshot)
        errors, checks = trend_errors(payload, ledger)
        section["trend"] = checks
        section["trend_gate_ok"] = not errors
        # Record the run *after* the trend check, so the window never
        # includes the value it is judging.
        recording = dict(payload)
        recording["ledger"] = section
        section["run_id"] = ledger.append_run(
            recording, gate_errors=list(fixed_errors) + errors)
        section["runs_recorded"] = ledger.run_count()
        return section, errors
    except sqlite3.Error as exc:
        section["ledger_ok"] = False
        section["warning"] = (f"bench ledger {ledger_path} failed mid-run "
                              f"({exc}); trend gate skipped, fixed thresholds "
                              "still apply")
        print(f"WARNING: {section['warning']}", file=sys.stderr)
        return section, []
    finally:
        ledger.close()
