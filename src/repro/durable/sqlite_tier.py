"""A durable SQLite cold tier for Anna storage nodes.

A :class:`~repro.anna.storage_node.StorageNode`'s default disk tier is an
in-process :class:`~repro.anna.storage_node.ColdTier`: demotions land nowhere
real, and a crashed node loses its cold set with its memory tier.
:class:`SqliteColdTier` makes the cold tier a real database — one WAL-mode
SQLite file shared by the cluster, one table per storage node — so node
crash/restart is testable:

* every **write** to the tier (a demotion, or a put merging into a
  disk-resident key) serialises the lattice (pickle — the payload must come
  back byte-identical) into the node's table, alongside its vector clock
  (JSON, queryable) and last-access time, and is committed before it returns;
* a **remove** deletes the row;
* a **crash** loses the volatile memory tier but not the table; a restarted
  node under the same id re-opens the same table and reads its cold set back
  from the stored bytes.

Reads are served from the lattices the tier holds in process, which are the
ones it last committed.  Virtual-time determinism is unaffected: the
simulation still charges disk operations through
:class:`~repro.anna.storage_node.StorageServiceModel`, and nothing in the
timeline reads the database's wall-clock timestamps.  SQLite here is
*storage*, never a clock.

Schema and pragmas follow the production idiom in SNIPPETS.md (snippets 1-2):
WAL journal mode, ``synchronous=NORMAL``, a generous busy timeout, explicit
indexes, TEXT ISO-8601 timestamps, and a small ``meta`` table recording the
on-disk schema version.
"""

from __future__ import annotations

import json
import pickle
import re
import sqlite3
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional, Union

from ..anna.storage_node import ColdTier
from ..lattices import Lattice

#: Version of the on-disk layout, recorded in the ``meta`` table.
SCHEMA_VERSION = 1

#: Connection pragmas (SNIPPETS.md snippet 1): WAL for concurrent readers and
#: durable-enough commits, NORMAL sync (WAL makes it safe), and a busy
#: timeout so multiple per-node handles on one file never hard-fail.
_PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA synchronous=NORMAL",
    "PRAGMA foreign_keys=ON",
    "PRAGMA busy_timeout=30000",
)


def _table_name(node_id: str) -> str:
    """A safe SQL identifier for one node's cold table."""
    return "cold_" + re.sub(r"[^A-Za-z0-9_]", "_", node_id)


def _utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _vector_clock_json(value: Lattice) -> str:
    """The value's vector clock as JSON (``{}`` for non-causal lattices)."""
    clock = getattr(value, "vector_clock", None)
    reveal = getattr(clock, "reveal", None)
    if reveal is None:
        return "{}"
    return json.dumps(reveal(), sort_keys=True)


class SqliteColdTier(ColdTier):
    """One storage node's durable cold tier: a table in a shared WAL database.

    Every handle owns its own connection in autocommit mode — each change is
    committed when it returns, which is the whole point of a durable tier.
    The payload column stores the pickled lattice verbatim; recovery after a
    crash must reproduce it byte-for-byte (tested), so nothing ever rewrites
    a row except a newer write of the same key.
    """

    def __init__(self, path: Union[str, Path], node_id: str):
        super().__init__()
        self.path = Path(path)
        self.node_id = node_id
        self.table = _table_name(node_id)
        self._conn = sqlite3.connect(str(self.path), isolation_level=None)
        for pragma in _PRAGMAS:
            self._conn.execute(pragma)
        self._create_schema()
        rows = self._conn.execute(
            f"SELECT key, payload, last_access_ms FROM {self.table} "
            "ORDER BY last_access_ms, key").fetchall()
        recovered: Dict[str, float] = {}
        for key, payload, last_access_ms in rows:
            self[key] = pickle.loads(payload)
            recovered[key] = float(last_access_ms)
        self.recovered_access_ms = recovered

    def _create_schema(self) -> None:
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS meta ("
            "  key TEXT PRIMARY KEY,"
            "  value TEXT NOT NULL)")
        self._conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)))
        self._conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("created_at", _utc_now_iso()))
        # Per-node table; ``key`` is indexed via the primary key, and the
        # last-access index serves coldest-first scans and recovery ordering.
        self._conn.execute(
            f"CREATE TABLE IF NOT EXISTS {self.table} ("
            "  key TEXT PRIMARY KEY,"
            "  payload BLOB NOT NULL,"
            "  lattice_type TEXT NOT NULL,"
            "  vector_clock TEXT NOT NULL,"
            "  size_bytes INTEGER NOT NULL,"
            "  last_access_ms REAL NOT NULL,"
            "  updated_at TEXT NOT NULL)")
        self._conn.execute(
            f"CREATE INDEX IF NOT EXISTS idx_{self.table}_last_access "
            f"ON {self.table} (last_access_ms)")

    def _persist(self, key: str, value: Optional[Lattice],
                 last_access_ms: float = 0.0) -> None:
        """Commit one change: the row for ``key`` replaced, or deleted."""
        if value is None:
            self._conn.execute(f"DELETE FROM {self.table} WHERE key = ?", (key,))
            return
        self._conn.execute(
            f"INSERT OR REPLACE INTO {self.table} "
            "(key, payload, lattice_type, vector_clock, size_bytes,"
            " last_access_ms, updated_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (key, pickle.dumps(value), type(value).__name__,
             _vector_clock_json(value), value.size_bytes(),
             float(last_access_ms), _utc_now_iso()))

    def close(self) -> None:
        """Release the connection; the table stays on disk (crash path)."""
        self._conn.close()
