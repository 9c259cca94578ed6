"""Unit tests for the SQLite cold tier and its StorageNode integration.

The durable tier's contract (see DESIGN.md, DR-5 and DR-19): every write to
the tier commits the pickled lattice to a WAL database, every remove deletes
its row, and a crash (``forget_volatile`` + reopening the file) hands a
restarted node its cold set byte-for-byte.
"""

import json
import pickle
import sqlite3

import pytest

from repro.durable import SCHEMA_VERSION, SqliteColdTier
from repro.lattices import CausalLattice, LWWLattice, Timestamp, VectorClock
from repro.anna import StorageNode


def lww(value, clock=1.0, node="n"):
    return LWWLattice(Timestamp(clock, node), value)


def causal(value, **clock_entries):
    return CausalLattice(VectorClock(clock_entries), value)


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "cold.sqlite"


def stored(db_path, tier, key, column="payload"):
    """One column of ``key``'s committed row, read with a separate connection."""
    conn = sqlite3.connect(str(db_path))
    try:
        row = conn.execute(f"SELECT {column} FROM {tier.table} WHERE key = ?",
                           (key,)).fetchone()
    finally:
        conn.close()
    return None if row is None else row[0]


def stored_vector_clock(db_path, tier, key):
    text = stored(db_path, tier, key, "vector_clock")
    return None if text is None else json.loads(text)


class TestSqliteColdTier:
    def test_wal_mode_and_schema_version(self, db_path):
        tier = SqliteColdTier(db_path, "node-0")
        conn = sqlite3.connect(str(db_path))
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        version = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
        assert version == (str(SCHEMA_VERSION),)
        conn.close()
        tier.close()

    def test_write_commits_and_a_reopen_reads_it_back(self, db_path):
        tier = SqliteColdTier(db_path, "node-0")
        tier.write("k", lww("hello"), last_access_ms=42.0)
        assert tier["k"].reveal() == "hello"
        assert list(tier) == ["k"] and len(tier) == 1
        assert stored(db_path, tier, "k", "last_access_ms") == 42.0
        tier.close()

        reopened = SqliteColdTier(db_path, "node-0")
        assert reopened["k"].reveal() == "hello"
        assert dict(reopened.recovered_access_ms) == {"k": 42.0}
        reopened.close()

    def test_rows_survive_close_and_reopen_byte_identically(self, db_path):
        tier = SqliteColdTier(db_path, "node-0")
        tier.write("k", causal("v1", a=3, b=1))
        before = stored(db_path, tier, "k")
        tier.close()

        reopened = SqliteColdTier(db_path, "node-0")
        assert stored(db_path, reopened, "k") == before
        assert pickle.loads(before).reveal() == "v1"
        assert reopened["k"].reveal() == "v1"
        reopened.close()

    def test_vector_clock_column_is_queryable(self, db_path):
        tier = SqliteColdTier(db_path, "node-0")
        tier.write("c", causal("v", a=2, b=5))
        tier.write("plain", lww("v"))
        assert stored_vector_clock(db_path, tier, "c") == {"a": 2, "b": 5}
        assert stored_vector_clock(db_path, tier, "plain") == {}
        assert stored_vector_clock(db_path, tier, "ghost") is None
        tier.close()

    def test_remove_deletes_the_row(self, db_path):
        tier = SqliteColdTier(db_path, "node-0")
        tier.write("k", lww("v"))
        assert tier.remove("k").reveal() == "v"
        assert "k" not in tier
        assert tier.remove("k") is None
        assert stored(db_path, tier, "k") is None
        tier.close()

    def test_per_node_tables_are_isolated(self, db_path):
        # One shared database file, one table per node id.
        a = SqliteColdTier(db_path, "node-a")
        b = SqliteColdTier(db_path, "node-b")
        a.write("k", lww("from-a"))
        assert "k" not in b
        b.write("k", lww("from-b"))
        a.close()
        b.close()
        assert SqliteColdTier(db_path, "node-a")["k"].reveal() == "from-a"
        assert SqliteColdTier(db_path, "node-b")["k"].reveal() == "from-b"

    def test_hostile_node_ids_become_safe_table_names(self, db_path):
        tier = SqliteColdTier(db_path, 'x"; DROP TABLE meta; --')
        tier.write("k", lww("v"))
        assert stored(db_path, tier, "k") is not None
        conn = sqlite3.connect(str(db_path))
        assert conn.execute("SELECT COUNT(*) FROM meta").fetchone()[0] == 2
        conn.close()
        tier.close()

    def test_recovered_access_times_order_coldest_first(self, db_path):
        tier = SqliteColdTier(db_path, "node-0")
        tier.write("warm", lww(1), last_access_ms=300.0)
        tier.write("cold", lww(2), last_access_ms=10.0)
        tier.close()
        assert list(SqliteColdTier(db_path, "node-0").recovered_access_ms) == \
            ["cold", "warm"]


class TestStorageNodeWithColdTier:
    def _node(self, db_path, capacity=2):
        tier = SqliteColdTier(db_path, "s1")
        return StorageNode("s1", memory_capacity_keys=capacity,
                           cold_tier=tier), tier

    def test_capacity_demotion_lands_in_sqlite(self, db_path):
        node, tier = self._node(db_path, capacity=2)
        node.put("a", lww(1), now_ms=1.0)
        node.put("b", lww(2), now_ms=2.0)
        node.put("c", lww(3), now_ms=3.0)  # evicts coldest ("a") to disk
        assert node.tier_of("a") == StorageNode.DISK_TIER
        assert stored(db_path, tier, "a") is not None
        assert len(list(node.memory_keys())) == 2
        assert len(list(node.keys())) == 3
        assert node.demotions == 1
        node.cold_tier.close()

    def test_put_to_demoted_key_merges_on_disk(self, db_path):
        node, tier = self._node(db_path)
        node.put("k", causal("v1", a=1))
        node.demote("k")
        node.put("k", causal("v2", a=2))
        assert node.tier_of("k") == StorageNode.DISK_TIER
        assert pickle.loads(stored(db_path, tier, "k")).reveal() == "v2"
        assert stored_vector_clock(db_path, tier, "k") == {"a": 2}
        node.cold_tier.close()

    def test_delete_removes_from_both_tiers(self, db_path):
        node, tier = self._node(db_path)
        node.put("k", lww("v"))
        node.demote("k")
        assert node.delete("k")
        assert not node.contains("k")
        assert stored(db_path, tier, "k") is None
        node.cold_tier.close()

    def test_drain_empties_the_durable_table(self, db_path):
        node, tier = self._node(db_path)
        node.put("mem", lww(1))
        node.put("cold", lww(2))
        node.demote("cold")
        drained = node.drain()
        assert set(drained) == {"mem", "cold"}
        node.cold_tier.close()
        assert len(SqliteColdTier(db_path, "s1")) == 0

    def test_crash_keeps_cold_set_and_restart_recovers_it(self, db_path):
        node, tier = self._node(db_path, capacity=10)
        node.put("hot", lww("gone"), now_ms=5.0)
        node.put("cold", causal("kept", a=1), now_ms=7.0)
        node.demote("cold")
        payload_before = stored(db_path, tier, "cold")

        node.forget_volatile()
        node.cold_tier.close()

        restarted = StorageNode("s1", memory_capacity_keys=10,
                                cold_tier=SqliteColdTier(db_path, "s1"))
        assert restarted.recover_cold_set() == 1
        assert restarted.tier_of("cold") == StorageNode.DISK_TIER
        assert restarted.tier_of("hot") is None  # volatile tier died
        assert stored(db_path, restarted.cold_tier, "cold") == payload_before
        assert restarted.stats("cold").last_access_ms == 7.0
        assert restarted.peek("cold").reveal() == "kept"
        restarted.cold_tier.close()

    def test_without_cold_tier_disk_dict_still_works(self):
        node = StorageNode("s1")
        node.put("k", lww("v"))
        node.demote("k")
        assert node.tier_of("k") == StorageNode.DISK_TIER
        assert node.recover_cold_set() == 0
