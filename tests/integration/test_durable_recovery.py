"""Integration tests: crash/restart recovery through the durable SQLite tier.

Two layers.  The cluster layer checks that ``crash_node`` loses exactly the
volatile state (memory tier, stats) while the restarted node recovers every
demoted key from its per-node SQLite table byte-for-byte.  The bench layer
runs the seeded ``storage_drop`` fault class with the durable tier enabled
and asserts the §4.5 oracle — including the new "every cold key on disk at
crash time was recovered" requirement — stays green, deterministically.
"""

import sqlite3

from repro.anna import AnnaCluster
from repro.bench import fault_recovery_errors, run_fault_recovery
from repro.lattices import LWWLattice, Timestamp


def lww(value, clock=1.0, node="n"):
    return LWWLattice(Timestamp(clock, node), value)


def stored_payloads(tier):
    """``key -> payload`` as committed in the tier's table."""
    conn = sqlite3.connect(str(tier.path))
    try:
        return dict(conn.execute(f"SELECT key, payload FROM {tier.table}"))
    finally:
        conn.close()


class TestClusterCrashRestart:
    def _cluster(self, tmp_path):
        return AnnaCluster(node_count=3, replication_factor=2,
                           memory_capacity_keys=4,
                           durable_path=tmp_path / "cold.sqlite")

    def test_crash_then_restart_recovers_every_demoted_key(self, tmp_path):
        cluster = self._cluster(tmp_path)
        for i in range(40):
            cluster.background_put(f"key-{i:02d}", lww(i, clock=float(i + 1)))

        victim = cluster.node_ids[0]
        node = cluster.node(victim)
        cold_before = set(node.cold_tier)
        payloads_before = stored_payloads(node.cold_tier)
        assert set(payloads_before) == cold_before
        assert cold_before, "capacity pressure should have demoted keys"

        lost = cluster.crash_node(victim)
        assert lost == len(cold_before)
        assert cluster.cold_keys_at_crash == len(cold_before)

        recovered = cluster.restart_node(victim)
        assert recovered == len(cold_before)
        restarted = cluster.node(victim)
        payloads_after = stored_payloads(restarted.cold_tier)
        for key in cold_before:
            assert payloads_after[key] == payloads_before[key]

        # No acknowledged write is lost anywhere in the cluster.
        for i in range(40):
            assert cluster.background_get(f"key-{i:02d}").reveal() == i

    def test_durable_stats_track_crash_and_recovery(self, tmp_path):
        cluster = self._cluster(tmp_path)
        for i in range(30):
            cluster.background_put(f"key-{i:02d}", lww(i))
        victim = cluster.node_ids[0]
        cluster.crash_node(victim)
        cluster.restart_node(victim)

        stats = cluster.durable_stats()
        assert stats["enabled"] is True
        assert stats["crashes"] == 1
        assert stats["cold_keys_at_crash"] > 0
        assert stats["cold_keys_recovered"] >= stats["cold_keys_at_crash"]
        assert stats["demotions"] > 0

    def test_without_durable_path_stats_report_disabled(self):
        cluster = AnnaCluster(node_count=2)
        assert cluster.has_durable_tier() is False
        assert cluster.durable_stats()["enabled"] is False

    def test_in_process_cold_tier_dies_with_a_crashed_node(self):
        # Without a durable path the cold tier lives in the node's process:
        # a crash loses it, a restart recovers nothing, and the oracle's
        # "every cold key recovered" clause would fail.  The cluster still
        # holds every key: the crash handed its writes to the survivors.
        cluster = AnnaCluster(node_count=3, replication_factor=2,
                              memory_capacity_keys=4)
        for i in range(40):
            cluster.background_put(f"key-{i:02d}", lww(i, clock=float(i + 1)))
        victim = cluster.node_ids[0]
        assert cluster.crash_node(victim) > 0
        assert cluster.restart_node(victim) == 0
        stats = cluster.durable_stats()
        assert stats["cold_keys_recovered"] < stats["cold_keys_at_crash"]
        for i in range(40):
            assert cluster.background_get(f"key-{i:02d}").reveal() == i


class TestDurableFaultMatrix:
    def test_storage_drop_oracle_green_with_durable_tier(self, tmp_path):
        section = run_fault_recovery(
            seed=7, request_count=80, clients=6,
            fault_classes=("storage_drop",), determinism_check=True,
            durable_dir=tmp_path, memory_capacity_keys=48)
        assert fault_recovery_errors(section) == []

        entry = section["classes"]["storage_drop"]
        durable = entry["durable"]
        assert durable["enabled"] is True
        assert durable["crashes"] > 0
        assert durable["cold_keys_at_crash"] > 0
        assert durable["cold_keys_recovered"] >= durable["cold_keys_at_crash"]

        determinism = section["determinism"]
        assert determinism["timeline_match"] is True
        assert determinism["anomalies_match"] is True

    def test_lost_cold_keys_fail_the_oracle(self, tmp_path):
        section = run_fault_recovery(
            seed=7, request_count=80, clients=6,
            fault_classes=("storage_drop",), determinism_check=False,
            durable_dir=tmp_path, memory_capacity_keys=48)
        durable = section["classes"]["storage_drop"]["durable"]
        durable["cold_keys_recovered"] = durable["cold_keys_at_crash"] - 1
        errors = fault_recovery_errors(section)
        assert any("lost" in e for e in errors)

    def test_vacuous_durable_run_fails_the_oracle(self, tmp_path):
        section = run_fault_recovery(
            seed=7, request_count=80, clients=6,
            fault_classes=("storage_drop",), determinism_check=False,
            durable_dir=tmp_path, memory_capacity_keys=48)
        durable = section["classes"]["storage_drop"]["durable"]
        durable["cold_keys_at_crash"] = 0
        errors = fault_recovery_errors(section)
        assert any("never exercised" in e for e in errors)
