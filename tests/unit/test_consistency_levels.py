"""Unit tests for the consistency-level enum."""

from repro.cloudburst import ConsistencyLevel
from repro.cloudburst.consistency import CAUSAL_STRICTNESS_ORDER


class TestLevelProperties:
    def test_causal_levels(self):
        assert not ConsistencyLevel.LWW.is_causal
        assert not ConsistencyLevel.DISTRIBUTED_SESSION_RR.is_causal
        assert ConsistencyLevel.SINGLE_KEY_CAUSAL.is_causal
        assert ConsistencyLevel.MULTI_KEY_CAUSAL.is_causal
        assert ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL.is_causal

    def test_dependency_tracking_levels(self):
        assert not ConsistencyLevel.SINGLE_KEY_CAUSAL.tracks_dependencies
        assert ConsistencyLevel.MULTI_KEY_CAUSAL.tracks_dependencies
        assert ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL.tracks_dependencies

    def test_read_set_shipping_levels(self):
        assert ConsistencyLevel.DISTRIBUTED_SESSION_RR.ships_read_set
        assert ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL.ships_read_set
        assert not ConsistencyLevel.LWW.ships_read_set
        assert not ConsistencyLevel.MULTI_KEY_CAUSAL.ships_read_set

    def test_short_names_unique(self):
        names = [level.short_name for level in ConsistencyLevel]
        assert len(names) == len(set(names))
        assert "LWW" in names and "DSC" in names


class TestStrictnessOrder:
    def test_table2_order(self):
        assert CAUSAL_STRICTNESS_ORDER == (
            ConsistencyLevel.SINGLE_KEY_CAUSAL,
            ConsistencyLevel.MULTI_KEY_CAUSAL,
            ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL,
        )
