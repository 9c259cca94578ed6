"""Unit tests for vector clocks."""

import pytest

from repro.lattices import VectorClock


class TestVectorClockBasics:
    def test_zero_entries_are_dropped(self):
        clock = VectorClock({"a": 0, "b": 2})
        assert clock.reveal() == {"b": 2}
        assert len(clock) == 1

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            VectorClock({"a": -1})

    def test_increment_is_functional(self):
        base = VectorClock()
        bumped = base.increment("node")
        assert base.get("node") == 0
        assert bumped.get("node") == 1

    def test_merge_takes_pairwise_max(self):
        a = VectorClock({"x": 3, "y": 1})
        b = VectorClock({"x": 1, "z": 2})
        merged = a.merge(b)
        assert merged.reveal() == {"x": 3, "y": 1, "z": 2}


class TestVectorClockOrdering:
    def test_dominates(self):
        newer = VectorClock({"a": 2, "b": 1})
        older = VectorClock({"a": 1, "b": 1})
        assert newer.dominates(older)
        assert not older.dominates(newer)

    def test_equal_clocks_do_not_dominate(self):
        a = VectorClock({"a": 1})
        b = VectorClock({"a": 1})
        assert not a.dominates(b)
        assert a == b

    def test_concurrent(self):
        a = VectorClock({"a": 1})
        b = VectorClock({"b": 1})
        assert a != b
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_happened_before(self):
        older = VectorClock({"a": 1})
        newer = older.increment("a").increment("b")
        assert older.happened_before(newer)
        assert not newer.happened_before(older)

    def test_empty_clock_is_dominated_by_any_nonempty_clock(self):
        assert VectorClock({"a": 1}).dominates(VectorClock())


class TestVectorClockSizing:
    def test_size_counts_entries(self):
        clock = VectorClock({"node-1": 5, "node-22": 1})
        assert clock.size_bytes() == len("node-1") + 8 + len("node-22") + 8

    def test_size_grows_with_writers(self):
        small = VectorClock({"a": 1})
        big = small
        for index in range(10):
            big = big.increment(f"writer-{index}")
        assert big.size_bytes() > small.size_bytes()
