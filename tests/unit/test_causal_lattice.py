"""Unit tests for the causal lattice (multi-value register + dependencies)."""


from repro.lattices import CausalLattice, VectorClock


def make(clock_entries, value, deps=None):
    return CausalLattice(VectorClock(clock_entries), value, dependencies=deps)


class TestCausalMerge:
    def test_newer_version_wins(self):
        old = make({"a": 1}, "old")
        new = make({"a": 2}, "new")
        assert old.merge(new).reveal() == "new"
        assert new.merge(old).reveal() == "new"
        assert not old.merge(new).is_conflicted

    def test_concurrent_versions_are_both_retained(self):
        left = make({"a": 1}, "left")
        right = make({"b": 1}, "right")
        merged = left.merge(right)
        assert merged.is_conflicted
        assert set(merged.concurrent_values) == {"left", "right"}

    def test_reveal_tie_break_is_deterministic(self):
        left = make({"a": 1}, "left")
        right = make({"b": 1}, "right")
        assert left.merge(right).reveal() == right.merge(left).reveal()

    def test_later_write_resolves_conflict(self):
        left = make({"a": 1}, "left")
        right = make({"b": 1}, "right")
        conflicted = left.merge(right)
        resolved = CausalLattice(conflicted.vector_clock.increment("c"), "resolved")
        merged = conflicted.merge(resolved)
        assert not merged.is_conflicted
        assert merged.reveal() == "resolved"

    def test_merge_unions_dependencies(self):
        left = make({"a": 1}, "x", deps={"k": VectorClock({"w": 1})})
        right = make({"b": 1}, "y", deps={"k": VectorClock({"w": 3}), "l": VectorClock({"v": 1})})
        merged = left.merge(right)
        assert merged.dependencies["k"].reveal() == {"w": 3}
        assert "l" in merged.dependencies

    def test_duplicate_delivery_is_idempotent(self):
        value = make({"a": 1}, "x")
        assert value.merge(value) == value


class TestCausalAccessors:
    def test_vector_clock_joins_siblings(self):
        merged = make({"a": 1}, "x").merge(make({"b": 2}, "y"))
        assert merged.vector_clock.reveal() == {"a": 1, "b": 2}

    def test_metadata_bytes_grows_with_dependencies(self):
        plain = make({"a": 1}, "x")
        heavy = make({"a": 1}, "x", deps={f"dep-{index}": VectorClock({"w": index + 1})
                                          for index in range(20)})
        assert heavy.metadata_bytes() > plain.metadata_bytes()

    def test_size_includes_value(self):
        assert make({"a": 1}, "x" * 100).size_bytes() >= 100

    def test_empty_siblings_yield_empty_clock(self):
        # The constructor accepts an explicitly empty siblings iterable; the
        # cached-clock fast path must not IndexError on it.
        empty = CausalLattice(siblings=[])
        assert empty.vector_clock.reveal() == {}


class TestCausalReveal:
    def test_single_version_reveal(self):
        assert make({"a": 1}, 42).reveal() == 42

    def test_same_clock_different_payload_keeps_one_deterministically(self):
        a = CausalLattice(VectorClock({"n": 1}), "apple")
        b = CausalLattice(VectorClock({"n": 1}), "banana")
        assert a.merge(b).reveal() == b.merge(a).reveal() == "apple"
        assert not a.merge(b).is_conflicted
