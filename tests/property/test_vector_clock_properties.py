"""Property-based tests for the vector-clock partial order."""

from hypothesis import given, settings, strategies as st

from repro.lattices import VectorClock

clocks = st.builds(
    VectorClock,
    st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]),
                    st.integers(min_value=0, max_value=6), max_size=5),
)


@settings(max_examples=100, deadline=None)
@given(clocks, clocks)
def test_at_most_one_ordering_relation_holds(a, b):
    """For any two clocks: equal, a<b or b<a — at most one (else concurrent)."""
    relations = [a == b, a.dominates(b), b.dominates(a)]
    assert sum(bool(r) for r in relations) <= 1


@settings(max_examples=100, deadline=None)
@given(clocks, clocks)
def test_merge_is_least_upper_bound(a, b):
    merged = a.merge(b)
    assert merged == a or merged.dominates(a)
    assert merged == b or merged.dominates(b)
    # Least: no entry exceeds the pairwise maximum.
    for node, value in merged.reveal().items():
        assert value == max(a.reveal().get(node, 0), b.reveal().get(node, 0))


@settings(max_examples=100, deadline=None)
@given(clocks, clocks, clocks)
def test_dominance_is_transitive(a, b, c):
    if a.dominates(b) and b.dominates(c):
        assert a.dominates(c)


@settings(max_examples=100, deadline=None)
@given(clocks)
def test_dominance_is_irreflexive(a):
    assert not a.dominates(a)


@settings(max_examples=100, deadline=None)
@given(clocks, st.sampled_from(["a", "b", "z"]))
def test_increment_strictly_advances(clock, node):
    assert clock.increment(node).dominates(clock)


@settings(max_examples=100, deadline=None)
@given(clocks, clocks)
def test_happened_before_is_antisymmetric(a, b):
    assert not (a.happened_before(b) and b.happened_before(a))
