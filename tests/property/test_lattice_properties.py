"""Property-based tests: lattice merge is associative, commutative, idempotent.

These are the algebraic properties Anna's coordination-free consistency rests
on (§2.2): merge must be insensitive to the batching, ordering and repetition
of requests.
"""

from hypothesis import given, settings, strategies as st

from repro.lattices import (
    BoolOrLattice,
    CausalLattice,
    LWWLattice,
    MapLattice,
    MaxIntLattice,
    MinIntLattice,
    OrderedSetLattice,
    SetLattice,
    Timestamp,
    VectorClock,
)

# -- strategies -------------------------------------------------------------------------
timestamps = st.builds(
    Timestamp,
    clock_ms=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    node_id=st.sampled_from(["n1", "n2", "n3"]),
    sequence=st.integers(min_value=0, max_value=50),
)
lww_lattices = st.builds(LWWLattice, timestamp=timestamps,
                         value=st.integers(min_value=-100, max_value=100))
max_ints = st.builds(MaxIntLattice, st.integers(min_value=-1000, max_value=1000))
min_ints = st.builds(MinIntLattice, st.integers(min_value=-1000, max_value=1000))
bools = st.builds(BoolOrLattice, st.booleans())
set_lattices = st.builds(SetLattice, st.sets(st.integers(min_value=0, max_value=20)))
ordered_sets = st.builds(OrderedSetLattice, st.sets(st.integers(min_value=0, max_value=20)))
vector_clocks = st.builds(
    VectorClock,
    st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                    st.integers(min_value=0, max_value=8), max_size=4),
)
map_lattices = st.builds(
    MapLattice,
    st.dictionaries(st.sampled_from(["k1", "k2", "k3"]), max_ints, max_size=3),
)
causal_lattices = st.builds(
    CausalLattice,
    vector_clock=vector_clocks,
    value=st.sampled_from(["red", "green", "blue", "yellow"]),
    dependencies=st.dictionaries(st.sampled_from(["x", "y"]), vector_clocks, max_size=2),
)

scalar_like = st.one_of(lww_lattices, max_ints, min_ints, bools, set_lattices,
                        ordered_sets, vector_clocks, map_lattices)


def pairs_of_same_type(strategy):
    return strategy.flatmap(
        lambda example: st.tuples(st.just(example), _same_type_strategy(type(example))))


def _same_type_strategy(cls):
    return {
        LWWLattice: lww_lattices,
        MaxIntLattice: max_ints,
        MinIntLattice: min_ints,
        BoolOrLattice: bools,
        SetLattice: set_lattices,
        OrderedSetLattice: ordered_sets,
        VectorClock: vector_clocks,
        MapLattice: map_lattices,
        CausalLattice: causal_lattices,
    }[cls]


def triples(cls):
    strategy = _same_type_strategy(cls)
    return st.tuples(strategy, strategy, strategy)


ALL_TYPES = [LWWLattice, MaxIntLattice, MinIntLattice, BoolOrLattice, SetLattice,
             OrderedSetLattice, VectorClock, MapLattice, CausalLattice]


# -- properties -----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_TYPES).flatmap(triples))
def test_merge_is_associative(values):
    a, b, c = values
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_TYPES).flatmap(triples))
def test_merge_is_commutative(values):
    a, b, _ = values
    assert a.merge(b) == b.merge(a)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_TYPES).flatmap(triples))
def test_merge_is_idempotent(values):
    a, b, _ = values
    merged = a.merge(b)
    assert merged.merge(merged) == merged
    assert a.merge(a) == a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_TYPES).flatmap(triples))
def test_merge_is_monotone(values):
    """Merging never loses information: a ⊔ b absorbs both operands."""
    a, b, _ = values
    merged = a.merge(b)
    assert merged.merge(a) == merged
    assert merged.merge(b) == merged


@settings(max_examples=60, deadline=None)
@given(st.lists(max_ints, min_size=1, max_size=8))
def test_merge_order_insensitive_over_sequences(lattices):
    """Any permutation and grouping of a batch of updates converges."""
    left_to_right = lattices[0]
    for lattice in lattices[1:]:
        left_to_right = left_to_right.merge(lattice)
    right_to_left = lattices[-1]
    for lattice in reversed(lattices[:-1]):
        right_to_left = right_to_left.merge(lattice)
    assert left_to_right == right_to_left


@settings(max_examples=60, deadline=None)
@given(triples(CausalLattice))
def test_causal_merge_retains_or_dominates_every_sibling(values):
    """No sibling disappears unless another sibling dominates it."""
    a, b, _ = values
    merged = a.merge(b)
    merged_clock = merged.vector_clock
    for source in (a, b):
        for clock, _value in source._siblings:
            assert merged_clock == clock or merged_clock.dominates(clock)


@settings(max_examples=60, deadline=None)
@given(triples(CausalLattice))
def test_causal_reveal_is_deterministic(values):
    a, b, _ = values
    assert a.merge(b).reveal() == b.merge(a).reveal()
