"""Differential tests: the merge fast paths against the implementations they replaced.

DESIGN.md DR-11 made the vector-clock and causal-lattice joins return an
operand when the result is value-equal to it, carry sizes through ``merge``
and test dominance in one pass.  Every one of those is only allowed to change
*host* cost, so each is compared here with its slow reference
(``tests/reference_lattices.py``) on operands built to hit the fast paths:
shared clock objects, the same lattice on both sides, equal clocks with
unequal payloads, dominated, concurrent and multi-sibling versions.
"""

from hypothesis import example, given, settings, strategies as st

import reference_lattices as reference
from repro.cloudburst import ConsistencyLevel
from repro.cloudburst.consistency.protocols import (
    ConsistencyProtocol, SessionState, make_protocol)
from repro.lattices import CausalLattice, LWWLattice, Timestamp, VectorClock
from test_lattice_properties import vector_clocks


# -- strategies ---------------------------------------------------------------
@st.composite
def clock_pools(draw):
    """A few clocks plus derived ones, so sampled pairs are often the same
    object, equal but distinct objects, or ordered by dominance."""
    base = draw(st.lists(vector_clocks, min_size=2, max_size=4))
    return base + [base[0].increment("a"),
                   reference.clock_merge(base[0], base[1]),
                   VectorClock(base[1].reveal())]


@st.composite
def clock_pairs(draw):
    clocks = st.sampled_from(draw(clock_pools()))
    return draw(clocks), draw(clocks)


@st.composite
def causal_pairs(draw):
    """Two causal lattices over one clock pool; ``b`` is sometimes ``a`` itself."""
    clocks = st.sampled_from(draw(clock_pools()))
    lattices = st.builds(
        lambda siblings, dependencies: CausalLattice(siblings=siblings,
                                                     dependencies=dependencies),
        st.lists(st.tuples(clocks, st.sampled_from(["red", "green", ("blue", 3)])),
                 min_size=1, max_size=3),
        st.dictionaries(st.sampled_from(["x", "y", "z"]), clocks, max_size=3))
    a = draw(lattices)
    b = draw(st.one_of(st.just(a), lattices))
    # Sizes are memoised on first ask and carried through merge: cover
    # operands that were and were not sized before the join.
    for operand in (a, b):
        if draw(st.booleans()):
            operand.size_bytes()
    return a, b


def _state(lattice: CausalLattice):
    return list(lattice.dependencies.items()), lattice.siblings


def _rebuilt(lattice: CausalLattice) -> CausalLattice:
    """The same value through the constructor: sizes and clock from scratch."""
    return CausalLattice(siblings=lattice.siblings, dependencies=lattice.dependencies)


# -- vector clocks --------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(clock_pairs())
def test_clock_merge_equals_the_allocating_reference(pair):
    a, b = pair
    entries = a.reveal(), b.reveal()
    expected = reference.clock_merge(a, b)
    merged = a.merge(b)
    assert merged == expected
    assert merged.reveal() == expected.reveal()
    assert merged.size_bytes() == VectorClock(merged.reveal()).size_bytes()
    # (So an operand comes back only when it is value-equal to the join.)
    # Neither operand is written to.
    assert (a.reveal(), b.reveal()) == entries


@settings(max_examples=300, deadline=None)
@given(clock_pairs())
def test_one_pass_dominance_equals_the_two_expression_reference(pair):
    a, b = pair
    assert a.dominates(b) == reference.dominates(a, b)
    assert b.dominates(a) == reference.dominates(b, a)


@settings(max_examples=300, deadline=None)
@given(clock_pairs())
def test_concurrent_or_newer_is_not_older(pair):
    """The one spelling at the three sites equals each spelling it replaced."""
    local, dep = pair
    concurrent_or_newer = local is dep or not dep.dominates(local)
    assert concurrent_or_newer == reference.cut_holds(local, dep)
    assert concurrent_or_newer == reference.causally_valid(local, dep)


# -- causal lattices ------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(causal_pairs())
def test_causal_merge_equals_the_constructor_reference(pair):
    a, b = pair
    before = _state(a), _state(b)
    expected = reference.causal_merge(a, b)
    merged = a.merge(b)

    assert merged == expected
    # Invariant 1: dependency *order* is part of the virtual timeline.
    assert list(merged.dependencies) == list(expected.dependencies)
    # Carried sizes and the shared clock memo equal a from-scratch rebuild.
    rebuilt = _rebuilt(merged)
    assert merged.size_bytes() == rebuilt.size_bytes() == expected.size_bytes()
    assert merged.metadata_bytes() == rebuilt.metadata_bytes() == expected.metadata_bytes()
    assert merged.vector_clock == rebuilt.vector_clock == expected.vector_clock
    # Invariant 2: whatever came back — an operand included — is value-equal
    # to the join in the reference's order (above); operands are never written.
    assert (_state(a), _state(b)) == before
    for operand in (a, b):
        assert operand.size_bytes() == _rebuilt(operand).size_bytes()
        assert operand.metadata_bytes() == _rebuilt(operand).metadata_bytes()


@settings(max_examples=200, deadline=None)
@given(causal_pairs())
def test_causal_merge_result_merges_on_like_the_reference(pair):
    """A fast-path result (shared siblings, carried sizes) is a sound operand."""
    a, b = pair
    onward, expected = a.merge(b).merge(a), reference.causal_merge(
        reference.causal_merge(a, b), a)
    assert onward == expected
    assert list(onward.dependencies) == list(expected.dependencies)
    assert onward.size_bytes() == expected.size_bytes()


# -- the session's shipped metadata (DR-14) ----------------------------------------
class _Cache:
    def __init__(self, cache_id):
        self.cache_id = cache_id


@st.composite
def session_histories(draw):
    """Reads and dependency merges of one session, with a size asked now and then.

    Keys repeat (a re-read replaces the read-set entry; a known dependency has
    its clock merged in place, which is where a remembered size goes stale),
    names differ in encoded length, and clocks come from one pool so a merge
    often returns the clock the entry already holds.
    """
    clocks = st.sampled_from(draw(clock_pools()))
    keys = st.sampled_from(["k", "key-1", "clé-2", "ключ"])
    read = st.tuples(st.just("read"), keys, st.one_of(
        st.builds(CausalLattice, clocks, st.just("v")),
        st.builds(LWWLattice, st.builds(Timestamp, st.floats(0, 9), st.just("n")),
                  st.just("v"))))
    track = st.tuples(st.just("track"), st.just(None), st.builds(
        lambda dependencies: CausalLattice(VectorClock({"w": 1}), "v",
                                           dependencies=dependencies),
        st.dictionaries(keys, clocks, max_size=3)))
    ask = st.tuples(st.just("ask"), st.none(), st.none())
    return draw(st.lists(st.one_of(read, track, ask), max_size=25))


def _depends_on(**dependencies):
    return ("track", None, CausalLattice(VectorClock({"w": 1}), "v",
                                         dependencies=dependencies))


_ASK = ("ask", None, None)
DSC = ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL


@settings(max_examples=300, deadline=None)
@given(session_histories(),
       st.sampled_from([DSC, DSC, ConsistencyLevel.DISTRIBUTED_SESSION_RR,
                        ConsistencyLevel.LWW]))
# A known dependency's clock grows by a node after its size was remembered.
@example([_depends_on(k=VectorClock({"a": 1})), _ASK,
          _depends_on(k=VectorClock({"b": 1})), _ASK], DSC)
# A re-read replaces the entry: a longer clock under the same key.
@example([("read", "k", CausalLattice(VectorClock({"a": 1}), "v")), _ASK,
          ("read", "k", CausalLattice(VectorClock({"a": 2, "b": 1}), "v")), _ASK], DSC)
def test_remembered_entry_sizes_equal_the_walking_metadata_bytes(history, level):
    state = SessionState("exec-0", make_protocol(level))
    for step, (op, key, value) in enumerate(history):
        cache = _Cache(f"cache-{step % 2}")
        if op == "read":
            ConsistencyProtocol._pin_version(state, cache, key, value)
        elif op == "track":
            ConsistencyProtocol._track_dependencies(state, cache, value)
        else:
            assert state.metadata_bytes() == reference.session_metadata_bytes(state)
    assert state.metadata_bytes() == reference.session_metadata_bytes(state)
    assert state.metadata_bytes() == reference.session_metadata_bytes(state)  # and again
