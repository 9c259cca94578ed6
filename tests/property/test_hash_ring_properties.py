"""Property-based tests for consistent hashing."""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.anna import HashRing

node_sets = st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=8,
                     unique=True)
keys = st.lists(st.text(alphabet="abcdefg0123456789", min_size=1, max_size=12),
                min_size=1, max_size=60, unique=True)


def half_the_virtual_nodes():
    """The properties hold for any virtual-node count; half is faster."""
    return mock.patch("repro.anna.hash_ring.VIRTUAL_NODES", 32)


def build_ring(node_ids):
    ring = HashRing()
    with half_the_virtual_nodes():
        for node in node_ids:
            ring.add_node(f"node-{node}")
    return ring


@settings(max_examples=40, deadline=None)
@given(node_sets, keys)
def test_placement_is_deterministic(node_ids, key_list):
    ring_a, ring_b = build_ring(node_ids), build_ring(node_ids)
    for key in key_list:
        assert ring_a.owners(key)[0] == ring_b.owners(key)[0]


@settings(max_examples=40, deadline=None)
@given(node_sets, keys, st.integers(min_value=1, max_value=5))
def test_owners_are_distinct_members(node_ids, key_list, count):
    ring = build_ring(node_ids)
    for key in key_list:
        owners = ring.owners(key, count)
        assert len(owners) == len(set(owners)) == min(count, len(node_ids))
        assert set(owners) <= {f"node-{node}" for node in node_ids}


@settings(max_examples=40, deadline=None)
@given(node_sets, keys)
def test_adding_a_node_only_moves_keys_to_that_node(node_ids, key_list):
    """Consistent-hashing monotonicity: existing keys never shuffle between
    surviving nodes when a node joins."""
    ring = build_ring(node_ids)
    before = {key: ring.owners(key)[0] for key in key_list}
    with half_the_virtual_nodes():
        ring.add_node("node-joined")
    for key in key_list:
        after = ring.owners(key)[0]
        assert after == before[key] or after == "node-joined"


@settings(max_examples=40, deadline=None)
@given(node_sets, keys)
def test_removing_a_node_only_moves_its_keys(node_ids, key_list):
    ring = build_ring(node_ids)
    victim = min(f"node-{node}" for node in node_ids)
    before = {key: ring.owners(key)[0] for key in key_list}
    ring.remove_node(victim)
    for key in key_list:
        if before[key] == victim:
            assert ring.owners(key)[0] != victim
        else:
            assert ring.owners(key)[0] == before[key]
