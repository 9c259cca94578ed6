"""Unit tests for lattice encapsulation of opaque user values."""


from repro.cloudburst import ConsistencyLevel, LatticeEncapsulator
from repro.lattices import CausalLattice, LWWLattice, MaxIntLattice, Timestamp, VectorClock


class TestLWWEncapsulation:
    def test_wraps_value_in_lww(self):
        enc = LatticeEncapsulator("node-1", ConsistencyLevel.LWW)
        lattice = enc.encapsulate({"a": 1}, clock_ms=10.0)
        assert isinstance(lattice, LWWLattice)
        assert lattice.reveal() == {"a": 1}
        assert lattice.timestamp.node_id == "node-1"

    def test_later_writes_get_larger_timestamps(self):
        enc = LatticeEncapsulator("node-1", ConsistencyLevel.LWW)
        first = enc.encapsulate(1, clock_ms=10.0)
        second = enc.encapsulate(2, clock_ms=10.0)
        assert second.timestamp > first.timestamp

    def test_existing_lattice_passes_through(self):
        enc = LatticeEncapsulator("node-1", ConsistencyLevel.LWW)
        existing = MaxIntLattice(3)
        assert enc.encapsulate(existing) is existing

    def test_de_encapsulate(self):
        enc = LatticeEncapsulator("node-1", ConsistencyLevel.LWW)
        assert LatticeEncapsulator.de_encapsulate(enc.encapsulate("x")) == "x"


class TestCausalEncapsulation:
    def test_wraps_value_in_causal_lattice(self):
        enc = LatticeEncapsulator("thread-1", ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
        lattice = enc.encapsulate("v")
        assert isinstance(lattice, CausalLattice)
        assert lattice.vector_clock.reveal()["thread-1"] == 1

    def test_prior_version_extends_clock(self):
        enc = LatticeEncapsulator("thread-1", ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
        first = enc.encapsulate("v1")
        second = enc.encapsulate("v2", prior=first)
        assert second.vector_clock.dominates(first.vector_clock)

    def test_dependencies_recorded_only_for_tracking_levels(self):
        deps = {"other": VectorClock({"w": 1})}
        dsc = LatticeEncapsulator("t", ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
        sk = LatticeEncapsulator("t", ConsistencyLevel.SINGLE_KEY_CAUSAL)
        assert dsc.encapsulate("v", dependencies=deps).dependencies == deps
        assert sk.encapsulate("v", dependencies=deps).dependencies == {}

    def test_write_dominates_sessions_own_observation_of_the_key(self):
        # Regression: a session that read k on another cache has no local
        # prior; the new version still must causally *follow* the version the
        # session observed (shipped in ``dependencies[key]``), not sit
        # concurrent with it — otherwise the write carries self-contradictory
        # metadata ("depends on a version it does not dominate").
        enc = LatticeEncapsulator("writer-0", ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
        observed = VectorClock({"seed": 1})
        lattice = enc.encapsulate("v", prior=None,
                                  dependencies={"k": observed,
                                                "other": VectorClock({"w": 2})},
                                  key="k")
        assert lattice.vector_clock.dominates(observed)
        # A version does not depend on itself; cross-key deps survive.
        assert "k" not in lattice.dependencies
        assert lattice.dependencies == {"other": VectorClock({"w": 2})}

    def test_concurrent_versions_helper(self):
        enc = LatticeEncapsulator("a", ConsistencyLevel.MULTI_KEY_CAUSAL)
        lattice = enc.encapsulate("v")
        assert LatticeEncapsulator.concurrent_versions(lattice) == ("v",)
        assert LatticeEncapsulator.concurrent_versions(
            LWWLattice(Timestamp(1.0, "n"), "x")) == ("x",)


class TestVersionOf:
    def test_lww_version_is_timestamp(self):
        lattice = LWWLattice(Timestamp(3.0, "n"), "v")
        assert LatticeEncapsulator.version_of(lattice) == lattice.timestamp

    def test_causal_version_is_vector_clock(self):
        lattice = CausalLattice(VectorClock({"a": 2}), "v")
        assert LatticeEncapsulator.version_of(lattice) == VectorClock({"a": 2})

    def test_other_lattices_have_no_version(self):
        assert LatticeEncapsulator.version_of(MaxIntLattice(1)) is None
