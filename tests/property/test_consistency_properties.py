"""Property-based tests for the distributed-session consistency invariants.

These drive randomly generated read/write/stale-cache schedules through the
actual protocol implementations and check the §5.1 invariants:

* Repeatable read: within one session, every read of a key returns either the
  session's own most recent write or the first version the session read.
* Distributed session causal: a read of ``k`` is never causally older than any
  version of ``k`` in the session's dependency set.
"""

from hypothesis import given, settings, strategies as st

from jitter_free import JitterFreeLatencyModel
from repro.anna import AnnaCluster
from repro.cloudburst import ConsistencyLevel, ExecutorCache, LatticeEncapsulator
from repro.cloudburst.consistency.protocols import (
    DistributedSessionCausalProtocol,
    RepeatableReadProtocol,
    SessionState,
)
from repro.lattices import CausalLattice, LWWLattice, Timestamp, VectorClock
from repro.sim import RequestContext

KEYS = ["k0", "k1", "k2"]

# A schedule step is one of:
#   ("external_write", key)  - another client writes a new version to Anna
#   ("read", key, cache_idx) - the session reads key through one of its caches
#   ("write", key, cache_idx)- the session writes key through one of its caches
steps = st.lists(
    st.one_of(
        st.tuples(st.just("external_write"), st.sampled_from(KEYS)),
        st.tuples(st.just("read"), st.sampled_from(KEYS), st.integers(0, 2)),
        st.tuples(st.just("write"), st.sampled_from(KEYS), st.integers(0, 2)),
    ),
    min_size=1, max_size=25,
)


def build_environment(level):
    anna = AnnaCluster(node_count=2, replication_factor=1,
                       latency_model=JitterFreeLatencyModel(),
                       propagation_mode=AnnaCluster.PROPAGATE_PERIODIC)
    peers = {}
    caches = [ExecutorCache(f"cache-{i}", anna, peer_registry=peers) for i in range(3)]
    encapsulators = [LatticeEncapsulator(f"writer-{i}", level) for i in range(3)]
    return anna, caches, encapsulators


@settings(max_examples=40, deadline=None)
@given(steps)
def test_repeatable_read_invariant(schedule):
    level = ConsistencyLevel.DISTRIBUTED_SESSION_RR
    anna, caches, encapsulators = build_environment(level)
    external_clock = [0.0]
    for key in KEYS:
        anna.background_put(key, LWWLattice(Timestamp(0.0, "seed"), f"{key}-v0"))
    protocol = RepeatableReadProtocol()
    state = SessionState("exec-0", protocol)
    ctx = RequestContext()  # the session's one request
    expected = {}  # key -> value the session must keep seeing

    for step in schedule:
        if step[0] == "external_write":
            _, key = step
            external_clock[0] += 1.0
            anna.background_put(key, LWWLattice(Timestamp(external_clock[0], "external"),
                                     f"{key}-ext-{external_clock[0]}"))
        elif step[0] == "read":
            _, key, cache_index = step
            value = protocol.read(caches[cache_index], key, ctx, state)
            revealed = value.reveal()
            if key in expected:
                assert revealed == expected[key], \
                    f"repeatable-read violation for {key}"
            else:
                expected[key] = revealed
        else:
            _, key, cache_index = step
            external_clock[0] += 1.0
            lattice = encapsulators[cache_index].encapsulate(
                f"{key}-session-{external_clock[0]}", clock_ms=external_clock[0])
            merged = protocol.write(caches[cache_index], key, lattice, ctx, state)
            expected[key] = merged.reveal()


@settings(max_examples=40, deadline=None)
@given(steps)
def test_distributed_session_causal_invariant(schedule):
    level = ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL
    anna, caches, encapsulators = build_environment(level)
    for key in KEYS:
        anna.background_put(key, CausalLattice(VectorClock({"seed": 1}), f"{key}-v0"))
    protocol = DistributedSessionCausalProtocol()
    state = SessionState("exec-0", protocol)
    ctx = RequestContext()  # the session's one request
    external_counter = [1]

    for step in schedule:
        if step[0] == "external_write":
            _, key = step
            external_counter[0] += 1
            prior = anna.background_get(key)
            base = prior.vector_clock if isinstance(prior, CausalLattice) else VectorClock()
            anna.background_put(key, CausalLattice(base.increment("external"),
                                        f"{key}-ext-{external_counter[0]}"))
        elif step[0] == "read":
            _, key, cache_index = step
            value = protocol.read(caches[cache_index], key, ctx, state)
            assert isinstance(value, CausalLattice)
            # Causal invariant: the version read is never strictly older than
            # any version of this key in the session's dependency set.
            if key in state.dependencies:
                required = state.dependencies[key].clock
                assert not value.vector_clock.happened_before(required)
        else:
            _, key, cache_index = step
            prior = caches[cache_index].get_local(key)
            dependencies = {
                dep_key: entry.version
                for dep_key, entry in state.read_set.items()
                if isinstance(entry.version, VectorClock)
            }
            lattice = encapsulators[cache_index].encapsulate(
                f"{key}-session", prior=prior, dependencies=dependencies, key=key)
            protocol.write(caches[cache_index], key, lattice, ctx, state)

    # After any schedule, every cache the session touched can be made a causal
    # cut again (the bolt-on property is repairable from the KVS).
    for cache in caches:
        for violation_key, _dep in cache.violates_causal_cut():
            fresh = anna.background_get(violation_key)
            if fresh is not None:
                cache.receive_update(violation_key, fresh)
