"""Placement by placement, the shipped policies equal the parent's bodies.

DR-13 made one placement cost one pass over the VMs (``LoadView``), scored
caches instead of threads in ``pick_by_locality`` and gave ``WorkQueue.depth``
an O(1) answer for a free server.  None of it may change a decision: for any
load state both policies must return the thread the reference bodies in
``tests/reference_placement.py`` return, draw from ``scheduler.rng`` the same
number of times and count the same locality hits and misses.  The structural
test at the end pins the *shape*: a spilled placement reads only queues
written since the previous placement, and a VM's load only where a queue of
depth two or more could tip it, so the walk over every thread cannot come
back behind a green differential test.

DR-14 cut the spill further — ``ExecutorVM.load`` asks a queue for its depth
only when ``busy_at`` says it holds something, ``LoadView.spill_pool`` filters
through ``full`` only where something is full — under one more invariant: the
VM keeps no copy of queue state, because work reaches a queue without passing
through its VM (``bench/ablations.py`` admits directly).  Every queue here is
loaded that way, so a mirror would read stale in each differential test.

DR-30 keeps the spill's idle pool in the cluster's ``IdleRoster``, which the
queues themselves feed on every ``admit`` and ``release``; each drawn state
is built through the public API (``add_vm(threads=n)``), so the roster holds
exactly the drawn threads.
"""

from collections import Counter
from contextlib import ExitStack
from unittest import mock

from hypothesis import Phase, example, given, settings, strategies as st

import reference_placement as reference
from repro.cloudburst import (
    CloudburstCluster,
    CloudburstReference,
    ExecutorVM,
    LocalityPlacementPolicy,
    PlacementPolicy,
    RandomPlacementPolicy,
    Scheduler,
)
from repro.cloudburst.policy import LoadView
from repro.sim import RandomSource, WorkQueue

KEYS = ["k0", "k1", "k2", "k3"]

#: One thread's queue: (gap before the item, its service time) per released
#: item, back to back when the gap is 0 — a backed-up queue is several items
#: reserved past ``now``.
_HISTORY = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 1.0, 5.0]), st.sampled_from([0.5, 2.0, 8.0])),
    max_size=6)

_THREAD = st.fixed_dictionaries({
    "history": _HISTORY,
    "in_service": st.sampled_from([False, False, False, True]),  # admitted, not released
    "alive": st.sampled_from([True, True, True, False]),
})

_VM = st.fixed_dictionaries({
    "threads": st.lists(_THREAD, min_size=1, max_size=4),
    "alive": st.sampled_from([True, True, True, False]),
    "holds": st.sets(st.sampled_from(KEYS)),
})

_STATE = st.fixed_dictionaries({
    "vms": st.lists(_VM, min_size=1, max_size=5),
    "bound": st.sampled_from([None, 1, 2, 16]),
    "threshold": st.sampled_from([0.0, 0.34, 0.70, 1.0]),
    # Before, inside and after the histories above (at most 6 * 13 ms long).
    "now_ms": st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 5.0, 8.0, 13.0, 40.0, 100.0]),
    "references": st.lists(st.sampled_from(KEYS), max_size=4),
    #: None: unrestricted (every live thread); else picks pins by index,
    #: in this order, dead ones included (``pick_executor`` filters them).
    "pins": st.one_of(st.none(), st.lists(st.integers(0, 19), min_size=1, max_size=4)),
    "ghost_holds": st.sets(st.sampled_from(KEYS)),
    "seed": st.integers(0, 2**16),
})


def _drawn_limits(state):
    """The drawn work-queue bound and overload threshold, patched in.

    Entered inside each example: hypothesis runs a function-scoped fixture
    once per test, not once per example.
    """
    limits = ExitStack()
    limits.enter_context(mock.patch("repro.cloudburst.executor.WORK_QUEUE_BOUND",
                                    state["bound"]))
    limits.enter_context(mock.patch("repro.cloudburst.policy.OVERLOAD_THRESHOLD",
                                    state["threshold"]))
    return limits


def _build(state):
    """A cluster in the drawn load state and the candidates to place over.

    Each VM is built with its drawn thread count (``add_vm(threads=n)``),
    so the cluster's idle roster holds exactly the drawn threads.
    """
    first, *rest = state["vms"]
    cluster = CloudburstCluster(
        executor_vms=1, threads_per_vm=len(first["threads"]),
        anna_nodes=2, seed=1)
    for drawn in rest:
        cluster.add_vm(threads=len(drawn["threads"]))
    index = cluster.kvs.cache_index
    for vm, drawn in zip(cluster.vms, state["vms"]):
        for thread, spec in zip(vm.threads, drawn["threads"]):
            at_ms = 0.0
            for gap_ms, service_ms in spec["history"]:
                at_ms = thread.work_queue.admit(at_ms + gap_ms) + service_ms
                thread.work_queue.release(at_ms)
            if spec["in_service"]:
                thread.work_queue.admit(at_ms)
        if not drawn["alive"]:
            vm.fail()
        for thread, spec in zip(vm.threads, drawn["threads"]):
            if not spec["alive"]:
                thread.alive = False  # a drained thread on a live VM
        index.ingest_snapshot(vm.cache.cache_id, drawn["holds"])
    # A cache that publishes keys but hosts no candidate thread.
    index.ingest_snapshot("cache-departed", state["ghost_holds"])
    everyone = [thread for vm in cluster.vms for thread in vm.threads]
    candidates = None
    if state["pins"] is not None:
        candidates = [everyone[pin % len(everyone)] for pin in state["pins"]]
    return cluster, candidates


def _place(state, policy):
    """One ``pick_executor`` under ``policy``: what it chose and what it left."""
    cluster, candidates = _build(state)
    scheduler = cluster.schedulers[0]
    scheduler.placement_policy = policy
    scheduler.rng = RandomSource(state["seed"])
    args = [CloudburstReference(key) for key in state["references"]] + [7]
    if not scheduler._live_threads():
        return None
    chosen = scheduler.pick_executor("f", args, state["now_ms"], candidates=candidates)
    return (chosen.thread_id, scheduler.rng._rng.getstate(),
            scheduler.stats.locality_hits, scheduler.stats.locality_misses)


def _idle_vm(*holds):
    return {"threads": [{"history": [], "in_service": False, "alive": True}],
            "alive": True, "holds": set(holds)}


#: The later VM holds more of the referenced keys (one of them referenced
#: twice): the score, not the thread id, must rank it first.
_SCORE_OUTRANKS_THREAD_ID = {
    "vms": [_idle_vm("k1"), _idle_vm("k0", "k2")], "bound": 16, "threshold": 0.70,
    "now_ms": 5.0, "references": ["k0", "k0", "k1"], "pins": None,
    "ghost_holds": {"k0", "k1", "k2"}, "seed": 0}


@given(_STATE)
@example(_SCORE_OUTRANKS_THREAD_ID)
@example({**_SCORE_OUTRANKS_THREAD_ID, "references": ["k1", "k0", "k2"]})
@settings(max_examples=600, deadline=None)
def test_locality_policy_places_like_the_reference(state):
    with _drawn_limits(state):
        assert (_place(state, LocalityPlacementPolicy())
                == _place(state, reference.ReferenceLocalityPolicy()))


@given(_STATE)
@settings(max_examples=200, deadline=None)
def test_random_policy_places_like_the_reference(state):
    with _drawn_limits(state):
        assert (_place(state, RandomPlacementPolicy())
                == _place(state, reference.ReferenceRandomPolicy()))


def _thread(history=(), in_service=False, alive=True):
    return {"history": list(history), "in_service": in_service, "alive": alive}


#: One VM holding every kind of thread ``load`` tells apart at ``now_ms`` 5
#: under bound 2: idle with no history, idle with a finished item, busy with
#: room, busy and full, full *and* dead (in ``full``, not in the utilization),
#: in service only (depth 1 with ``next_free_ms`` in the past).
_EVERY_THREAD_MIX = {
    "vms": [
        {"threads": [_thread(), _thread([(0.0, 2.0)]), _thread([(0.0, 8.0)]),
                     _thread([(0.0, 8.0), (0.0, 8.0)])],
         "alive": True, "holds": set()},
        {"threads": [_thread([(0.0, 8.0), (0.0, 8.0)], alive=False),
                     _thread([(0.0, 0.5)], in_service=True), _thread(alive=False)],
         "alive": True, "holds": set()},
        {"threads": [_thread([(0.0, 8.0)], alive=False)], "alive": True, "holds": set()},
        {"threads": [_thread([(0.0, 8.0)]), _thread()], "alive": False, "holds": set()},
    ],
    "bound": 2, "threshold": 0.70, "now_ms": 5.0, "references": [], "pins": [0],
    "ghost_holds": set(), "seed": 0}


@given(_STATE)
@example(_EVERY_THREAD_MIX)
@example({**_EVERY_THREAD_MIX, "bound": 1})
@example({**_EVERY_THREAD_MIX, "bound": None, "threshold": 1.0})
@settings(max_examples=150, deadline=None)
def test_vm_load_reads_like_the_reference(state):
    with _drawn_limits(state):
        cluster, _ = _build(state)
    now_ms = state["now_ms"]
    for vm in cluster.vms:
        utilization, full = vm.load(now_ms)
        assert (utilization, full) == reference.load(vm, now_ms)
        assert utilization == reference.utilization(vm, now_ms) == vm.utilization(now_ms)
        assert full == [t for t in vm.threads if reference.is_full(t.work_queue, now_ms)]
        assert vm.queue_depth(now_ms) == sum(
            reference.depth(t.work_queue, now_ms) for t in vm.threads if t.alive)
        # What lets ``load`` skip an idle queue.
        for queue in (t.work_queue for t in vm.threads):
            if not queue.busy_at(now_ms):
                assert queue.depth(now_ms) == 0 and not queue.is_full(now_ms)


@given(_STATE)
@example(_EVERY_THREAD_MIX)
@example({**_EVERY_THREAD_MIX, "bound": 1})
@settings(max_examples=150, deadline=None)
def test_spill_pool_is_the_reference_pool_in_the_same_order(state):
    with _drawn_limits(state):
        cluster, _ = _build(state)
        view = LoadView(cluster.schedulers[0], state["now_ms"])
        assert view.spill_pool() == reference.spill_pool(view)
        assert view.spill_pool() is view.spill_pool()  # one pass per placement


#: Pins naming a drained thread, a thread on a failed VM and a busy live
#: thread: only the last is a candidate, and it is busy, so the placement
#: spills past the cache holder on the failed VM.
_PINS_ON_DEAD_THREADS = {
    "vms": [
        {"threads": [_thread(alive=False), _thread([(0.0, 8.0)]), _thread()],
         "alive": True, "holds": {"k0"}},
        {"threads": [_thread(), _thread()], "alive": False, "holds": {"k0"}},
        {"threads": [_thread(), _thread([(0.0, 8.0)])], "alive": True, "holds": set()},
    ],
    "bound": 16, "threshold": 0.70, "now_ms": 5.0, "references": ["k0"],
    "pins": [0, 3, 1], "ghost_holds": set(), "seed": 0}

#: Unrestricted, every VM above the threshold while some threads are idle:
#: the unsaturated pool is empty, so the draw is over the idle threads.
_EVERY_VM_OVERLOADED = {
    "vms": [
        {"threads": [_thread([(0.0, 8.0)]), _thread()], "alive": True, "holds": {"k0"}},
        {"threads": [_thread([(0.0, 8.0), (0.0, 8.0)]), _thread([(0.0, 8.0)])],
         "alive": True, "holds": set()},
    ],
    "bound": 16, "threshold": 0.34, "now_ms": 5.0, "references": ["k0"],
    "pins": None, "ghost_holds": set(), "seed": 0}

#: A VM whose depth equals its live threads sits at utilization 1.0, which
#: is not above a threshold of 1.0: its idle thread is in the spill pool.
_SATURATED_AT_THRESHOLD_ONE = {
    "vms": [
        {"threads": [_thread([(0.0, 8.0)])], "alive": True, "holds": set()},
        {"threads": [_thread([(0.0, 8.0), (0.0, 8.0)]), _thread()],
         "alive": True, "holds": set()},
    ],
    "bound": None, "threshold": 1.0, "now_ms": 5.0, "references": [],
    "pins": [0], "ghost_holds": set(), "seed": 5}


@given(_STATE)
@example(_PINS_ON_DEAD_THREADS)
@example({**_PINS_ON_DEAD_THREADS, "pins": [0, 3]})  # every pin dead
@example(_EVERY_VM_OVERLOADED)
@example({**_EVERY_VM_OVERLOADED, "threshold": 0.0, "references": []})
@example(_SATURATED_AT_THRESHOLD_ONE)
@example({**_SATURATED_AT_THRESHOLD_ONE, "pins": None})
@settings(phases=[Phase.explicit], deadline=None)
def test_both_policies_place_like_the_reference_at_the_edges(state):
    """The spill's one pass, the unrestricted path that shares it and the
    candidate filter, on the states DR-25 turns on; each compares the chosen
    thread, the RNG state and the locality counts with the parent's."""
    with _drawn_limits(state):
        for shipped, parent in ((LocalityPlacementPolicy(),
                                 reference.ReferenceLocalityPolicy()),
                                (RandomPlacementPolicy(),
                                 reference.ReferenceRandomPolicy())):
            placed = _place(state, shipped)
            with mock.patch.object(Scheduler, "pick_executor",
                                   reference.pick_executor):
                assert placed == _place(state, parent)


def test_load_asks_the_queues_every_time():
    """No VM-side mirror: work admitted straight to a queue shows at once."""
    with mock.patch("repro.cloudburst.executor.WORK_QUEUE_BOUND", 2):
        cluster = CloudburstCluster(executor_vms=1, threads_per_vm=3, seed=3)
    vm = cluster.vms[0]
    first, second, _ = vm.threads
    assert vm.load(0.0) == (0.0, [])
    first.work_queue.admit(0.0)  # in service, never released through the VM
    assert vm.load(0.0) == reference.load(vm, 0.0) == (1 / 3, [])
    second.work_queue.release(second.work_queue.admit(0.0) + 4.0)
    second.work_queue.release(second.work_queue.admit(0.0) + 4.0)
    assert vm.load(1.0) == reference.load(vm, 1.0) == (1.0, [second])
    assert vm.load(9.0) == reference.load(vm, 9.0) == (1 / 3, [])
    # ...and the next placement sees it: the only idle thread of the VM.
    scheduler = cluster.schedulers[0]
    assert scheduler.pick_executor("f", [1], 1.0) is vm.threads[2]


def test_each_shipped_policy_defines_its_own_pick():
    """``benchmarks/perf/trace.py`` wraps ``vars(cls)["pick"]`` (DR-13)."""
    for policy in (LocalityPlacementPolicy, RandomPlacementPolicy):
        assert vars(policy)["pick"] is not PlacementPolicy.pick


def _touched_spill(policy):
    """A 22-thread cluster placed once at 10 ms, then written to; returns
    ``(scheduler, pin, touched queues, the VMs holding a depth-2 queue)``.

    Every queue ends an item at 1 ms before the first placement.  After it,
    at 12 ms: the pin is busy and its VM's other threads finished short
    items; vm-3 holds two reservations on one thread (utilization 2/3,
    kept); vm-4 has one thread in service with a later reservation and one
    busy (utilization 1.0, dropped though only two of three are busy); the
    4-thread vm-6 has three busy threads (3/4 > 0.7 from the counts alone)
    and an idle one nobody touched; the other VMs are as they were.
    """
    cluster = CloudburstCluster(executor_vms=6, threads_per_vm=3, seed=3)
    cluster.add_vm(threads=4)
    scheduler = cluster.schedulers[0]
    scheduler.placement_policy = policy
    for thread in scheduler._live_threads():
        thread.work_queue.release(thread.work_queue.admit(0.0) + 1.0)
    scheduler.pick_executor("f", [1], 10.0)  # the previous placement

    def item(thread, start_ms, end_ms):
        thread.work_queue.release(thread.work_queue.admit(start_ms) + end_ms - start_ms)
        return thread.work_queue

    vm = {v.vm_id: v.threads for v in cluster.vms}
    pin = vm["vm-1"][1]
    touched = {item(pin, 10.0, 60.0), item(vm["vm-1"][0], 10.0, 11.0),
               item(vm["vm-1"][2], 10.0, 11.0)}
    touched |= {item(vm["vm-3"][0], 10.0, 15.0), item(vm["vm-3"][0], 15.0, 20.0),
                item(vm["vm-3"][1], 10.0, 11.0), item(vm["vm-3"][2], 10.0, 11.0)}
    touched |= {item(vm["vm-4"][0], 10.0, 14.0), item(vm["vm-4"][1], 10.0, 13.0),
                item(vm["vm-4"][2], 10.0, 11.0)}
    vm["vm-4"][0].work_queue.admit(12.0)  # in service, a reservation to 14
    touched |= {item(thread, 10.0, 30.0) for thread in vm["vm-6"][:3]}
    return scheduler, pin, touched, [cluster.vm("vm-3"), cluster.vm("vm-4")]


def test_a_spilled_placement_reads_only_queues_written_since_the_last_one(monkeypatch):
    """One pin, busy: the placement spills over the cluster's idle roster.

    Since DR-30 the roster keeps the idle pool from the queue writes, so a
    spilled placement asks ``busy_at`` and ``depth`` of no queue that has
    not been admitted or released since the previous placement, and calls
    ``ExecutorVM.load`` only on a VM that holds a queue of depth 2 or more
    (plus, when pinned, the pinned VM's own read).  Pinned with counting
    wrappers and no timing, for the pinned and the unrestricted placement
    under both policies; the pool drawn from is the one-pass oracle's.
    """
    reads = {"busy_at": Counter(), "depth": Counter(), "load": Counter()}
    busy_at, depth, load = WorkQueue.busy_at, WorkQueue.depth, ExecutorVM.load

    def counted_busy_at(queue, at_ms):
        reads["busy_at"][queue] += 1
        return busy_at(queue, at_ms)

    def counted_depth(queue, at_ms):
        reads["depth"][queue] += 1
        return depth(queue, at_ms)

    def counted_load(vm, at_ms):
        reads["load"][vm] += 1
        return load(vm, at_ms)

    for policy in (LocalityPlacementPolicy(), RandomPlacementPolicy()):
        for pinned in (True, False):
            scheduler, pin, touched, deep = _touched_spill(policy)
            with monkeypatch.context() as patched:
                patched.setattr(WorkQueue, "busy_at", counted_busy_at)
                patched.setattr(WorkQueue, "depth", counted_depth)
                patched.setattr(ExecutorVM, "load", counted_load)
                for counter in reads.values():
                    counter.clear()
                chosen = scheduler.pick_executor(
                    "f", [1], 12.0, candidates=[pin] if pinned else None)
            assert chosen is not pin and not busy_at(chosen.work_queue, 12.0)  # it spilled
            assert set(reads["busy_at"]) | set(reads["depth"]) <= touched
            loaded = deep + [pin.vm] if pinned else deep
            assert reads["load"] == Counter(loaded)
            # Exactly the loads' reads, and the pinned pool's idle filter.
            queues = [t.work_queue for vm in loaded for t in vm.threads]
            assert reads["busy_at"] == Counter(queues + ([pin.work_queue] if pinned else []))
            assert reads["depth"] == Counter(q for q in queues if busy_at(q, 12.0))
            view = LoadView(scheduler, 12.0)
            oracle = reference.idle_spill_pool(view)
            assert view.idle_spill_pool() == oracle
            # Not the pin, vm-3's doubly reserved thread, vm-4 or vm-6.
            assert chosen in oracle and len(oracle) == 22 - 1 - 1 - 3 - 4
