"""The cluster's idle roster as a state machine, against the one-pass walk.

``IdleRoster`` (DESIGN.md DR-30) keeps the §4.3 spill's idle pool and the
live roster from the writes that change them: every ``admit`` and
``release`` of an executor thread's work queue and every ``alive`` write of
a thread or a VM.  Hypothesis interleaves those writes — whole items,
admits left in service, an item in service behind a later reservation,
thread and VM fail, recover and drain, direct ``alive`` writes, ``add_vm``
— with placements at times that go forward and back, under the overload
thresholds {0.0, 0.34, 0.70, 1.0} and queue bounds {None, 1, 2}.  After
every step the roster's pool must equal the walk it replaced
(``reference_placement.idle_spill_pool``), list for list and in order, and
its live threads must equal the walk's live roster.

The one-step ``add_vm`` (DR-31) is also compared, field for field, with the
parent's, which filed each thread through ``refresh``
(``reference_placement.add_vm_by_refresh``), after histories that leave
queues busy, in service, dead or drained and the roster moved either way.
"""

from unittest import mock

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import pytest

import reference_placement as reference
from repro.cloudburst import CloudburstCluster
from repro.cloudburst.policy import IdleRoster, LoadView

#: Item boundaries and placement times share one small grid, so ends land
#: exactly on placement times as often as before and after them.
TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 5.0, 8.0, 13.0, 21.0])
SERVICES = st.sampled_from([0.0, 0.5, 1.0, 3.0, 8.0])
PICK = st.integers(0, 63)


class RosterMachine(RuleBasedStateMachine):
    @initialize(bound=st.sampled_from([None, 1, 2]),
                sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4))
    def build(self, bound, sizes):
        self.bound = bound
        with mock.patch("repro.cloudburst.executor.WORK_QUEUE_BOUND", bound):
            self.cluster = CloudburstCluster(
                executor_vms=1, threads_per_vm=sizes[0], anna_nodes=2, seed=0)
            for size in sizes[1:]:
                self.cluster.add_vm(publish_metrics=False, threads=size)
        self.scheduler = self.cluster.schedulers[0]
        self.threshold = 0.70
        self.now = 0.0
        self.drained = set()

    # -- helpers ----------------------------------------------------------------
    def _thread(self, pick):
        threads = [t for vm in self.cluster.vms for t in vm.threads]
        return threads[pick % len(threads)]

    def _vm(self, pick):
        return self.cluster.vms[pick % len(self.cluster.vms)]

    @staticmethod
    def _in_service(queue):
        return queue._in_service_start is not None

    # -- queue writes -------------------------------------------------------------
    @rule(pick=PICK, at=TIMES, service=SERVICES)
    def item(self, pick, at, service):
        """A whole item, admitted and released (a queued one if the server
        is reserved past ``at``)."""
        queue = self._thread(pick).work_queue
        if not self._in_service(queue):
            queue.release(queue.admit(at) + service)

    @rule(pick=PICK, at=TIMES)
    def admit(self, pick, at):
        queue = self._thread(pick).work_queue
        if not self._in_service(queue):
            queue.admit(at)

    @rule(pick=PICK, service=SERVICES)
    def release(self, pick, service):
        queue = self._thread(pick).work_queue
        if self._in_service(queue):
            queue.release(queue._in_service_start + service)

    @rule(pick=PICK, at=TIMES, service=SERVICES)
    def in_service_behind_a_reservation(self, pick, at, service):
        """One item reserved, then the next admitted and left in service."""
        queue = self._thread(pick).work_queue
        if not self._in_service(queue):
            queue.release(queue.admit(at) + service)
            queue.admit(at)

    # -- alive writes ------------------------------------------------------------
    @rule(pick=PICK)
    def fail_vm(self, pick):
        self._vm(pick).fail()

    @rule(pick=PICK)
    def recover_vm(self, pick):
        vm = self._vm(pick)
        if vm not in self.drained:  # a drained VM has left for good
            vm.recover()

    @rule(pick=PICK)
    def drain_vm(self, pick):
        vm = self._vm(pick)
        self.cluster.drain_vm(vm)
        self.drained.add(vm)

    @rule(pick=PICK, alive=st.booleans())
    def write_thread_alive(self, pick, alive):
        self._thread(pick).alive = alive  # a drain, or a direct write

    @rule(pick=PICK, alive=st.booleans())
    def write_vm_alive(self, pick, alive):
        self._vm(pick).alive = alive

    @rule(size=st.integers(1, 4))
    def add_vm(self, size):
        with mock.patch("repro.cloudburst.executor.WORK_QUEUE_BOUND", self.bound):
            self.cluster.add_vm(publish_metrics=False, threads=size)

    # -- placements ---------------------------------------------------------------
    @rule(threshold=st.sampled_from([0.0, 0.34, 0.70, 1.0]))
    def set_threshold(self, threshold):
        self.threshold = threshold

    @rule(at=TIMES, pinned=st.one_of(st.none(), PICK))
    def place(self, at, pinned):
        """A real placement at ``at``, earlier or later than the last one."""
        self.now = at
        if not self.scheduler._live_threads():
            return
        candidates = None if pinned is None else [self._thread(pinned)]
        with mock.patch("repro.cloudburst.policy.OVERLOAD_THRESHOLD", self.threshold):
            chosen = self.scheduler.pick_executor("f", [1], at, candidates=candidates)
        assert chosen.alive and chosen.vm.alive

    @invariant()
    def the_pool_is_the_walk(self):
        if not hasattr(self, "scheduler"):
            return
        with mock.patch("repro.cloudburst.policy.OVERLOAD_THRESHOLD", self.threshold):
            pool = LoadView(self.scheduler, self.now).idle_spill_pool()
            assert pool == reference.idle_spill_pool(LoadView(self.scheduler, self.now))
        assert self.scheduler._live_threads() == reference.live_threads(self.scheduler)
        assert self.cluster.live_thread_count() == len(reference.live_threads(self.scheduler))


TestRosterMachine = RosterMachine.TestCase
TestRosterMachine.settings = settings(max_examples=300, stateful_step_count=40,
                                      deadline=None)


def test_an_item_in_service_behind_a_reservation_counts_twice():
    """DR-30's worked example: a 2-thread VM whose thread 0 is in service
    behind a reservation ending at 0.5 ms.  At 0 ms only one of its two
    threads is busy (1/2, under 0.7), but that queue holds two items, so
    the VM sits at utilization 1.0 and its idle thread is not in the pool."""
    cluster = CloudburstCluster(executor_vms=1, threads_per_vm=1, anna_nodes=2, seed=0)
    vm = cluster.add_vm(publish_metrics=False, threads=2)
    queue = vm.threads[0].work_queue
    queue.release(queue.admit(0.0) + 0.5)
    queue.admit(0.0)
    view = LoadView(cluster.schedulers[0], 0.0)
    assert vm.load(0.0)[0] == 1.0
    assert view.idle_spill_pool() == reference.idle_spill_pool(view) == cluster.vms[0].threads


def _fields(roster):
    """Every field of the roster, threads, queues and VMs by their ids."""
    ids = lambda threads: [thread.thread_id for thread in threads]  # noqa: E731
    by_vm = lambda counts: {vm.vm_id: value for vm, value in counts.items()}  # noqa: E731
    return {
        "live": ids(roster.live), "idle": ids(roster.idle), "now_ms": roster.now_ms,
        "live_at": roster._live_at, "idle_at": roster._idle_at,
        "threads": ids(roster._threads), "live_flags": roster._live_flags,
        "free_ms": roster._free_ms, "second_ms": roster._second_ms,
        "positions": sorted((queue.label, at) for queue, at in roster._positions.items()),
        "spans": by_vm(roster._spans), "free": roster._free, "second": roster._second,
        "in_service": sorted(roster._in_service),
        "live_count": by_vm(roster._live_count), "idle_count": by_vm(roster._idle_count),
        "mix": by_vm(roster._mix),
        "mixed": {key: sorted(vm.vm_id for vm in vms)
                  for key, vms in roster._mixed.items() if vms},
    }


def _move(cluster, now_ms):
    LoadView(cluster.schedulers[0], now_ms).idle_spill_pool()


def _busy(cluster):
    """Items ending at 0, 5 and 8 ms, one left in service, the roster at 3 ms:
    the new VM's run of ``_free`` lands between ends at and after its own."""
    threads = [thread for vm in cluster.vms for thread in vm.threads]
    for thread, end in zip(threads, (0.0, 5.0, 8.0, 0.0, 5.0)):
        thread.work_queue.release(thread.work_queue.admit(0.0) + end)
    threads[5].work_queue.admit(1.0)
    _move(cluster, 3.0)


def _moved_back(cluster):
    _busy(cluster)
    _move(cluster, 9.0)
    _move(cluster, 2.0)


def _dead_and_drained(cluster):
    _busy(cluster)
    cluster.vms[0].fail()
    cluster.vms[1].threads[0].alive = False
    cluster.drain_vm(cluster.vms[2])


@pytest.mark.parametrize("history", [lambda cluster: None, _busy, _moved_back,
                                     _dead_and_drained],
                         ids=["fresh", "busy", "moved-back", "dead-and-drained"])
def test_one_step_add_vm_files_like_a_refresh(monkeypatch, history):
    def grown(add_vm):
        cluster = CloudburstCluster(executor_vms=3, threads_per_vm=3, anna_nodes=2, seed=0)
        history(cluster)
        with monkeypatch.context() as patched:
            patched.setattr(IdleRoster, "add_vm", add_vm)
            for size in (2, 4):
                cluster.add_vm(publish_metrics=False, threads=size)
        return _fields(cluster.roster)

    assert grown(IdleRoster.add_vm) == grown(reference.add_vm_by_refresh)
