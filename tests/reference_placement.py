"""The placement code DR-13 replaced, kept as the reference.

A placement now builds one ``LoadView``: each VM's load is read at most once,
the §4.3 spill pool is one pass over the VM roster, ``pick_by_locality``
tallies a score per cache id, and ``WorkQueue.depth`` answers an idle queue
without a bisect.  All of that is host-only: the chosen thread, the state
``scheduler.rng`` is left in and the locality counters must be exactly what
these bodies — copied from the parent commit — produce.  They call each other
as plain functions, so nothing here runs the shipped load reads.
``tests/property/test_placement_reference.py`` compares placement by
placement; ``tests/integration/test_host_only_placement.py`` patches them in
with :func:`patch_in` and compares a whole seeded run.

DR-14 then made ``ExecutorVM.load`` ask only busy queues for their depth and
``LoadView.spill_pool`` skip the ``full`` filter for a VM with nothing full;
the bodies those replaced are :func:`load` and :func:`spill_pool` below.

DR-25 resolves pins through the cluster's thread-id map, takes the spill's
idle pool in one pass and builds the live roster once per placement; the
parent's :func:`pinned_threads`, :func:`least_loaded` and
:func:`pick_executor` below are what it must agree with.

DR-30 keeps the idle pool and the live roster in the cluster's
``IdleRoster``, fed by every queue write and ``alive`` write; the one pass
it replaced is :func:`idle_spill_pool`, the oracle the roster must equal,
list for list.
"""

from bisect import bisect_right
from typing import List, Tuple

from repro.cloudburst import (
    ExecutorVM,
    LocalityPlacementPolicy,
    PlacementPolicy,
    RandomPlacementPolicy,
    Scheduler,
)
from repro.cloudburst import policy
from repro.cloudburst.policy import LoadView
from repro.cloudburst.references import extract_references
from repro.errors import SchedulingError
from repro.sim import WorkQueue


# -- load reads ----------------------------------------------------------------
def depth(queue: WorkQueue, at_ms: float) -> int:
    """``WorkQueue.depth``: a bisect over the queue's whole history."""
    pending = len(queue._ends) - bisect_right(queue._ends, at_ms)
    if queue._in_service_start is not None:
        pending += 1
    return pending


def is_full(queue: WorkQueue, at_ms: float) -> bool:
    return queue.bound is not None and depth(queue, at_ms) >= queue.bound


def utilization(vm: ExecutorVM, at_ms=None) -> float:
    """``ExecutorVM.utilization``: one pass to count, one to sum depths."""
    alive = sum(1 for thread in vm.threads if thread.alive)
    if not alive:
        return 1.0 if vm.threads else 0.0
    if at_ms is None:
        at_ms = vm.engine.now_ms
    queued = sum(depth(thread.work_queue, at_ms)
                 for thread in vm.threads if thread.alive)
    return min(1.0, queued / alive)


def load(vm: ExecutorVM, at_ms: float) -> Tuple[float, List]:
    """``ExecutorVM.load`` before DR-14: one depth read per thread, idle or not."""
    alive = queued_total = 0
    full: List = []
    for thread in vm.threads:
        queue = thread.work_queue
        queued = depth(queue, at_ms)
        if thread.alive:
            alive += 1
            queued_total += queued
        if queue.bound is not None and queued >= queue.bound:
            full.append(thread)
    if not alive:
        return (1.0 if vm.threads else 0.0), full
    return min(1.0, queued_total / alive), full


def spill_pool(view: LoadView) -> List:
    """``LoadView.spill_pool`` before DR-14: every thread filtered through
    ``full``, on :func:`load` above, nothing memoised."""
    pool: List = []
    for vm in view.scheduler.vms:
        if vm.alive:
            utilization, full = load(vm, view.now_ms)
            if not utilization > policy.OVERLOAD_THRESHOLD:
                pool.extend([t for t in vm.threads if t.alive and t not in full])
    return pool


def idle_spill_pool(view: LoadView) -> List:
    """``LoadView.idle_spill_pool`` before DR-30: one walk of the VM roster.

    Each live queue is asked ``busy_at`` once; a VM with both idle and busy
    live threads sums the depths of its busy live queues (or reuses a load
    the placement already read) and drops its idle threads if that
    overloads it.
    """
    now_ms = view.now_ms
    pool, busy = [], []
    for vm in view.scheduler.vms:
        if not vm.alive:
            continue
        start = len(pool)
        for thread in vm.threads:
            if thread.alive:
                queue = thread.work_queue
                if queue.busy_at(now_ms):
                    busy.append(queue)
                else:
                    pool.append(thread)
        if busy:
            idle = len(pool) - start
            if idle:
                read = view._vm_loads.get(vm)
                if read is None:
                    depth = 0
                    for queue in busy:
                        depth += queue.depth(now_ms)
                    alive = idle + len(busy)
                    overloaded = (1.0 if depth >= alive
                                  else depth / alive) > policy.OVERLOAD_THRESHOLD
                else:
                    overloaded = read[0]
                if overloaded:
                    del pool[start:]
            busy = []
    return pool


# -- the scheduler's thread lists -----------------------------------------------
def live_threads(scheduler) -> List:
    threads: List = []
    for vm in scheduler.vms:
        if not vm.alive:
            continue
        threads.extend(t for t in vm.threads if t.alive)
    return threads


def pinned_threads(scheduler, name: str) -> List:
    by_id = {thread.thread_id: thread for thread in live_threads(scheduler)}
    return [by_id[tid] for tid in scheduler.function_pins.get(name, []) if tid in by_id]


def pick_executor(self, function_name, args, now_ms, candidates=None):
    """``Scheduler.pick_executor`` before DR-25: the live roster re-filtered."""
    restricted = bool(candidates)
    threads = candidates if candidates else self._live_threads()
    threads = [t for t in threads if t.alive and t.vm.alive]
    if not threads:
        threads = self._live_threads()
        restricted = False
    if not threads:
        raise SchedulingError("no live executors available")
    return self.placement_policy.pick(self, threads, function_name, args,
                                      restricted, now_ms)


# -- §4.3 backpressure: utilization re-summed for every thread --------------------
def unsaturated(scheduler, threads: List, now_ms: float) -> List:
    return [t for t in threads
            if utilization(t.vm, now_ms) <= policy.OVERLOAD_THRESHOLD
            and not is_full(t.work_queue, now_ms)]


def least_loaded(scheduler, threads: List, restricted: bool, now_ms: float):
    pool = unsaturated(scheduler, threads, now_ms)
    if not pool and restricted:
        pool = unsaturated(scheduler, live_threads(scheduler), now_ms)
    pool = pool or threads
    idle = [t for t in pool if not t.work_queue.busy_at(now_ms)]
    if not idle and restricted:
        idle = [t for t in unsaturated(scheduler, live_threads(scheduler), now_ms)
                if not t.work_queue.busy_at(now_ms)]
    return scheduler.rng.choice(idle or pool)


# -- §4.2 locality: every candidate thread scored against every holder set -------
def pick_by_locality(scheduler, threads, references, now_ms: float):
    index = scheduler.kvs.cache_index
    holders = [index.caches_for(ref.key) for ref in references]
    scores: List[Tuple[int, str, object]] = []
    for thread in threads:
        cache_id = thread.vm.cache.cache_id
        cached = sum(1 for caches in holders if cache_id in caches)
        scores.append((cached, thread.thread_id, thread))
    scores.sort(key=lambda item: (-item[0], item[1]))
    for cached, _, thread in scores:
        if cached <= 0:
            break
        if utilization(thread.vm, now_ms) > policy.OVERLOAD_THRESHOLD:
            continue
        if thread.work_queue.busy_at(now_ms):
            continue
        return thread
    return None


# -- the two shipped policies, on the bodies above --------------------------------
def locality_pick(self, scheduler, threads, function_name, args, restricted, now_ms):
    references = extract_references(args)
    if references:
        chosen = pick_by_locality(scheduler, threads, references, now_ms)
        if chosen is not None:
            scheduler.stats.locality_hits += 1
            return chosen
        scheduler.stats.locality_misses += 1
    return least_loaded(scheduler, threads, restricted, now_ms)


def random_pick(self, scheduler, threads, function_name, args, restricted, now_ms):
    return least_loaded(scheduler, threads, restricted, now_ms)


class ReferenceLocalityPolicy(PlacementPolicy):
    pick = locality_pick


class ReferenceRandomPolicy(PlacementPolicy):
    pick = random_pick


def patch_in(monkeypatch) -> None:
    """Run the system on the reference placement until the test ends."""
    monkeypatch.setattr(LocalityPlacementPolicy, "pick", locality_pick)
    monkeypatch.setattr(RandomPlacementPolicy, "pick", random_pick)
    monkeypatch.setattr(Scheduler, "pinned_threads", pinned_threads)
    monkeypatch.setattr(Scheduler, "pick_executor", pick_executor)
    monkeypatch.setattr(Scheduler, "_live_threads", live_threads)
    monkeypatch.setattr(ExecutorVM, "utilization", utilization)
    monkeypatch.setattr(ExecutorVM, "load", load)
    monkeypatch.setattr(WorkQueue, "depth", depth)
