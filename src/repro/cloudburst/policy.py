"""Pluggable scheduler placement policies (§4.2-§4.3).

The scheduling *mechanism* (routing an invocation to an executor thread)
lives in :class:`~repro.cloudburst.scheduler.Scheduler`; the placement
*policy* — which thread to route to — is pluggable and lives here.  A policy
consumes the metadata executors publish to Anna: the key-to-cache index built
from the caches' periodic cached-key snapshots (locality, §4.2) and the
executor load signals (backpressure, §4.3).

Two policies ship with the reproduction:

* :class:`LocalityPlacementPolicy` — the paper's default: prefer the executor
  whose VM cache holds the most referenced keys, fall back to an unsaturated
  (least-loaded) executor, and spill onto the wider compute tier when every
  pinned replica is saturated, which is what replicates hot functions and hot
  data across the cluster over time.
* :class:`RandomPlacementPolicy` — ignores KVS references entirely (the
  scheduling ablation: same backpressure, no locality).

Custom policies subclass :class:`PlacementPolicy` and override
:meth:`~PlacementPolicy.pick`; a scheduler takes one by assigning
``scheduler.placement_policy``.  Policies are stateless with respect to the
scheduler (they receive it per call), so one instance can serve many
schedulers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from math import inf
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .references import CloudburstReference, extract_references

#: Executors above this utilization are avoided by the scheduling policy (§4.3).
OVERLOAD_THRESHOLD = 0.70


class IdleRoster:
    """The §4.3 spill's idle pool, kept by the writes that change it.

    One per cluster.  :meth:`add_vm` fills it in roster order — VM order,
    then thread order; a thread's index in that order is its *position* —
    and two kinds of write feed it, nothing else: each executor thread's
    :class:`~repro.sim.WorkQueue` tells it of every ``admit`` and
    ``release`` (the queue's ``watcher``), and every ``alive`` write of a
    thread or a VM calls :meth:`refresh`.  What it keeps is a function of
    those writes and of ``now_ms``:

    * ``live`` — the live threads (alive, on an alive VM), in roster order;
    * ``idle`` — the live threads whose queue is idle at ``now_ms``, in
      roster order;
    * every queue not in service, sorted by ``(next_free_ms, position)``;
    * the queues in service;
    * each queue's second-latest end, sorted the same way;
    * each VM's live and idle counts, and the VMs that hold both a busy
      and an idle live thread, grouped by their ``(busy, live)`` counts.

    A placement at ``now_ms`` moves the roster to that time, forward or
    back, flipping only the threads whose queue frees between the two
    times (:meth:`idle_pool`).  Nothing a placement derives is kept.
    """

    def __init__(self):
        #: Live threads, in roster order; ``_live_at`` holds their positions.
        self.live: List = []
        self._live_at: List[int] = []
        #: Live threads idle at ``now_ms``, in roster order.
        self.idle: List = []
        self._idle_at: List[int] = []
        self.now_ms = 0.0
        # By position: the thread, whether it is live, its queue's last end
        # (``next_free_ms``) and second-latest end (None below two ends).
        self._threads: List = []
        self._live_flags: List[bool] = []
        self._free_ms: List[float] = []
        self._second_ms: List[Optional[float]] = []
        self._positions: Dict[object, int] = {}  # work queue -> position
        self._spans: Dict[object, range] = {}  # VM -> its threads' positions
        # Sorted ``(end, position)``: each queue not in service by its last
        # end, each queue with two ends by its second-latest one.
        self._free: List[Tuple[float, int]] = []
        self._second: List[Tuple[float, int]] = []
        self._in_service: Set[int] = set()
        # By VM: live and idle live threads; the VMs with both busy and idle
        # live threads under their ``(busy, live)`` counts.
        self._live_count: Dict[object, int] = {}
        self._idle_count: Dict[object, int] = {}
        self._mix: Dict[object, Optional[Tuple[int, int]]] = {}
        self._mixed: Dict[Tuple[int, int], Set[object]] = {}

    # -- the writes ---------------------------------------------------------
    def add_vm(self, vm) -> None:
        """Append a newly built VM's threads (their queues are fresh)."""
        first = len(self._threads)
        for position, thread in enumerate(vm.threads, start=first):
            queue = thread.work_queue
            self._threads.append(thread)
            self._live_flags.append(False)
            self._free_ms.append(queue.next_free_ms)
            self._second_ms.append(None)
            self._positions[queue] = position
            insort(self._free, (queue.next_free_ms, position))
            queue.watcher = self
        self._spans[vm] = range(first, len(self._threads))
        self._live_count[vm] = self._idle_count[vm] = 0
        self._mix[vm] = None
        vm.roster = self
        self.refresh(vm)

    def refresh(self, vm) -> None:
        """Re-read the liveness of ``vm`` and its threads after an ``alive`` write."""
        vm_alive = vm.alive
        for position in self._spans[vm]:
            live = vm_alive and self._threads[position].alive
            if live == self._live_flags[position]:
                continue
            self._live_flags[position] = live
            index = bisect_left(self._live_at, position)
            if live:
                self._live_at.insert(index, position)
                self.live.insert(index, self._threads[position])
                self._live_count[vm] += 1
            else:
                del self._live_at[index], self.live[index]
                self._live_count[vm] -= 1
            if (position not in self._in_service
                    and self._free_ms[position] <= self.now_ms):  # idle
                self._flip(position, live)
            else:
                self._regroup(vm)

    def admitted(self, queue) -> None:
        """``queue`` admitted an item: it is in service, so busy at any time."""
        position = self._positions[queue]
        free_ms = self._free_ms[position]
        del self._free[bisect_left(self._free, (free_ms, position))]
        if self._live_flags[position] and free_ms <= self.now_ms:
            self._flip(position, False)
        self._in_service.add(position)

    def released(self, queue) -> None:
        """``queue`` released its item: it is free from its new last end."""
        position = self._positions[queue]
        self._in_service.remove(position)
        prior_ms = self._free_ms[position]
        free_ms = self._free_ms[position] = queue.next_free_ms
        insort(self._free, (free_ms, position))
        if queue.completed > 1:  # ``prior_ms`` is the end before this one
            second = self._second
            second_ms = self._second_ms[position]
            if second_ms is not None:
                del second[bisect_left(second, (second_ms, position))]
            self._second_ms[position] = prior_ms
            insort(second, (prior_ms, position))
        if self._live_flags[position] and free_ms <= self.now_ms:
            self._flip(position, True)

    # -- the read -----------------------------------------------------------
    def idle_pool(self, load: "LoadView") -> List:
        """Every idle live thread at ``load.now_ms`` whose VM is not
        overloaded, in roster order: ``idle`` itself when no VM is.

        A VM is overloaded exactly when ``(1.0 if depth >= alive else
        depth / alive) > OVERLOAD_THRESHOLD`` (:meth:`ExecutorVM.load
        <repro.cloudburst.executor.ExecutorVM.load>`), ``depth`` summed over
        its busy live queues.  Only a VM with an idle live thread matters,
        so ``busy < alive``; and each busy queue holds at least one item, so
        ``depth >= busy``.  Where no queue of the VM holds two items at
        ``now_ms``, ``depth`` *is* ``busy`` and the counts decide.  A queue
        holds two exactly when its second-latest end is after ``now_ms``, or
        it is in service and its last end is; only such a queue's VM has
        its load read, through ``load``, under the same test.  The returned
        list is the roster's own when nothing is excluded: read it before
        the next queue write.
        """
        now_ms = load.now_ms
        self._move(now_ms)
        excluded: Set[object] = set()
        for (busy, alive), vms in self._mixed.items():
            if vms and busy / alive > OVERLOAD_THRESHOLD:
                excluded |= vms
        second = self._second
        deep = []
        if second and second[-1][0] > now_ms:
            deep = [position for _, position
                    in second[bisect_right(second, (now_ms, inf)):]]
        if self._in_service:
            deep += [position for position in self._in_service
                     if self._threads[position].work_queue.next_free_ms > now_ms]
        for position in deep:
            vm = self._threads[position].vm
            if (self._live_flags[position] and self._idle_count[vm]
                    and vm not in excluded and load.vm_load(vm)[0]):
                excluded.add(vm)
        if not excluded:
            return self.idle
        return [thread for thread in self.idle if thread.vm not in excluded]

    # -- upkeep -------------------------------------------------------------
    def _move(self, now_ms: float) -> None:
        """Take ``idle`` at ``now_ms``: flip the live queues that free between."""
        then_ms = self.now_ms
        if now_ms == then_ms:
            return
        self.now_ms = now_ms
        free, live = self._free, self._live_flags
        later = now_ms > then_ms
        low, high = (then_ms, now_ms) if later else (now_ms, then_ms)
        for _, position in free[bisect_right(free, (low, inf)):
                                bisect_right(free, (high, inf))]:
            if live[position]:
                self._flip(position, later)

    def _flip(self, position: int, idle: bool) -> None:
        """A live thread turns idle (or busy) at ``now_ms``."""
        thread = self._threads[position]
        index = bisect_left(self._idle_at, position)
        if idle:
            self._idle_at.insert(index, position)
            self.idle.insert(index, thread)
            self._idle_count[thread.vm] += 1
        else:
            del self._idle_at[index], self.idle[index]
            self._idle_count[thread.vm] -= 1
        self._regroup(thread.vm)

    def _regroup(self, vm) -> None:
        """File ``vm`` under its ``(busy, live)`` counts if it is mixed."""
        alive, idle = self._live_count[vm], self._idle_count[vm]
        busy = alive - idle
        mix = (busy, alive) if busy and idle else None
        old = self._mix[vm]
        if mix != old:
            if old is not None:
                self._mixed[old].discard(vm)
            if mix is not None:
                self._mixed.setdefault(mix, set()).add(vm)
            self._mix[vm] = mix


class LoadView:
    """Executor load as one placement sees it, each number read at most once.

    Built for ``now_ms`` inside a policy's ``pick`` and dropped when it
    returns: nothing here outlives a placement.  A VM's
    :meth:`~repro.cloudburst.executor.ExecutorVM.load` (one queue-depth read
    per busy thread) is taken the first time one of its threads is asked
    about, and the §4.3 spill pool is one pass over the VM roster, made at
    most once.  The pool's idle part, which a spilled placement draws from,
    is the cluster's :class:`IdleRoster` (:meth:`idle_spill_pool`), which
    reads a load only where the answer could differ.
    """

    __slots__ = ("scheduler", "now_ms", "_vm_loads", "_spill_pool")

    def __init__(self, scheduler, now_ms: float):
        self.scheduler = scheduler
        self.now_ms = now_ms
        self._vm_loads: Dict[object, Tuple[bool, List]] = {}
        self._spill_pool: Optional[List] = None

    def vm_load(self, vm) -> Tuple[bool, List]:
        """``(overloaded, full)``: whether ``vm`` is above the overload
        threshold, and its threads whose work queue has no room."""
        read = self._vm_loads.get(vm)
        if read is None:
            utilization, full = vm.load(self.now_ms)
            read = self._vm_loads[vm] = (
                utilization > OVERLOAD_THRESHOLD, full)
        return read

    def unsaturated(self, threads: List) -> List:
        """Threads below the overload threshold with work-queue room."""
        pool = []
        for thread in threads:
            overloaded, full = self.vm_load(thread.vm)
            if not overloaded and thread not in full:
                pool.append(thread)
        return pool

    def spill_pool(self) -> List:
        """Every live unsaturated thread, in VM roster order (the §4.3 spill)."""
        pool = self._spill_pool
        if pool is None:
            pool = self._spill_pool = []
            for vm in self.scheduler.vms:
                if vm.alive:
                    overloaded, full = self.vm_load(vm)
                    if overloaded:
                        continue
                    if full:
                        pool.extend([t for t in vm.threads
                                     if t.alive and t not in full])
                    else:
                        pool.extend([t for t in vm.threads if t.alive])
        return pool

    def idle(self, threads: List) -> List:
        """Threads whose work queue is idle at dispatch time."""
        now_ms = self.now_ms
        return [t for t in threads if not t.work_queue.busy_at(now_ms)]

    def idle_spill_pool(self) -> List:
        """``idle(spill_pool())``: every idle live thread whose VM is not
        overloaded, in roster order, as the cluster's :class:`IdleRoster`
        keeps it (an idle thread is never full: a bound is positive)."""
        return self.scheduler.roster.idle_pool(self)


class PlacementPolicy:
    """Strategy interface: choose an executor thread for one invocation.

    ``pick`` receives the scheduler (for its RNG, stats
    and KVS handle), the candidate threads (already filtered to alive ones),
    whether the candidate set was restricted to pinned replicas, the
    invocation's arguments, and the virtual time of the placement.  It must
    return one of the scheduler's live threads — usually, but not
    necessarily, from ``threads``.  A policy that consults executor load
    builds one :class:`LoadView` per ``pick`` and reads everything from it.
    """

    def pick(self, scheduler, threads: List, function_name: str,
             args: Sequence, restricted: bool, now_ms: float):
        raise NotImplementedError

    # -- shared §4.3 backpressure helper -----------------------------------
    def least_loaded(self, threads: List, restricted: bool, load: LoadView):
        """Pick an unsaturated executor at random (backpressure, §4.3).

        Saturated executors are avoided, which is what replicates hot
        functions/data onto new nodes over time.  When every *pinned* replica
        is saturated the choice spills onto the wider compute tier — the
        chosen executor fetches and caches the function itself, replicating
        hot functions under load.

        Unrestricted, ``threads`` is the scheduler's whole live roster in
        roster order (what ``pick_executor`` passes), so its unsaturated
        pool *is* the spill pool.
        """
        pool = idle = None
        if restricted:
            # Prefer threads whose work queue is idle at dispatch time so
            # parallel clients fan out across the pool.
            pool = load.unsaturated(threads)
            idle = load.idle(pool)
        if not idle:
            # When every pinned replica is occupied, an idle thread anywhere
            # beats queueing behind the pin (same §4.3 spill).
            idle = load.idle_spill_pool()
        return load.scheduler.rng.choice(
            idle or pool or load.spill_pool() or load.idle(threads) or threads)


class LocalityPlacementPolicy(PlacementPolicy):
    """Locality-first placement with least-loaded fallback (§4.2-§4.3).

    Locality decisions consume the *published* cached-key snapshots: the
    key-to-cache index Anna builds from ``ExecutorCache.publish_cached_keys``
    is the only signal consulted, never the caches' private state.
    """

    def pick(self, scheduler, threads, function_name, args, restricted, now_ms):
        load = LoadView(scheduler, now_ms)
        references = extract_references(args)
        if references:
            chosen = self.pick_by_locality(threads, references, load)
            if chosen is not None:
                scheduler.stats.locality_hits += 1
                return chosen
            scheduler.stats.locality_misses += 1
        return self.least_loaded(threads, restricted, load)

    def pick_by_locality(self, threads,
                         references: List[CloudburstReference],
                         load: LoadView):
        """The executor whose VM cache holds the most referenced keys."""
        index = load.scheduler.kvs.cache_index
        # One tally per cache, from the holder sets; only threads whose VM
        # cache holds a referenced key are ranked.
        scores: Dict[str, int] = {}
        for reference in references:
            for cache_id in index.caches_for(reference.key):
                scores[cache_id] = scores.get(cache_id, 0) + 1
        if not scores:
            return None
        ranked = []
        for thread in threads:
            cached = scores.get(thread.vm.cache.cache_id)
            if cached:
                ranked.append((-cached, thread.thread_id, thread))
        ranked.sort(key=lambda item: item[:2])
        now_ms = load.now_ms
        for _, _, thread in ranked:
            if load.vm_load(thread.vm)[0]:
                continue  # its VM is above the overload threshold
            if thread.work_queue.busy_at(now_ms):
                # Queueing behind a busy cache-holder is exactly what the
                # §4.3 backpressure avoids: fall through so the request
                # spills to an idle executor, replicating the hot keys there.
                continue
            return thread
        return None


class RandomPlacementPolicy(PlacementPolicy):
    """Reference-blind placement (the scheduling ablation).

    Keeps the §4.3 backpressure (unsaturated pool, idle preference, spill)
    but never consults the key-to-cache index, so placement cannot follow
    data.
    """

    def pick(self, scheduler, threads, function_name, args, restricted, now_ms):
        return self.least_loaded(threads, restricted, LoadView(scheduler, now_ms))


#: Shared default instances (policies carry no per-scheduler state).
DEFAULT_PLACEMENT_POLICY = LocalityPlacementPolicy()
RANDOM_PLACEMENT_POLICY = RandomPlacementPolicy()
