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

from typing import Dict, List, Optional, Sequence, Tuple

from .references import CloudburstReference, extract_references

#: Executors above this utilization are avoided by the scheduling policy (§4.3).
OVERLOAD_THRESHOLD = 0.70


class LoadView:
    """Executor load as one placement sees it, each number read at most once.

    Built for ``now_ms`` inside a policy's ``pick`` and dropped when it
    returns: nothing here outlives a placement.  A VM's
    :meth:`~repro.cloudburst.executor.ExecutorVM.load` (one queue-depth read
    per thread) is taken the first time one of its threads is asked about,
    and the §4.3 spill pool is one pass over the VM roster, made at most once.
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
        """
        pool = load.unsaturated(threads)
        if not pool and restricted:
            pool = load.spill_pool()
        pool = pool or threads
        # Prefer threads whose work queue is idle at dispatch time so
        # parallel clients fan out across the pool; when every pinned replica
        # is occupied, an idle thread anywhere beats queueing behind the pin
        # (same §4.3 spill).
        idle = load.idle(pool)
        if not idle and restricted:
            idle = load.idle(load.spill_pool())
        return load.scheduler.rng.choice(idle or pool)


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
