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
:meth:`~PlacementPolicy.pick`; schedulers take one via the
``placement_policy`` constructor parameter or by assigning
``scheduler.placement_policy``.  Policies are stateless with respect to the
scheduler (they receive it per call), so one instance can serve many
schedulers.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .references import CloudburstReference, extract_references


class PlacementPolicy:
    """Strategy interface: choose an executor thread for one invocation.

    ``pick`` receives the scheduler (for its RNG, overload threshold, stats
    and KVS handle), the candidate threads (already filtered to alive ones),
    whether the candidate set was restricted to pinned replicas, the
    invocation's arguments, and the virtual time of the placement.  It must
    return one of the scheduler's live threads — usually, but not
    necessarily, from ``threads``.
    """

    def pick(self, scheduler, threads: List, function_name: str,
             args: Sequence, restricted: bool, now_ms: float):
        raise NotImplementedError

    # -- shared §4.3 backpressure helpers ----------------------------------
    def unsaturated(self, scheduler, threads: List, now_ms: float) -> List:
        """Threads below the overload threshold with work-queue room."""
        return [t for t in threads
                if t.vm.utilization(now_ms) <= scheduler.overload_threshold
                and not t.work_queue.is_full(now_ms)]

    def least_loaded(self, scheduler, threads: List, restricted: bool,
                     now_ms: float):
        """Pick an unsaturated executor at random (backpressure, §4.3).

        Saturated executors are avoided, which is what replicates hot
        functions/data onto new nodes over time.  When every *pinned* replica
        is saturated the choice spills onto the wider compute tier — the
        chosen executor fetches and caches the function itself, replicating
        hot functions under load.
        """
        pool = self.unsaturated(scheduler, threads, now_ms)
        if not pool and restricted:
            pool = self.unsaturated(scheduler, scheduler._live_threads(), now_ms)
        pool = pool or threads
        # Prefer threads whose work queue is idle at dispatch time so
        # parallel clients fan out across the pool; when every pinned replica
        # is occupied, an idle thread anywhere beats queueing behind the pin
        # (same §4.3 spill).
        idle = [t for t in pool if not t.work_queue.busy_at(now_ms)]
        if not idle and restricted:
            idle = [t for t in self.unsaturated(
                        scheduler, scheduler._live_threads(), now_ms)
                    if not t.work_queue.busy_at(now_ms)]
        return scheduler.rng.choice(idle or pool)


class LocalityPlacementPolicy(PlacementPolicy):
    """Locality-first placement with least-loaded fallback (§4.2-§4.3).

    Locality decisions consume the *published* cached-key snapshots: the
    key-to-cache index Anna builds from ``ExecutorCache.publish_cached_keys``
    is the only signal consulted, never the caches' private state.
    """

    def pick(self, scheduler, threads, function_name, args, restricted, now_ms):
        references = extract_references(args)
        if references:
            chosen = self.pick_by_locality(scheduler, threads, references, now_ms)
            if chosen is not None:
                scheduler.stats.locality_hits += 1
                return chosen
            scheduler.stats.locality_misses += 1
        return self.least_loaded(scheduler, threads, restricted, now_ms)

    def pick_by_locality(self, scheduler, threads,
                         references: List[CloudburstReference],
                         now_ms: float):
        """The executor whose VM cache holds the most referenced keys."""
        index = scheduler.kvs.cache_index
        # caches_for copies the index's set: look each reference up once.
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
            if thread.vm.utilization(now_ms) > scheduler.overload_threshold:
                continue
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
        return self.least_loaded(scheduler, threads, restricted, now_ms)


#: Shared default instances (policies carry no per-scheduler state).
DEFAULT_PLACEMENT_POLICY = LocalityPlacementPolicy()
RANDOM_PLACEMENT_POLICY = RandomPlacementPolicy()
