"""Overlapped (fan-out/fan-in) charging for batched operations.

The single-key read paths charge a request context sequentially: each fetch
advances the virtual clock by its full latency before the next one starts.
That is the right model for a loop in user code, but not for a batched call
that puts every sub-request on the wire before collecting any response —
there the *server-side* work still lands on each storage node's queue, while
the *caller* only waits for the slowest response plus a small per-request
dispatch cost.

:func:`run_overlapped` is the one implementation of that charge model, used
by ``ExecutorCache.multi_get``, ``AnnaCluster.multi_get`` and the Redis
baseline's ``mget`` so batch semantics stay comparable across tiers.  The
callers name only the tier they read from, its dispatch operation and the
service their ingress charge is booked to; every charge of the model is made
here:

* every item runs on a :meth:`~repro.sim.RequestContext.fork` of the caller's
  context, so per-item charges (queue waits, service times) are sampled and
  recorded exactly as in the sequential path;
* items after the first pay the tier's dispatch charge *on the caller* before
  their branch forks — dispatching N requests onto the NIC is still a serial
  act, so batching costs ``(N-1) * dispatch + max(item latencies)`` rather
  than ``sum(item latencies)``;
* :meth:`~repro.sim.RequestContext.join` then advances the caller's clock to
  the *max* branch completion and folds every branch's charge log back in;
* overlap hides round-trip *latency*, not the receiver's ingress bandwidth:
  N responses totalling S bytes still take ``S / bandwidth`` to stream into
  one NIC no matter how well their round trips overlap.  After the join the
  caller pays an ``ingress`` charge for everything *beyond* the largest
  response (whose own transfer the join's max already covers).  This is what
  keeps the fig5 cold path bandwidth-bound (ten 8 MB arrays cannot arrive
  10x faster by batching) while the fig12 regime of many tiny values
  collapses to a single round trip.

The caller's context is required: a batch always runs for a request
(DESIGN.md DR-22).  A batch of one is run directly on the caller's context —
no fork, no dispatch, no ingress charge — so it is byte-identical (same RNG
draws, same charge log) to the single-key path.  ``fork()`` consumes no RNG,
and ``run_one`` is invoked in item order, so the RNG stream of a batched run
is the same as the equivalent sequential loop's: only the *clock arithmetic*
differs.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

from .clock import RequestContext
from .latency import LatencyModel

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def run_overlapped(
    ctx: RequestContext,
    items: Sequence[ItemT],
    run_one: Callable[[ItemT, RequestContext], ResultT],
    latency_model: LatencyModel,
    service: str,
    dispatch: str,
    ingress: str,
    size_of: Callable[[ResultT], int],
) -> List[ResultT]:
    """Run ``run_one(item, branch_ctx)`` for every item with overlap charging.

    Args:
        ctx: the request context of the request the batch runs for.
        items: the batch, in dispatch order.
        run_one: performs one item's work, charging the context it is given.
            Exceptions propagate — partial-failure semantics belong to the
            caller (most callers map failures to ``None`` inside ``run_one``).
        latency_model: prices the dispatch and ingress charges.
        service: the tier every item reads from.  Its ``dispatch`` operation
            is charged on the caller for every item after the first, and its
            ``get`` bandwidth prices the ingress overflow.
        ingress: the service the ingress overflow is charged to, as
            ``(ingress, "ingress")``.
        size_of: the payload size of one result in bytes.

    Returns:
        ``run_one``'s results in item order.
    """
    if len(items) <= 1:
        # Byte-parity contract: a batch of one IS the single-key path.
        return [run_one(item, ctx) for item in items]
    results: List[ResultT] = []
    branches: List[RequestContext] = []
    for index, item in enumerate(items):
        if index > 0:
            latency_model.charge(ctx, service, dispatch)
        branch = ctx.fork()
        branches.append(branch)
        results.append(run_one(item, branch))
    ctx.join(branches)
    # Deterministic, no RNG draw: the bytes beyond the largest response.
    sizes = [size_of(result) for result in results]
    overflow = sum(sizes) - max(sizes)
    bandwidth = latency_model.cost(service, "get").bandwidth_bytes_per_ms
    if overflow > 0 and bandwidth:
        ctx.charge(ingress, "ingress", overflow / bandwidth)
    return results
