#!/usr/bin/env python
"""Trace-driven diagnosis of the figure 12 cold-cache starvation (DR-7).

The fig12 sweep once showed its 160-thread point *losing* to smaller
clusters when caches started cold.  Request totals (``RequestContext``
charges) say latency went up but not where; this script answers *where*
with the observability plane: it runs a reduced 160-thread retwis point
twice — caches cold, then warmed exactly as ``run_figure12`` warms them —
with a sampling tracer attached, totals span time per tier and site, and
dumps the worst sampled request's spans as evidence.

Output (``--output``, default ``fig12_trace.json`` in the working directory):

* per-phase span-time breakdown by ``(tier, span name)``;
* the worst cold-phase trace as flat span records (``parent_id`` carries
  the tree);
* the summary table DR-7 quotes.

``docs/evidence/fig12_starvation_trace.json`` stays as recorded at PR 10: it
also holds a ``cold_sequential`` phase measured on the sequential read path
that DESIGN.md DR-9 deleted, which this script can no longer reproduce.

Usage::

    python benchmarks/diagnose_fig12.py
    python benchmarks/diagnose_fig12.py --threads 160 --requests 800
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.harness import (  # noqa: E402
    EngineLoadDriver,
    build_cluster_with_threads,
)
from repro.cloudburst import ConsistencyLevel  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.workloads.social import SocialWorkloadGenerator  # noqa: E402


def run_point(threads: int, requests: int, seed: int, warm: bool,
              sample_rate: float, user_count: int = 200,
              seed_tweets: int = 1_000):
    """One fig12-style point with a tracer attached; returns (sim, tracer)."""
    from repro.apps.retwis import RetwisOnCloudburst

    generator = SocialWorkloadGenerator(user_count=user_count,
                                        seed_tweet_count=seed_tweets,
                                        seed=seed)
    graph = generator.build_graph()
    tracer = Tracer(sample_rate=sample_rate)
    cluster = build_cluster_with_threads(
        threads, threads_per_vm=3, seed=seed + threads,
        consistency=ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL,
        tracer=tracer)
    app = RetwisOnCloudburst(cluster)
    app.load_graph(graph)
    if warm:
        # Exactly run_figure12's steady-state warm-up: hot followers/posts
        # lists replicate onto every executor cache before measurement.
        for warm_request in generator.request_stream(threads * 8):
            app.execute(warm_request)
    tracer.clear()  # measure only the driven phase
    stream = generator.request_stream(requests)

    def request(_cloud, ctx, index):
        app.execute(stream[index], ctx=ctx)

    sim = EngineLoadDriver(
        cluster, request, clients=threads, max_requests=requests,
        label=f"diagnose-{'warm' if warm else 'cold'}-{threads}t",
        record_charges=False, keep_latency_samples=False).run()
    return sim, tracer


def phase_report(sim, tracer) -> dict:
    """Collapse a phase's spans into the numbers DR-7 quotes.

    Span durations nest (a root covers its children), so the load-bearing
    numbers are the *leaf* sites — cache hits/misses, Anna queue/service,
    executor queue wait — normalized per sampled request.
    """
    totals: dict = {}
    counts: dict = {}
    for span in tracer.spans:
        site = f"{span.tier}/{span.name}"
        totals[site] = totals.get(site, 0.0) + span.duration_ms
        counts[site] = counts.get(site, 0) + 1
    by_site = {site: round(duration_ms, 1) for site, duration_ms in
               sorted(totals.items(), key=lambda item: -item[1])}
    # Misses issued one-at-a-time on the foreground path (the DR-7 convoy
    # shape).  Misses under a multi_get parent overlap in virtual time and
    # occupy the thread for ~one round trip total, so they don't count.
    multi_get_ids = {span.span_id for span in tracer.spans
                     if span.name == "multi_get"}
    sequential_misses = sum(
        1 for span in tracer.spans
        if span.name == "cache_miss" and span.parent_id not in multi_get_ids)
    traces = len(request_roots(tracer))
    per_request = {
        site: round(counts.get(site, 0) / max(traces, 1), 1)
        for site in ("cache/cache_miss", "cache/cache_hit",
                     "anna/kvs_queue", "executor/executor_queue")}
    per_request["sequential_misses"] = round(
        sequential_misses / max(traces, 1), 1)
    summary = sim.latencies.summary()
    return {
        "requests_per_s": round(sim.overall_throughput_per_s, 1),
        "median_ms": round(summary.median_ms, 2),
        "p99_ms": round(summary.p99_ms, 2),
        "traces": traces,
        "span_ms_by_site": by_site,
        "span_count_by_site": dict(sorted(counts.items(),
                                          key=lambda item: -item[1])),
        "spans_per_request": per_request,
        "mean_invoke_ms": round(
            sum(span.duration_ms for span in tracer.spans
                if span.name.startswith("invoke:")) /
            max(1, sum(1 for span in tracer.spans
                       if span.name.startswith("invoke:"))), 2),
    }


def request_roots(tracer) -> list:
    """The root span of each sampled request (background roots excluded)."""
    return [span for span in tracer.spans if span.parent_id is None
            and not (span.attrs or {}).get("background")]


def worst_trace(tracer) -> dict:
    """The sampled request whose root span ran longest, as its span records."""
    roots = [span for span in request_roots(tracer) if span.end_ms is not None]
    if not roots:
        return {}
    worst = max(roots, key=lambda span: span.duration_ms)
    return {
        "trace_id": worst.trace_id,
        "duration_ms": round(worst.duration_ms, 2),
        "spans": [span.to_dict() for span in tracer.spans
                  if span.trace_id == worst.trace_id],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=160)
    parser.add_argument("--requests", type=int, default=800)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample-rate", type=float, default=0.25)
    parser.add_argument("--output", default="fig12_trace.json")
    args = parser.parse_args(argv)

    phases = {}
    evidence = {}
    for label, warm in (("cold", False), ("warm", True)):
        print(f"running {args.threads}-thread retwis point, "
              f"{label} caches...", flush=True)
        sim, tracer = run_point(args.threads, args.requests, args.seed,
                                warm=warm, sample_rate=args.sample_rate)
        phases[label] = phase_report(sim, tracer)
        if label == "cold":
            evidence = worst_trace(tracer)
        print(f"  {phases[label]['requests_per_s']} req/s, "
              f"p99={phases[label]['p99_ms']}ms, "
              f"mean invoke {phases[label]['mean_invoke_ms']}ms, "
              f"per-request {phases[label]['spans_per_request']}")

    payload = {
        "what": "fig12 cold-cache diagnosis (DR-7/DR-8): span breakdown at "
                "the same thread count, cold vs warm caches",
        "threads": args.threads,
        "requests": args.requests,
        "seed": args.seed,
        "sample_rate": args.sample_rate,
        "phases": phases,
        "worst_cold_trace": evidence,
    }
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
