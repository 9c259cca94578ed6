#!/usr/bin/env python
"""Run the throughput benchmarks and emit a machine-readable snapshot.

Produces ``BENCH_throughput.json`` (median / p99 / requests-per-second for
Figures 5, 6, 7, 10 and 12, plus the engine-driven consistency experiments:
Figure 8 per-level latency and Table 2 anomaly counts) so successive PRs have
a perf trajectory to compare against.  Everything runs the real Cloudburst
stack under the discrete-event engine — including, since the storage tier
moved onto it, the Anna nodes themselves (bounded work queues, quorum-of-1
writes, anti-entropy gossip); the snapshot also records wall-clock runtime of
each harness, which is the number future performance PRs want to push down.

The run is also a regression gate (the job CI runs on every push): it exits
nonzero if the consistency invariants break (LWW == 0,
SK >= MK-increment >= 0, SK <= MK <= DSC cumulative, DSRR < SK), if the
Figure 5/6 paper orderings flip (hot cache < cold < Redis < S3 at 8 MB, the
S3/Redis crossover at 80 MB, Cloudburst gather beating the Lambda gathers),
or if the Figure 7 compute control plane misbehaves (no scale-up under load,
allocation not returning to baseline after the burst, no §4.4 pin migration
at scale-down, or calls routed to drained executor threads).  It also gates
engine speed itself: the ``engine_throughput`` section (events/sec from
``repro.bench.enginebench``) must stay above the recorded floor, and the
fig10/fig12 scaling sweeps — run at the paper's full request budgets in every
mode — must keep their 160-vs-10-thread speedup ratios.

On top of the fixed thresholds, every run is appended to the historical
bench ledger (``bench_ledger.sqlite``, see ``repro.bench.ledger``) and
trend-gated against its own history: key throughput metrics must stay within
15% of the median of the last five recorded runs.  An empty ledger is seeded
from the committed snapshot; a corrupt or missing one degrades to the fixed
thresholds with a warning.  Section-by-section schema documentation lives in
``docs/BENCH_SCHEMA.md``.

Usage::

    python benchmarks/run_all.py                  # default (reduced) scale
    python benchmarks/run_all.py --quick          # smallest scale, same gates
    python benchmarks/run_all.py --full           # benchmark-default scale
    python benchmarks/run_all.py --output out.json --seed 3
    python benchmarks/run_all.py --no-ledger      # skip the history/trend gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Snapshot layout version; docs/BENCH_SCHEMA.md documents it and its history.
SCHEMA_VERSION = 10
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import (  # noqa: E402
    apply_ledger,
    engine_throughput_errors,
    fault_recovery_errors,
    run_engine_micro,
    run_fault_recovery,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure10,
    run_figure12,
    run_table2,
)
from repro.obs import Tracer, write_chrome_trace, write_span_dump  # noqa: E402


def _summary(recorder) -> dict:
    stats = recorder.summary()
    return {
        "count": stats.count,
        "median_ms": round(stats.median_ms, 3),
        "p99_ms": round(stats.p99_ms, 3),
    }


def snapshot_figure5(seed: int, requests_per_size: int,
                     sizes=("8MB", "80MB")) -> dict:
    started = time.time()
    sweep = run_figure5(requests_per_size=requests_per_size, sizes=sizes,
                        seed=seed)
    return {
        "driver": "engine",
        "sizes": {
            label: {system: _summary(recorder)
                    for system, recorder in point.recorders.items()}
            for label, point in sweep.points.items()
        },
        "wall_seconds": round(time.time() - started, 2),
    }


def snapshot_figure6(seed: int, repetitions: int) -> dict:
    started = time.time()
    result = run_figure6(repetitions=repetitions, seed=seed)
    return {
        "driver": "engine",
        "systems": {system: _summary(recorder)
                    for system, recorder in result.recorders.items()},
        "wall_seconds": round(time.time() - started, 2),
    }


def _median(section: dict, system: str) -> float:
    return section[system]["median_ms"]


def figure5_ordering_errors(fig5: dict) -> list:
    """The paper's Figure 5 orderings, checked on the snapshot payload."""
    errors = []
    sizes = fig5["sizes"]
    small = sizes.get("8MB")
    if small is not None:
        chain = ["Cloudburst (Hot)", "Cloudburst (Cold)",
                 "Lambda (Redis)", "Lambda (S3)"]
        for faster, slower in zip(chain, chain[1:]):
            if not _median(small, faster) < _median(small, slower):
                errors.append(f"fig5@8MB: expected {faster} < {slower}, got "
                              f"{_median(small, faster):.2f} >= "
                              f"{_median(small, slower):.2f} ms")
        if not _median(small, "Cloudburst (Hot)") * 10 < \
                _median(small, "Lambda (Redis)"):
            errors.append("fig5@8MB: hot cache no longer >10x faster than "
                          "Lambda over Redis")
    large = sizes.get("80MB")
    if large is not None:
        if not _median(large, "Lambda (S3)") < _median(large, "Lambda (Redis)"):
            errors.append("fig5@80MB: the S3/Redis bandwidth crossover flipped")
        if not _median(large, "Cloudburst (Hot)") * 4 < \
                _median(large, "Cloudburst (Cold)"):
            errors.append("fig5@80MB: hot cache no longer >4x faster than cold")
    return errors


def figure6_ordering_errors(fig6: dict) -> list:
    """The paper's Figure 6 orderings, checked on the snapshot payload."""
    errors = []
    systems = fig6["systems"]
    chain = [("Cloudburst (gather)", "Cloudburst (gossip)"),
             ("Cloudburst (gossip)", "Lambda+Dynamo (gather)"),
             ("Lambda+Redis (gather)", "Lambda+S3 (gather)")]
    for faster, slower in chain:
        if not _median(systems, faster) < _median(systems, slower):
            errors.append(f"fig6: expected {faster} < {slower}, got "
                          f"{_median(systems, faster):.2f} >= "
                          f"{_median(systems, slower):.2f} ms")
    if not _median(systems, "Cloudburst (gather)") * 5 < \
            _median(systems, "Lambda+Redis (gather)"):
        errors.append("fig6: Cloudburst gather no longer >5x faster than "
                      "Lambda+Redis gather")
    return errors


def figure7_controlplane_errors(fig7: dict) -> list:
    """The compute control plane's autoscaling invariants (§4.4).

    Checked on the snapshot payload: the autoscaler must scale up under the
    load burst, return the allocation near (at or below) the baseline after
    the burst, migrate pinned functions off the drained executors, and never
    route a call to a drained thread.
    """
    errors = []
    control = fig7.get("controlplane")
    if control is None:
        return ["fig7: control-plane section missing from the snapshot"]
    if control["peak_threads"] <= control["baseline_threads"]:
        errors.append(
            f"fig7: autoscaler never scaled up under load (peak "
            f"{control['peak_threads']} <= baseline {control['baseline_threads']})")
    if control["final_threads"] > control["baseline_threads"]:
        errors.append(
            f"fig7: allocation did not return to baseline after the burst "
            f"(final {control['final_threads']} > baseline "
            f"{control['baseline_threads']})")
    if control["migrations"] <= 0:
        errors.append("fig7: scale-down migrated no pinned functions "
                      "(§4.4 pin migration broken)")
    if control["calls_routed_to_drained"] != 0:
        errors.append(
            f"fig7: {control['calls_routed_to_drained']} call(s) routed to "
            f"drained executor threads")
    return errors


def scaling_curve_errors(name: str, fig: dict, min_ratio: float) -> list:
    """Paper-shaped scaling: 160 threads must beat 10 by ``min_ratio``x.

    Run at full paper request budgets in every mode (the engine optimization
    pass made that affordable), so there is no reduced-budget relaxation: a
    160-thread point that starves — the regression the old scale-aware
    assertion papered over — fails the gate outright.
    """
    errors = []
    by_threads = {point["threads"]: point["requests_per_s"]
                  for point in fig["points"]}
    low, high = by_threads.get(10), by_threads.get(160)
    if low is None or high is None:
        return [f"{name}: scaling sweep missing the 10- or 160-thread point"]
    if not high > min_ratio * low:
        errors.append(
            f"{name}: 160 threads gives {high:.1f} req/s, not >{min_ratio}x "
            f"the 10-thread {low:.1f} req/s (scaling collapsed)")
    return errors


def snapshot_observability(tracer: Tracer, output_dir: Path) -> dict:
    """Export the figure 7 trace and summarize what the tracer captured.

    Writes the raw span dump (``BENCH_spans_fig7.json``) and the
    Perfetto-loadable Chrome trace (``BENCH_trace_fig7.json``) next to the
    snapshot, and returns the section CI gates on: a sampled figure 7 run
    must produce at least one trace with spans on every tier and no orphan
    spans (a broken parent link means span propagation regressed somewhere
    between the client and the storage tier).
    """
    trace_ids = tracer.trace_ids()
    span_path = write_span_dump(
        output_dir / "BENCH_spans_fig7.json", tracer,
        meta={"source": "figure7", "sample_rate": tracer.sample_rate,
              "traces": len(trace_ids)})
    chrome_path = write_chrome_trace(output_dir / "BENCH_trace_fig7.json", tracer)
    return {
        "source": "figure7",
        "sample_rate": tracer.sample_rate,
        "traces": len(trace_ids),
        "spans": len(tracer),
        "orphan_spans": len(tracer.orphan_spans()),
        "tiers": sorted(tracer.tiers()),
        "span_dump": span_path.name,
        "chrome_trace": chrome_path.name,
    }


def observability_errors(obs: dict) -> list:
    """The tracing plane's own invariants, checked on the snapshot payload."""
    errors = []
    if obs["traces"] <= 0:
        errors.append("observability: sampled figure 7 run produced no traces")
    if obs["orphan_spans"] != 0:
        errors.append(f"observability: {obs['orphan_spans']} orphan span(s) — "
                      f"a parent id points outside the recorded span set")
    missing = {"client", "scheduler", "executor", "cache", "anna"} - set(obs["tiers"])
    if obs["traces"] > 0 and missing:
        errors.append(f"observability: no spans on tier(s) {sorted(missing)} — "
                      f"the causal trace no longer covers the full request path")
    return errors


def collect_gate_errors(payload: dict) -> list:
    """Every invariant the bench snapshot gates CI on, as error strings."""
    errors = list(payload["table2_anomalies"]["invariant_violations"])
    errors += figure5_ordering_errors(payload["figure5_locality"])
    errors += figure6_ordering_errors(payload["figure6_aggregation"])
    errors += figure7_controlplane_errors(payload["figure7_autoscaling"])
    errors += scaling_curve_errors("fig10", payload["figure10_prediction_scaling"],
                                   min_ratio=8.0)
    errors += scaling_curve_errors("fig12", payload["figure12_retwis_scaling"],
                                   min_ratio=6.0)
    errors += engine_throughput_errors(payload["engine_throughput"])
    errors += fault_recovery_errors(payload["fault_recovery"])
    errors += observability_errors(payload["observability"])
    return errors


def snapshot_figure7(seed: int, scale: str, tracer=None) -> dict:
    started = time.time()
    if scale == "full":
        experiment = run_figure7(seed=seed, tracer=tracer)
    else:
        from repro.cloudburst.monitoring import MonitoringConfig

        if scale == "quick":
            kwargs = dict(initial_threads=6, client_count=8,
                          load_duration_s=10.0, total_duration_s=15.0,
                          monitoring_config=MonitoringConfig(
                              vms_per_scale_up=1, node_startup_delay_ms=5_000.0,
                              max_vms=6))
        else:
            kwargs = dict(initial_threads=6, client_count=12,
                          load_duration_s=20.0, total_duration_s=30.0,
                          monitoring_config=MonitoringConfig(
                              vms_per_scale_up=1, node_startup_delay_ms=5_000.0,
                              max_vms=10))
        experiment = run_figure7(policy_interval_ms=2_500.0, seed=seed,
                                 tracer=tracer, **kwargs)
    sim = experiment.simulation
    return {
        "initial_threads": experiment.initial_threads,
        "clients": experiment.client_count,
        "requests_per_s": round(sim.overall_throughput_per_s, 2),
        "peak_requests_per_s": round(experiment.peak_throughput_per_s, 2),
        "completed_requests": sim.completed_requests,
        "capacity_timeline": sim.capacity_timeline,
        "latency": _summary(sim.latencies),
        "storage": experiment.storage_stats,
        "storage_node_timeline": list(experiment.storage_node_timeline),
        # The §4.4 loop's own accounting (publish ticks, scale events, pin
        # migrations); gated by figure7_controlplane_errors in CI.
        "controlplane": (experiment.control_plane.snapshot()
                         if experiment.control_plane else None),
        "wall_seconds": round(time.time() - started, 2),
    }


def snapshot_scaling(run, thread_counts, requests_per_point, seed: int,
                     **kwargs) -> dict:
    started = time.time()
    result = run(thread_counts=thread_counts,
                 requests_per_point=requests_per_point, seed=seed, **kwargs)
    wall_seconds = time.time() - started
    return {
        "requests_per_point": requests_per_point,
        # Host speed of the whole sweep (set-up included): the ledger's
        # wallclock trend row for the simulator itself.  Both sweeps run at
        # full paper budget in every mode, so the row is scale-invariant.
        "sim_requests_per_wall_s": round(
            len(result.points) * requests_per_point / wall_seconds, 2),
        "points": [
            {
                "threads": point.threads,
                "clients": point.clients,
                "requests_per_s": round(point.throughput_per_s, 2),
                "median_ms": round(point.median_ms, 3),
                "p99_ms": round(point.p99_ms, 3),
            }
            for point in result.points
        ],
        "wall_seconds": round(wall_seconds, 2),
    }


def snapshot_figure8(seed: int, requests_per_level: int, dag_count: int,
                     populated_keys: int, executor_vms: int, clients: int,
                     propagation_interval_ms: float) -> dict:
    started = time.time()
    result = run_figure8(requests_per_level=requests_per_level,
                         dag_count=dag_count, populated_keys=populated_keys,
                         executor_vms=executor_vms, clients=clients,
                         propagation_interval_ms=propagation_interval_ms,
                         seed=seed)
    return {
        "clients": clients,
        "propagation_interval_ms": propagation_interval_ms,
        "levels": {label: _summary(recorder)
                   for label, recorder in result.comparison.recorders.items()},
        "metadata_overhead_bytes": {
            level: {"median": round(oh.median_bytes, 1),
                    "p99": round(oh.p99_bytes, 1)}
            for level, oh in result.metadata_overhead.items()
        },
        "wall_seconds": round(time.time() - started, 2),
    }


def snapshot_table2(seed: int, executions: int, dag_count: int,
                    populated_keys: int, executor_vms: int, clients: int,
                    propagation_interval_ms: float) -> dict:
    started = time.time()
    report = run_table2(executions=executions, dag_count=dag_count,
                        populated_keys=populated_keys,
                        executor_vms=executor_vms, clients=clients,
                        propagation_interval_ms=propagation_interval_ms,
                        seed=seed)
    return {
        "clients": clients,
        "propagation_interval_ms": propagation_interval_ms,
        "executions": report.executions,
        "anomalies": report.as_row(),
        "multi_key_additional": report.multi_key_additional,
        "distributed_session_additional": report.distributed_session_additional,
        # Single source of truth: AnomalyReport.invariant_violations (§6.2.2),
        # also asserted by the bench wrappers and smoke tests.
        "invariant_violations": report.invariant_violations(),
        "wall_seconds": round(time.time() - started, 2),
    }


def snapshot_fault_recovery(seed: int, request_count: int,
                            determinism_check: bool = True) -> dict:
    """Retwis under each fault class, gated on the §4.5 oracle."""
    started = time.time()
    section = run_fault_recovery(seed=seed + 7, request_count=request_count,
                                 determinism_check=determinism_check)
    section["wall_seconds"] = round(time.time() - started, 2)
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_throughput.json"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="run at the benchmark-default (slower) scale")
    parser.add_argument("--quick", action="store_true",
                        help="smallest scale (CI smoke); same gates")
    parser.add_argument("--ledger", default=None,
                        help="bench ledger database to append this run to "
                             "(default: bench_ledger.sqlite next to --output)")
    parser.add_argument("--ledger-seed", default=str(REPO_ROOT / "BENCH_throughput.json"),
                        help="snapshot used to seed an empty ledger so trend "
                             "gates have history (default: the committed "
                             "BENCH_throughput.json)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="skip the historical ledger and its trend gate "
                             "(fixed thresholds still apply)")
    args = parser.parse_args(argv)
    if args.full and args.quick:
        parser.error("--full and --quick are mutually exclusive")

    # fig10/fig12 run at the paper's full request budgets in *every* mode —
    # the engine optimization pass (engine_throughput section below) made the
    # full sweeps cheap enough for CI, so the scaling gates never see a
    # reduced-budget curve again.
    fig10_counts, fig10_requests = (10, 20, 40, 80, 160), 2_000
    fig12_counts, fig12_requests = (10, 20, 40, 80, 160), 5_000
    if args.full:
        scale_label = "full"
        fig5_requests, fig6_repetitions = 100, 100
        fig8_kwargs = dict(requests_per_level=2_000, dag_count=100,
                           populated_keys=2_000, executor_vms=5)
        table2_kwargs = dict(executions=4_000, dag_count=100,
                             populated_keys=1_000, executor_vms=5)
        fault_requests = 400
    elif args.quick:
        scale_label = "quick"
        fig5_requests, fig6_repetitions = 8, 10
        fig8_kwargs = dict(requests_per_level=300, dag_count=40,
                           populated_keys=600, executor_vms=4)
        table2_kwargs = dict(executions=800, dag_count=40,
                             populated_keys=400, executor_vms=4)
        fault_requests = 120
    else:
        scale_label = "reduced"
        fig5_requests, fig6_repetitions = 20, 30
        fig8_kwargs = dict(requests_per_level=800, dag_count=80,
                           populated_keys=1_200, executor_vms=5)
        table2_kwargs = dict(executions=2_000, dag_count=80,
                             populated_keys=800, executor_vms=5)
        fault_requests = 200

    print("engine microbenchmark (events/sec gate)...", flush=True)
    engine_micro = run_engine_micro()
    speedup = engine_micro["speedup_vs_pre_pr"]
    print(f"  {engine_micro['events_per_sec']:,.0f} events/s "
          f"({speedup}x vs pre-optimization baseline), "
          f"{engine_micro['sim_ms_per_wall_ms']}x real time under "
          f"recurring ticks; floor {engine_micro['floor_events_per_sec']:,.0f}")

    print("figure 5 (data locality, queueing storage nodes)...", flush=True)
    fig5 = snapshot_figure5(args.seed, fig5_requests)
    for label, point in fig5["sizes"].items():
        hot = point["Cloudburst (Hot)"]["median_ms"]
        cold = point["Cloudburst (Cold)"]["median_ms"]
        print(f"  fig5 @{label}: hot={hot:.2f}ms cold={cold:.2f}ms")
    print("figure 6 (gossip vs gather, queueing storage nodes)...", flush=True)
    fig6 = snapshot_figure6(args.seed, fig6_repetitions)
    for system, stats in fig6["systems"].items():
        print(f"  fig6 {system:24s} median={stats['median_ms']:.2f}ms")

    print("figure 7 (autoscaling, engine-driven control plane)...", flush=True)
    # Trace a sample of figure 7's requests end to end.  Sampling is
    # error-diffusion (deterministic), and spans never charge the virtual
    # clocks, so the traced run's latencies are the ones the gates see.
    tracer = Tracer(sample_rate=0.05 if scale_label == "quick" else 0.02)
    fig7 = snapshot_figure7(args.seed, scale_label, tracer=tracer)
    control = fig7["controlplane"] or {}
    print(f"  {fig7['requests_per_s']} req/s overall, "
          f"peak {fig7['peak_requests_per_s']} req/s; threads "
          f"{control.get('baseline_threads')}→{control.get('peak_threads')}→"
          f"{control.get('final_threads')}, "
          f"{control.get('migrations')} pin migration(s) "
          f"[{fig7['wall_seconds']}s]")
    print("figure 10 (prediction scaling)...", flush=True)
    fig10 = snapshot_scaling(run_figure10, fig10_counts, fig10_requests, args.seed)
    print("figure 12 (retwis scaling)...", flush=True)
    fig12 = snapshot_scaling(run_figure12, fig12_counts, fig12_requests, args.seed)
    for name, fig in (("fig10", fig10), ("fig12", fig12)):
        for point in fig["points"]:
            print(f"  {name} threads={point['threads']:4d} "
                  f"{point['requests_per_s']:10.1f} req/s  "
                  f"median={point['median_ms']:.2f}ms p99={point['p99_ms']:.2f}ms")

    print("figure 8 (consistency latency, engine-driven sessions)...", flush=True)
    fig8 = snapshot_figure8(args.seed, clients=4, propagation_interval_ms=50.0,
                            **fig8_kwargs)
    for level, stats in fig8["levels"].items():
        print(f"  fig8 {level:5s} median={stats['median_ms']:.2f}ms "
              f"p99={stats['p99_ms']:.2f}ms")
    print("table 2 (anomaly counts, engine-driven sessions)...", flush=True)
    table2 = snapshot_table2(args.seed, clients=8, propagation_interval_ms=50.0,
                             **table2_kwargs)
    print(f"  table2 {table2['anomalies']} over {table2['executions']} executions "
          f"[{table2['wall_seconds']}s]")

    print("fault recovery (retwis under injected failures, §4.5 gate)...",
          flush=True)
    fault_recovery = snapshot_fault_recovery(args.seed, fault_requests)
    for fault, entry in fault_recovery["classes"].items():
        faults = entry["faults"]
        print(f"  {fault:17s} injected={faults['injected']} "
              f"recovered={faults['recovered']} "
              f"max_recovery={faults['max_recovery_ms']:.1f}ms "
              f"anomalies={entry['anomalies']} "
              f"abandoned={entry['abandoned_sessions']}")
    determinism = fault_recovery.get("determinism")
    if determinism:
        print(f"  determinism[{determinism['fault']}]: "
              f"timeline_match={determinism['timeline_match']} "
              f"anomalies_match={determinism['anomalies_match']} "
              f"[{fault_recovery['wall_seconds']}s]")

    output = Path(args.output)
    observability = snapshot_observability(tracer, output.parent)
    print(f"  observability: {observability['traces']} trace(s), "
          f"{observability['spans']} span(s) across tiers "
          f"{observability['tiers']} -> {observability['chrome_trace']}")

    payload = {
        "schema": SCHEMA_VERSION,
        "seed": args.seed,
        "scale": scale_label,
        "observability": observability,
        "engine_throughput": engine_micro,
        "figure5_locality": fig5,
        "figure6_aggregation": fig6,
        "figure7_autoscaling": fig7,
        "figure10_prediction_scaling": fig10,
        "figure12_retwis_scaling": fig12,
        "figure8_consistency": fig8,
        "table2_anomalies": table2,
        "fault_recovery": fault_recovery,
    }
    gate_errors = collect_gate_errors(payload)
    if not args.no_ledger:
        # Historical ledger: append this run and trend-check it against the
        # last TREND_WINDOW runs (seeding an empty history from the committed
        # snapshot).  A corrupt/missing ledger degrades to the fixed
        # thresholds above with a warning — see repro/bench/ledger.py.
        ledger_path = (Path(args.ledger) if args.ledger
                       else output.parent / "bench_ledger.sqlite")
        ledger_section, ledger_errors = apply_ledger(
            payload, gate_errors, ledger_path, seed_snapshot=args.ledger_seed)
        payload["ledger"] = ledger_section
        gate_errors += ledger_errors
        trend = ledger_section.get("trend") or {}
        for metric, check in sorted(trend.items()):
            median_text = ("no history" if check["median"] is None
                           else f"median {check['median']:.2f} "
                                f"over {check['window']} run(s)")
            status = "ok" if check["ok"] else "REGRESSED"
            print(f"  ledger {metric}: {check['value']:.2f} vs {median_text} "
                  f"[{status}]")
    payload["consistency_invariants_ok"] = \
        not table2["invariant_violations"]
    payload["bench_gate_ok"] = not gate_errors
    payload["gate_errors"] = gate_errors
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")

    if gate_errors:
        print("BENCH GATE FAILURES:", file=sys.stderr)
        for error in gate_errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
