"""The paper's evaluation (§6) as data: each snapshot section declared once.

A :class:`Figure` holds everything about one experiment: the ``run_*``
function and its keyword arguments at each scale, the gate its
``BENCH_throughput.json`` sections must pass, and the table printed for them
— with the paper's own numbers beside the measured ones.  Every run returns
its sections itself, as ``{name: section}``.  :data:`FIGURES` is the whole
evaluation; three callers read it and declare nothing of their own:

* ``benchmarks/run_all.py`` records every entry at ``quick``, ``reduced``
  or ``full`` into the snapshot and exits nonzero on :func:`gate_errors`;
* ``benchmarks/bench_figures.py`` runs every entry at ``full`` under
  pytest-benchmark;
* ``tests/integration/test_benchmarks_smoke.py`` runs every entry at
  ``smoke`` in the tier-1 suite, with :data:`SMOKE_SEED`.

Gates read only the snapshot payload and the scale's parameters (run
keyword arguments plus limits), so a canned payload exercises every clause
without running anything.  Section layouts are documented in
``docs/BENCH_SCHEMA.md``.

``python -m repro.bench.figures --compare PARENT.json CHANGE.json`` compares
two snapshots leaf by leaf with ``==``, skipping the leaves each entry
declares as host-clock measurements (:func:`compare_snapshots`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from ..cloudburst.controlplane import MonitoringConfig
from ..obs import Tracer, write_chrome_trace, write_span_dump
from ..sim import format_table
from .ablations import run_ablations
from .casestudies import run_figure9, run_figure10, run_figure11, run_figure12
from .consistency_bench import run_figure8, run_table2
from .faultbench import fault_recovery_errors, run_fault_recovery
from .microbenchmarks import run_figure1, run_figure5, run_figure6, run_figure7

#: Request-budget presets: ``smoke`` for the tier-1 suite, the other three
#: for ``run_all.py`` (``--quick``, default, ``--full``).
SCALES = ("smoke", "quick", "reduced", "full")

#: Seed of the tier-1 smoke runs (``run_all.py`` takes ``--seed``, default 0).
SMOKE_SEED = 1

Payload = Dict[str, Any]


@dataclass(frozen=True)
class Figure:
    """One experiment of §6 and the snapshot section(s) it produces.

    ``run(seed=..., **kwargs)`` returns exactly ``sections``.  ``budgets``
    and ``limits`` map a scale to the run's keyword arguments and the gate's
    thresholds; the key ``"*"`` stands for every scale not named.
    ``common`` holds the keyword arguments every scale shares unless its
    budget overrides them.  ``notes`` follow the printed table (see
    :meth:`table`).  ``files`` names what the run writes next to the
    snapshot; a run that writes files is also given the snapshot's
    directory as ``out_dir``.  ``host_leaves`` are ``fnmatch`` patterns, below
    each section, of the leaves the host's clock measures; with the
    ``wall_seconds`` :meth:`record` stamps, ``--compare`` skips them.
    """

    title: str
    sections: Tuple[str, ...]
    run: Callable[..., Payload]
    gate: Callable[[Payload, Dict[str, Any]], List[str]]
    budgets: Mapping[str, Mapping[str, Any]]
    notes: Tuple[Any, ...] = ()
    common: Mapping[str, Any] = field(default_factory=dict)
    limits: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    files: Tuple[str, ...] = ()
    host_leaves: Tuple[str, ...] = ()

    def host_patterns(self) -> List[str]:
        return [f"{self.sections[0]}/wall_seconds"] + [
            f"{section}/{leaf}" for section in self.sections for leaf in self.host_leaves]

    def kwargs(self, scale: str) -> Dict[str, Any]:
        return {**self.common, **_at(self.budgets, scale)}

    def params(self, scale: str) -> Dict[str, Any]:
        """The gate's view of a scale: the run's kwargs plus its limits."""
        return {**self.kwargs(scale), **_at(self.limits, scale)}

    def record(self, scale: str, seed: int, out_dir: Path) -> Payload:
        """Run the experiment at ``scale``; returns its snapshot sections,
        the first stamped with the run's ``wall_seconds``."""
        kwargs = self.kwargs(scale)
        if self.files:
            kwargs["out_dir"] = Path(out_dir)
        started = time.perf_counter()
        sections = self.run(seed=seed, **kwargs)
        sections[self.sections[0]]["wall_seconds"] = round(
            time.perf_counter() - started, 2)
        return sections

    def errors(self, payload: Payload, scale: str) -> List[str]:
        return self.gate(payload, self.params(scale))

    def table(self, payload: Payload) -> str:
        """Each section rendered by :func:`_render`, the scaling points, the notes.

        A note is the paper's claim as text; a ``(path, faster, slower,
        paper)`` tuple, printing ``slower``'s median over ``faster``'s in the
        systems dict at ``path`` beside the paper's ratio; or a function of
        the payload.
        """
        lines = [line for name in self.sections for line in _render(payload[name], name)]
        section = payload[self.sections[0]]
        if "points" in section:
            lines.append(format_table(
                ["threads", "clients", "throughput/s", "median (ms)", "p99 (ms)"],
                [[p["threads"], p["clients"], f"{p['requests_per_s']:.1f}",
                  f"{p['median_ms']:.2f}", f"{p['p99_ms']:.2f}"] for p in section["points"]]))
        for note in self.notes:
            if isinstance(note, tuple):
                path, faster, slower, paper = note
                m = _medians(_lookup(section, path))
                note = f"{slower} vs {faster}: {m[slower] / m[faster]:.2f}x  (paper {paper})"
            lines.append(note if isinstance(note, str) else note(payload))
        return "\n".join(lines)


def _at(per_scale: Mapping[str, Mapping[str, Any]], scale: str) -> Mapping[str, Any]:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return per_scale.get(scale, per_scale.get("*", {}))


# -- shared pieces of gates and tables ----------------------------------------------
def _medians(systems: dict) -> Dict[str, float]:
    return {name: stats["median_ms"] for name, stats in systems.items()}


def _chain(medians: Dict[str, float], *names: str) -> List[Tuple[str, bool]]:
    """Each named system strictly faster (lower median) than the next."""
    return [(f"{fast} < {slow}", medians[fast] < medians[slow])
            for fast, slow in zip(names, names[1:])]


def _failed(where: str, clauses: Sequence[Tuple[str, bool]]) -> List[str]:
    return [f"{where}: expected {claim}" for claim, ok in clauses if not ok]


def _systems_table(title: str, systems: dict) -> str:
    rows = [[name, stats["count"], f"{stats['median_ms']:.2f}", f"{stats['p99_ms']:.2f}"]
            for name, stats in sorted(systems.items(), key=lambda kv: kv[1]["median_ms"])]
    return format_table(["system", "n", "median (ms)", "p99 (ms)"], rows, title=title)


def _render(node: dict, path: str) -> List[str]:
    """A section as text: one ``key=value`` line per dict of numbers, one
    table per ``{system: latency summary}`` dict, recursively."""
    systems = {key: value for key, value in node.items()
               if isinstance(value, dict) and "median_ms" in value}
    values = [f"{key}={value}" for key, value in node.items()
              if not isinstance(value, (dict, list))
              or isinstance(value, list) and not any(isinstance(v, (dict, list)) for v in value)]
    lines = [f"{path}: {', '.join(values)}"] if values else []
    if systems:
        lines.append(_systems_table(path, systems))
    for key, value in node.items():
        if isinstance(value, dict) and key not in systems:
            lines += _render(value, f"{path}/{key}")
    return lines


def _lookup(node: dict, path: str) -> dict:
    for key in path.split("/"):
        node = node[key]
    return node


# -- Figure 1: function composition ---------------------------------------------------
def _figure1_errors(payload: Payload, params: dict) -> List[str]:
    m = _medians(payload["figure1_composition"]["systems"])
    dask = m["Dask"] / m["Cloudburst"]
    return _failed("fig1", _chain(m, "Cloudburst", "Lambda")
                   + _chain(m, "Cloudburst", "SAND")
                   + _chain(m, "Lambda", "Lambda + Dynamo", "Lambda + S3", "Step Functions")
                   + [("Cloudburst within 0.4x-3x of Dask", 0.4 < dask < 3.0),
                      ("Cloudburst >20x faster than Step Functions",
                       m["Step Functions"] / m["Cloudburst"] > 20)])


# -- Figure 5: data locality ----------------------------------------------------------
_HOT, _COLD, _REDIS, _S3 = ("Cloudburst (Hot)", "Cloudburst (Cold)",
                            "Lambda (Redis)", "Lambda (S3)")


def _figure5_errors(payload: Payload, params: dict) -> List[str]:
    sizes = payload["figure5_locality"]["sizes"]
    small, large = _medians(sizes["8MB"]), _medians(sizes["80MB"])
    return (_failed("fig5@8MB", _chain(small, _HOT, _COLD, _REDIS, _S3) + [
                (f"{_HOT} >10x faster than {_REDIS}", small[_HOT] * 10 < small[_REDIS])])
            + _failed("fig5@80MB", [
                (f"{_S3} < {_REDIS} (the bandwidth crossover)", large[_S3] < large[_REDIS]),
                (f"{_HOT} >4x faster than {_COLD}", large[_HOT] * 4 < large[_COLD])]))


# -- Figure 6: gossip vs gather -------------------------------------------------------
_GATHER, _GOSSIP = "Cloudburst (gather)", "Cloudburst (gossip)"


def _figure6_errors(payload: Payload, params: dict) -> List[str]:
    m = _medians(payload["figure6_aggregation"]["systems"])
    return _failed("fig6", _chain(m, _GATHER, _GOSSIP, "Lambda+Dynamo (gather)")
                   + _chain(m, "Lambda+Redis (gather)", "Lambda+S3 (gather)")
                   + [(f"{_GATHER} >5x faster than Lambda+Redis (gather)",
                       m[_GATHER] * 5 < m["Lambda+Redis (gather)"])])


# -- Figure 7: autoscaling, and the observability plane riding on its tracer ----------
_SPAN_DUMP, _CHROME_TRACE = "BENCH_spans_fig7.json", "BENCH_trace_fig7.json"


def _run_figure7(seed: int, out_dir: Path, sample_rate: float, **kwargs) -> Payload:
    # Sampling is deterministic error diffusion and spans never charge the
    # virtual clocks, so the traced run's latencies are the ones gated.
    tracer = Tracer(sample_rate=sample_rate)
    sections = run_figure7(seed=seed, tracer=tracer, **kwargs)
    traces = len(tracer.trace_ids())
    write_span_dump(out_dir / _SPAN_DUMP, tracer, meta={
        "source": "figure7", "sample_rate": tracer.sample_rate, "traces": traces})
    write_chrome_trace(out_dir / _CHROME_TRACE, tracer)
    sections["observability"] = {
        "source": "figure7",
        "sample_rate": tracer.sample_rate,
        "traces": traces,
        "spans": len(tracer),
        "orphan_spans": len(tracer.orphan_spans()),
        "unfinished_spans": len(tracer.unfinished_spans()),
        "tiers": sorted(tracer.tiers()),
        "span_dump": _SPAN_DUMP,
        "chrome_trace": _CHROME_TRACE,
    }
    return sections


def _figure7_errors(payload: Payload, params: dict) -> List[str]:
    fig7 = payload["figure7_autoscaling"]
    threads = fig7["initial_threads"]
    capacities = [capacity for _, capacity in fig7["capacity_timeline"]]
    minute, low, high = params["plateau"]
    initial = ([rps for time_s, rps, _ in fig7["throughput_curve"]
                if time_s <= minute * 60.0] or [0.0])[-1]
    expected = threads * 1000.0 / 54.0  # one ~54 ms request per thread at a time
    clauses = [
        (f"the initial plateau at minute {minute} ({initial:.1f} req/s) within "
         f"{low}x-{high}x of threads/54 ms", low * expected < initial < high * expected),
        (f"peak throughput >{params['peak']}x the initial plateau",
         fig7["peak_requests_per_s"] > initial * params["peak"]),
        ("capacity to start at the initial threads", capacities[0] == threads),
        ("capacity to reach twice the initial threads", max(capacities) >= 2 * threads),
        ("capacity to drain to 2 threads", capacities[-1] == 2),
        ("a non-empty §6.1.4 cache index", fig7["index_overhead"]["tracked_keys"] > 0),
    ]
    control = fig7["controlplane"]
    if control is None:
        clauses.append(("a control-plane section in the snapshot", False))
    else:
        clauses += [
            ("the autoscaler to scale up under load",
             control["peak_threads"] > control["baseline_threads"]),
            ("the allocation to return to baseline after the burst",
             control["final_threads"] <= control["baseline_threads"]),
            ("a §4.4 pin migration at scale-down", control["migrations"] > 0),
            ("no call routed to drained executor threads",
             control["calls_routed_to_drained"] == 0),
        ]
    obs = payload["observability"]
    missing = {"client", "scheduler", "executor", "cache", "anna"} - set(obs["tiers"])
    return _failed("fig7", clauses) + _failed("observability", [
        ("the sampled figure 7 run to produce traces", obs["traces"] > 0),
        ("no orphan span (every parent id resolves)", obs["orphan_spans"] == 0),
        ("no unfinished span (every span closed)", obs["unfinished_spans"] == 0),
        (f"spans on every tier (missing {sorted(missing)})",
         obs["traces"] <= 0 or not missing),
    ])


# -- Figure 8 and Table 2: consistency levels -----------------------------------------
def _figure8_errors(payload: Payload, params: dict) -> List[str]:
    fig8 = payload["figure8_consistency"]
    medians = _medians(fig8["levels"]).values()
    p99 = {level: stats["p99_ms"] for level, stats in fig8["levels"].items()}
    dsc = fig8["metadata_overhead_bytes"]["DSC"]
    return _failed("fig8", [
        ("medians within 3x of each other", max(medians) < 3 * min(medians)),
        ("DSC p99 > LWW p99", p99["DSC"] > p99["LWW"]),
        ("MK p99 >= 0.8x SK p99", p99["MK"] >= p99["SK"] * 0.8),
        ("DSC metadata p99 >= its median", dsc["p99"] >= dsc["median"]),
    ])


def _table2_errors(payload: Payload, params: dict) -> List[str]:
    table2 = payload["table2_anomalies"]
    return list(table2["invariant_violations"]) + _failed("table2", [
        (f"{params['executions']} executions counted",
         table2["executions"] == params["executions"])])


# -- Figures 9 and 11: case-study latency ---------------------------------------------
def _figure9_errors(payload: Payload, params: dict) -> List[str]:
    m = _medians(payload["figure9_prediction"]["systems"])
    return _failed("fig9", [
        ("Python <= Cloudburst", m["Python"] <= m["Cloudburst"]),
        ("Cloudburst within 1.5x of Python", m["Cloudburst"] / m["Python"] < 1.5),
    ] + _chain(m, "Cloudburst", "AWS Sagemaker") + _chain(m, "Cloudburst", "Lambda (Actual)")
        + _chain(m, "Lambda (Mock)", "Lambda (Actual)"))


_LWW, _CAUSAL = "Cloudburst (LWW)", "Cloudburst (Causal)"


def _figure11_errors(payload: Payload, params: dict) -> List[str]:
    fig11 = payload["figure11_retwis"]
    m, rate = _medians(fig11["systems"]), fig11["anomaly_rate"]
    return _failed("fig11", _chain(m, "Redis", _LWW) + [
        (f"{_LWW} <= 1.5x {_CAUSAL}", m[_LWW] <= m[_CAUSAL] * 1.5),
        ("causal consistency to prevent anomalies LWW shows",
         rate[_CAUSAL] < rate[_LWW])])


# -- Figures 10 and 12: scaling sweeps ------------------------------------------------
_THREAD_COUNTS = (10, 20, 40, 80, 160)


def _scaling_errors(name: str, label: str) -> Callable[[Payload, dict], List[str]]:
    def gate(payload: Payload, params: dict) -> List[str]:
        points = payload[name]["points"]
        rate = {point["threads"]: point["requests_per_s"] for point in points}
        base = points[0]["threads"]
        errors = []
        for threads, ratio in params["speedups"].items():
            if threads not in rate:
                errors.append(f"{label}: scaling sweep missing the {threads}-thread point")
            elif not rate[threads] > ratio * rate[base]:
                errors.append(f"{label}: {threads} threads gives {rate[threads]:.1f} req/s, "
                              f"not >{ratio}x the {base}-thread {rate[base]:.1f} req/s "
                              f"(scaling collapsed)")
        medians = [point["median_ms"] for point in points]
        return errors + _failed(label, [
            (f"medians within {params['spread']}x of each other",
             max(medians) < params["spread"] * min(medians))])
    return gate


# -- Ablations of DESIGN.md's choices (not paper figures) -----------------------------
def _ablations_errors(payload: Payload, params: dict) -> List[str]:
    section = payload["ablations"]
    hits = section["scheduling"]["hit_rate"]
    caches = section["hot_key_replication"]["caches_with_hot_key"]
    return _failed("ablations", [
        ("locality scheduling to hit the cache more than random placement",
         hits["Locality scheduling"] > hits["Random placement"]),
        ("locality scheduling no slower than random placement",
         _medians(section["scheduling"]["systems"])["Locality scheduling"]
         <= _medians(section["scheduling"]["systems"])["Random placement"]),
        ("backpressure to replicate the hot key at least as widely",
         caches["backpressure"] >= caches["no_backpressure"]),
    ] + _chain(_medians(section["caching"]["systems"]), "Caches enabled", "Caches disabled")
        + _chain(_medians(section["messaging"]["systems"]),
                 "Direct TCP", "Anna inbox fallback"))


# -- §4.5 fault recovery --------------------------------------------------------------
_JOURNALS = "BENCH_fault_journals.json"
#: The durable row: ``storage_drop`` as crash/restart over SQLite cold tiers,
#: with a memory tier small enough that every crash finds keys on disk.  Its
#: databases live in this directory beside the snapshot.
_DURABLE_ROW = "durable_storage_drop"
_DURABLE_DIR = "BENCH_fault_durable"
_DURABLE_MEMORY_KEYS = 40


def _run_fault_recovery(seed: int, out_dir: Path, **kwargs) -> Payload:
    section = run_fault_recovery(seed=seed + 7, **kwargs)
    durable_dir = out_dir / _DURABLE_DIR
    durable_dir.mkdir(exist_ok=True)
    durable = run_fault_recovery(
        seed=seed + 7, durable_dir=durable_dir, memory_capacity_keys=_DURABLE_MEMORY_KEYS,
        fault_classes=("storage_drop",), **kwargs)
    # Every scheduler's per-session state transitions, for whoever debugs a
    # failed oracle: which DAGs were in flight and where their attempts ran.
    journals = {fault: entry.pop("journals") for fault, entry in section["classes"].items()}
    journals.update({f"{_DURABLE_ROW}/{fault}": entry.pop("journals")
                     for fault, entry in durable["classes"].items()})
    (out_dir / _JOURNALS).write_text(json.dumps(journals, indent=2, sort_keys=True) + "\n")
    section[_DURABLE_ROW] = durable
    return {"fault_recovery": section}


def _fault_recovery_errors(payload: Payload, params: dict) -> List[str]:
    """The §4.5 oracle over the fault matrix and, unchanged, its durable row."""
    section = payload.get("fault_recovery")
    errors = fault_recovery_errors(section)
    if section:
        errors += [f"{_DURABLE_ROW}: {error}"
                   for error in fault_recovery_errors(section.get(_DURABLE_ROW))]
    return errors


# -- the registry ---------------------------------------------------------------------
_FIG7_SMALL = dict(initial_threads=6, client_count=12, load_duration_s=20.0,
                   total_duration_s=30.0, policy_interval_ms=2_500.0,
                   monitoring_config=MonitoringConfig(
                       vms_per_scale_up=1, node_startup_delay_ms=5_000.0, max_vms=10))

FIGURES: Tuple[Figure, ...] = (
    Figure(
        "Figure 1 (function composition)", ("figure1_composition",),
        run_figure1, _figure1_errors,
        budgets={"smoke": dict(requests=40), "*": dict(requests=1_000)},
        notes=(("systems", "Cloudburst", "Dask", "comparable"),
               ("systems", "Cloudburst", "SAND", "~10x"),
               ("systems", "Cloudburst", "Step Functions", "~82x"),
               ("systems", "Lambda", "Step Functions", "~10x"),
               "paper: Cloudburst 1-3 orders of magnitude ahead of commercial FaaS")),
    Figure(
        "Figure 5 (data locality, queueing storage nodes)", ("figure5_locality",),
        run_figure5, _figure5_errors,
        common=dict(sizes=("8MB", "80MB")),
        budgets={"smoke": dict(requests_per_size=8), "quick": dict(requests_per_size=8),
                 "reduced": dict(requests_per_size=20),
                 "full": dict(requests_per_size=100)},
        notes=(("sizes/8MB", _HOT, _COLD, "~10x @8MB"),
               ("sizes/8MB", _HOT, _REDIS, "~25x @8MB"),
               ("sizes/8MB", _HOT, _S3, "~79x @8MB"),
               ("sizes/80MB", _HOT, _COLD, "~9x @80MB"),
               ("sizes/80MB", _HOT, _S3, "~24x @80MB"))),
    Figure(
        "Figure 6 (gossip vs gather, queueing storage nodes)", ("figure6_aggregation",),
        run_figure6, _figure6_errors,
        budgets={"smoke": dict(repetitions=8), "quick": dict(repetitions=10),
                 "reduced": dict(repetitions=30), "full": dict(repetitions=100)},
        notes=(("systems", _GATHER, "Lambda+Redis (gather)", "~22x"),
               ("systems", _GATHER, "Lambda+Dynamo (gather)", "~53x"),
               ("systems", _GOSSIP, "Lambda+Dynamo (gather)", "~3x"),
               ("systems", _GOSSIP, "Lambda+Redis (gather)", "~1.1x"))),
    Figure(
        "Figure 7 (autoscaling, engine-driven control plane, traced)",
        ("figure7_autoscaling", "observability"),
        _run_figure7, _figure7_errors, files=(_SPAN_DUMP, _CHROME_TRACE),
        common=dict(sample_rate=0.02),
        budgets={"smoke": _FIG7_SMALL, "reduced": _FIG7_SMALL, "full": {},
                 "quick": dict(
                     sample_rate=0.05, initial_threads=6, client_count=8,
                     load_duration_s=10.0, total_duration_s=15.0, policy_interval_ms=2_500.0,
                     monitoring_config=MonitoringConfig(
                         vms_per_scale_up=1, node_startup_delay_ms=5_000.0, max_vms=6))},
        # plateau = (minute, low, high): the throughput before the first
        # scale-up, as a band around threads / 54 ms; peak = how far above it
        # the scaled-up run must climb (quick's 10 s burst ends one VM in).
        limits={"full": dict(plateau=(0.25, 0.7, 1.4), peak=1.5),
                "quick": dict(plateau=(0.1, 0.72, 1.35), peak=1.3),
                "*": dict(plateau=(0.1, 0.72, 1.35), peak=1.5)},
        notes=("paper: 180 threads, 400 clients, ~3.3k -> ~4.4k -> ~5.6k -> ~6.7k req/s as "
               "batches of 20 VMs come online, then a drain to 2 threads (this run: 1/10 "
               "scale); cache index median 24 B, p99 1.3 KB on 120 caches (this run: 8)",)),
    Figure(
        "Figure 8 (consistency latency, engine-driven sessions)", ("figure8_consistency",),
        run_figure8, _figure8_errors,
        common=dict(clients=4, propagation_interval_ms=50.0),
        budgets={
            "smoke": dict(requests_per_level=300, dag_count=25, populated_keys=400,
                          executor_vms=3),
            "quick": dict(requests_per_level=300, dag_count=40, populated_keys=600,
                          executor_vms=4),
            "reduced": dict(requests_per_level=800, dag_count=80, populated_keys=1_200,
                            executor_vms=5),
            "full": dict(requests_per_level=2_000, dag_count=100, populated_keys=2_000,
                         executor_vms=5)},
        notes=("paper: medians nearly uniform, DSRR p99 ~1.8x LWW's, DSC pays the most; "
               "causal metadata median 624 B, p99 7.1 KB",)),
    Figure(
        "Figure 9 (prediction serving across platforms)", ("figure9_prediction",),
        run_figure9, _figure9_errors,
        budgets={"smoke": dict(requests=8, image_side=256), "*": dict(requests=50)},
        notes=(("systems", "Python", "Cloudburst", "~1.07x"),
               ("systems", "Cloudburst", "AWS Sagemaker", "~1.6x"),
               ("systems", "Cloudburst", "Lambda (Actual)", "~5x"))),
    Figure(
        "Figure 10 (prediction scaling)", ("figure10_prediction_scaling",),
        run_figure10, _scaling_errors("figure10_prediction_scaling", "fig10"),
        budgets={"smoke": dict(thread_counts=(12, 48), requests_per_point=200),
                 "*": dict(thread_counts=_THREAD_COUNTS, requests_per_point=2_000)},
        limits={"smoke": dict(speedups={48: 2.5}, spread=1.5),
                "*": dict(speedups={160: 8.0}, spread=2.5)},
        host_leaves=("sim_requests_per_cpu_s",),
        notes=("paper: throughput near-linear in threads, latency roughly flat",)),
    Figure(
        "Figure 11 (Retwis latency and anomalies)", ("figure11_retwis",),
        run_figure11, _figure11_errors,
        budgets={
            "smoke": dict(requests=250, user_count=120, seed_tweets=400, executor_vms=3,
                          propagation_interval_ms=300.0),
            "quick": dict(requests=500, user_count=250, seed_tweets=1_000, executor_vms=4,
                          propagation_interval_ms=200.0),
            "reduced": dict(requests=1_000, user_count=500, seed_tweets=2_500,
                            executor_vms=4, propagation_interval_ms=200.0),
            "full": dict(requests=2_000, user_count=1_000, seed_tweets=5_000,
                         executor_vms=4, propagation_interval_ms=200.0)},
        notes=("paper: LWW median ~27% above Redis, causal +~4% median / +~20% tail; "
               ">60% of LWW timelines show a reply without its original, causal none",)),
    Figure(
        "Figure 12 (Retwis scaling, causal mode)", ("figure12_retwis_scaling",),
        run_figure12, _scaling_errors("figure12_retwis_scaling", "fig12"),
        budgets={"smoke": dict(thread_counts=(10, 40), requests_per_point=400,
                               user_count=120, seed_tweets=400),
                 "*": dict(thread_counts=_THREAD_COUNTS, requests_per_point=5_000)},
        limits={"smoke": dict(speedups={40: 2.2}, spread=3.5),
                "*": dict(speedups={160: 6.0, 40: 2.0}, spread=3.5)},
        host_leaves=("sim_requests_per_cpu_s",),
        notes=("paper: near-linear, ~30% below ideal at 160 threads; latency +~60%",)),
    Figure(
        "Table 2 (anomaly counts, engine-driven sessions)", ("table2_anomalies",),
        run_table2, _table2_errors,
        common=dict(clients=8, propagation_interval_ms=50.0),
        budgets={
            "smoke": dict(executions=400, dag_count=25, populated_keys=200, executor_vms=3),
            "quick": dict(executions=800, dag_count=40, populated_keys=400, executor_vms=4),
            "reduced": dict(executions=2_000, dag_count=80, populated_keys=800,
                            executor_vms=5),
            "full": dict(executions=4_000, dag_count=100, populated_keys=1_000,
                         executor_vms=5)},
        notes=("paper (4,000 executions): LWW 0, SK 904, MK 939, DSC 1043, DSRR 46",)),
    Figure(
        "Ablations (locality, caches, hot-key replication, messaging)", ("ablations",),
        run_ablations, _ablations_errors,
        budgets={
            "smoke": dict(scheduling=dict(requests=40, size_label="800KB", executor_vms=5),
                          caching=dict(requests=30, size_label="800KB"),
                          hot_key_replication=dict(requests=120, executor_vms=5),
                          messaging=dict(messages=60)),
            "*": dict(scheduling=dict(requests=200), caching=dict(requests=200),
                      hot_key_replication=dict(requests=300),
                      messaging=dict(messages=500))}),
    Figure(
        "Fault recovery (Retwis under injected failures, §4.5 oracle)", ("fault_recovery",),
        _run_fault_recovery, _fault_recovery_errors,
        files=(_JOURNALS,),
        # Seed 1 + 7's default 20 ms fault schedule never crashes a scheduler
        # with a DAG in flight (a vacuous run fails the oracle): smoke doubles
        # the fault rate.
        budgets={"smoke": dict(request_count=120, mean_interval_ms=10.0),
                 "quick": dict(request_count=120),
                 "reduced": dict(request_count=200), "full": dict(request_count=400)}),
)


def gate_errors(payload: Payload, scale: str) -> List[str]:
    """Every invariant the bench snapshot gates CI on, as error strings."""
    return [error for figure in FIGURES for error in figure.errors(payload, scale)]


# -- comparing two snapshots ----------------------------------------------------------
def _leaves(node: Any, path: str, out: Dict[str, Any]) -> Dict[str, Any]:
    """Every leaf below ``node`` by path: dicts by key, lists by index."""
    if isinstance(node, (dict, list)) and node:
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            _leaves(value, f"{path}/{key}", out)
    else:
        out[path] = node
    return out


def compare_snapshots(parent: Payload, change: Payload) -> List[str]:
    """Each seeded leaf that moved (by ``==``), and each leaf or section on one
    side only; the registry's host-clock leaves are skipped."""
    host = [pattern for figure in FIGURES for pattern in figure.host_patterns()]
    lines = [f"section only in {side}: {name}" for side, one, other
             in (("parent", parent, change), ("change", change, parent))
             for name in sorted(one.keys() - other.keys())]
    for name in sorted(parent.keys() & change.keys()):
        before, after = _leaves(parent[name], name, {}), _leaves(change[name], name, {})
        for path in sorted(before.keys() | after.keys()):
            if any(fnmatchcase(path, pattern) for pattern in host):
                continue
            if path not in after:
                lines.append(f"only in parent: {path} = {before[path]!r}")
            elif path not in before:
                lines.append(f"only in change: {path} = {after[path]!r}")
            elif before[path] != after[path]:
                lines.append(f"moved: {path}: {before[path]!r} -> {after[path]!r}")
    return lines


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare two bench snapshots.")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), required=True)
    parent, change = (json.loads(Path(path).read_text())
                      for path in parser.parse_args(argv).compare)
    lines = compare_snapshots(parent, change)
    print("\n".join(lines + [f"{len(lines)} difference(s) outside the host-clock leaves"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
