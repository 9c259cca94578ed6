#!/usr/bin/env python3
"""The repository's benchmark: host speed and virtual-time results, by layer.

    python benchmarks/perf/run.py --seed 0              # all four workloads
    python benchmarks/perf/run.py --seed 0 --trace 1    # per-layer metrics
    python benchmarks/perf/run.py --sets 2              # A/A (or A/B) check
    python benchmarks/perf/run.py --workload retwis_read --seed 3 \
        --seconds 10 --trace 0                          # one run, as the driver does

One run of one workload repeats set-up plus the timed section on a fresh
cluster: once for each of five seeds derived from ``--seed``, then over the
same seeds again, at least once and on until ``--seconds`` of timed section
have been measured.  Host metrics are the median over all repetitions;
virtual-time metrics are taken over the five seeds, and a repetition that
re-runs a seed must reproduce its virtual results exactly or the run is
incorrect.
The last line of a single-workload run is one JSON object for the driver.
Metric names, units and bounds live in ``BENCHMARK.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"{REPO / 'src' / 'repro'} not found: run from a checkout of the repository")
sys.path.insert(0, str(REPO / "src"))

from measure import Repetition, run_once  # noqa: E402
from trace import SpanRecorder  # noqa: E402
from workloads import REQUEST_SCALE, WORKLOADS  # noqa: E402

from repro.sim import RandomSource, format_table, median, percentile  # noqa: E402

#: Differently seeded repetitions whose results one run reports.  Virtual-time
#: results differ from seed to seed by far more than a bound a regression gate
#: could use (p99 by 18% on retwis_write); over this many they settle.
SEEDED_REPETITIONS = 5
#: Stops a much faster program from repeating set-up past the driver's time limit.
MAX_REPETITIONS = 12
#: A traced run times this many untraced repetitions beside the traced one.
TRACE_RUN_UNTRACED = 2


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


def repetition_seed(seed: int, number: int) -> int:
    """The seed of a run's ``number``-th differently seeded repetition."""
    return RandomSource(seed).spawn(f"repetition-{number}").seed


def _check_repeats(first: Repetition, again: Repetition, label: str,
                   problems: List[str]) -> None:
    """Virtual time and counters are compared with ==, never a tolerance."""
    ours, theirs = first.virtual_results(), again.virtual_results()
    differing = [name for name in ours if name in theirs and ours[name] != theirs[name]]
    if differing:
        problems.append(f"{label} did not repeat: {differing}")


def end_to_end(workload, seed: int, seconds: float, scale: float):
    """Repetitions cycle through the run's seeds, so every one past the first
    cycle re-runs a seed and must reproduce its virtual results exactly."""
    repetitions: List[Repetition] = []
    problems: List[str] = []
    while len(repetitions) <= SEEDED_REPETITIONS or (
            sum(r.run_s for r in repetitions) < seconds
            and len(repetitions) < MAX_REPETITIONS):
        number = len(repetitions) % SEEDED_REPETITIONS
        repetitions.append(run_once(workload, repetition_seed(seed, number), scale))
        if len(repetitions) > SEEDED_REPETITIONS:
            _check_repeats(repetitions[number], repetitions[-1],
                           f"repetition {len(repetitions)} (seed of {number + 1})", problems)
    seeded = repetitions[:SEEDED_REPETITIONS]
    latencies = [ms for r in seeded for ms in r.latencies_ms]
    values = {
        "sim_req_per_host_s": statistics.median(r.req_per_host_s for r in repetitions),
        "setup_s": statistics.median(r.setup_s for r in repetitions),
        # Linux reports ru_maxrss in KiB; each run is its own process.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virt_throughput_rps": statistics.median(r.virt_throughput_rps for r in seeded),
        "virt_latency_p50_ms": median(latencies),
        "virt_latency_p99_ms": percentile(latencies, 99.0),
    }
    return values, repetitions, problems, len(latencies)


def per_layer(workload, seed: int, scale: float):
    """The traced pass and, on the same seed, the untraced runs it is held against."""
    first_seed = repetition_seed(seed, 0)
    untraced = [run_once(workload, first_seed, scale) for _ in range(TRACE_RUN_UNTRACED)]
    recorder = SpanRecorder()
    traced = run_once(workload, first_seed, scale, recorder)
    recorder.write(HERE / "out", f"{workload.name}_seed{seed}")
    problems: List[str] = []
    for number, again in enumerate(untraced[1:] + [traced], start=2):
        _check_repeats(untraced[0], again, f"repetition {number}", problems)

    host_s = [r.run_s for r in untraced]
    values = {
        **traced.counters, **traced.traced,
        "sim.host_us_per_event": statistics.median(host_s) * 1e6 / traced.counters["sim.events"],
        "harness.trace_overhead_ratio": traced.run_s / statistics.median(host_s),
        "harness.host_cpu_ratio": min(r.run_s / r.wall_s for r in untraced),
        "harness.host_spread": (max(host_s) - min(host_s)) / statistics.median(host_s),
    }
    return values, untraced + [traced], problems, len(traced.latencies_ms)


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int,
                 scale: float) -> int:
    """One run as the driver makes it; the last line printed is its JSON result."""
    workload = WORKLOADS[name]
    if trace:
        values, repetitions, problems, n = per_layer(workload, seed, scale)
    else:
        values, repetitions, problems, n = end_to_end(workload, seed, seconds, scale)
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if trace else "end_to_end"]}
    problems += [problem for r in repetitions for problem in r.problems]
    attempted = sum(r.issued for r in repetitions)
    failed = sum(r.failed for r in repetitions)

    print(f"{name}: seed {seed}, {len(repetitions)} repetitions of "
          f"{repetitions[0].issued} requests, {workload.clients} closed-loop clients, "
          f"request scale {scale}; percentiles over n = {n}")
    for metric, unit in units.items():
        print(f"  {metric:<36} {values[metric]:>16.6f} {unit}")
    print(f"  {'failed_fraction':<36} {failed / attempted:>16.6f} ratio")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()}}))
    return 0 if correct else 1


def _run_all(args, label: str) -> Dict[str, dict]:
    """Every workload, each in its own sequential subprocess (its own peak RSS)."""
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", str(args.scale)]
        done = subprocess.run(command, capture_output=True, text=True)
        *report, result = done.stdout.strip().split("\n")
        print("\n".join(label + line for line in report))
        if done.returncode:
            sys.stderr.write(done.stderr)
            sys.exit(f"{name} failed its checks (exit {done.returncode})")
        results[name] = json.loads(result)["metrics"]
    return results


def _compare_sets(spec: dict, set_a: Dict[str, dict], set_b: Dict[str, dict]) -> int:
    """Set A against set B, metric by metric, against the benchmark's bounds."""
    rows, exceeded = [], 0
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        # Virtual time repeats exactly for a seed: any difference is a model change.
        virtual = name.startswith("virt_")
        bound = 0.0 if virtual else metric["bound"]
        for workload in WORKLOADS:
            a, b = set_a[workload][name]["value"], set_b[workload][name]["value"]
            worse = (a - b) / a if higher else (b - a) / a
            ok = a == b if virtual else worse <= bound
            exceeded += not ok
            rows.append([workload, name, f"{a:.6g}", f"{b:.6g}", f"{worse:+.2%}",
                         f"{bound:.0%}", "ok" if ok else "unresolved"])
    print(format_table(
        ["workload", "metric", "set A", "set B", "B worse by", "bound", ""], rows,
        title="Two sets of runs (positive = B worse than A)"))
    return 1 if exceeded else 0


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed-section seconds an end-to-end run measures at least")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass, printing the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--scale", type=float, default=REQUEST_SCALE,
                        help="factor on every workload's request count (tests use 0.05)")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1,
                        help="2: run everything twice and compare against the bounds")
    args = parser.parse_args()
    if args.sets == 2 and (args.trace or args.workload):
        parser.error("--sets 2 compares the end-to-end metrics of all workloads")

    if args.workload:
        return run_workload(spec, args.workload, args.seed, args.seconds, args.trace,
                            args.scale)
    print(f"python {platform.python_version()} on {os.cpu_count()} cores, "
          f"request scale {args.scale}, seed {args.seed}")
    if args.sets == 1:
        _run_all(args, "")
        return 0
    return _compare_sets(spec, _run_all(args, "[A] "), _run_all(args, "[B] "))


if __name__ == "__main__":
    sys.exit(main())
