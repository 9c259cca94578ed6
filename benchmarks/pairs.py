#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, as one command.

    python benchmarks/pairs.py PARENT_REF                       # predict_dag, ten pairs
    python benchmarks/pairs.py PARENT_REF --workload retwis_read --pairs 6
    python benchmarks/pairs.py PARENT_REF --workload retwis_read --workload predict_dag
    python benchmarks/pairs.py PARENT_REF --workload all       # BENCHMARK.json's four

The committed trees of ``PARENT_REF`` and ``HEAD`` are exported with ``git
archive`` into a temporary directory, as ``benchmarks/census.py --report``
exports its base.
Each pair runs ``benchmarks/perf/run.py --workload W --seed 0 --seconds 10``
once in each checkout; the parent goes first in even pairs and the change in
odd ones, so a drift in the host's speed lands on both sides.

The report is the host-speed protocol of ROADMAP item 5, for every host
metric ``BENCHMARK.json`` declares (``sim_req_per_host_s``, ``setup_s``,
``peak_rss_mb``): each pair's ratio (change / parent), the change's wins
(higher or lower, as the metric's ``better`` says), both medians and the
parent's quartile distance; then the median of every other end-to-end
metric on each side, with the parent's quartile distance — one report per
workload, the workloads paired one after another.  Virtual-time results
repeat exactly for a seed, so the command exits 1 if any ``virt_*`` metric
of any workload differs between the sides, or if any run fails its own
checks.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The metric a host-speed claim names; higher is better.
HOST_METRIC = "sim_req_per_host_s"
DEFAULT_WORKLOAD = "predict_dag"

Metrics = Dict[str, float]
Pair = Tuple[Metrics, Metrics]


def _declared() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def benchmark_workloads() -> List[str]:
    """The workloads ``BENCHMARK.json`` declares, in its order."""
    return [workload["name"] for workload in _declared()["workloads"]]


def host_metrics() -> Dict[str, bool]:
    """Each host end-to-end metric ``BENCHMARK.json`` declares, in its
    order: whether higher is better."""
    return {metric["name"]: metric["better"] == "higher"
            for metric in _declared()["end_to_end"]
            if not metric["name"].startswith("virt_")}


def workloads(requested: Sequence[str]) -> List[str]:
    """The workloads to pair, in order, each once; ``all`` is BENCHMARK.json's."""
    names: List[str] = []
    for name in requested or [DEFAULT_WORKLOAD]:
        for workload in benchmark_workloads() if name == "all" else [name]:
            if workload not in names:
                names.append(workload)
    return names


def export(ref: str, dest: Path) -> Path:
    """The committed tree of ``ref``, extracted under ``dest``."""
    archive = subprocess.run(["git", "archive", ref], cwd=REPO_ROOT,
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_side(checkout: Path, workload: str) -> Tuple[Metrics, bool]:
    """One benchmark run in ``checkout``: its metric values and whether it passed."""
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "10"],
        cwd=checkout, capture_output=True, text=True)
    if not done.stdout.strip():
        sys.stderr.write(done.stderr)
        return {}, False
    result = json.loads(done.stdout.strip().split("\n")[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return values, done.returncode == 0 and result["correct"]


def order(pair: int) -> Tuple[str, str]:
    """Which side runs first in pair number ``pair`` (counted from 0)."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def quartile_distance(values: Sequence[float]) -> float:
    """Third minus first quartile, by linear interpolation."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return third - first


def compare(parent: Sequence[float], change: Sequence[float], higher: bool) -> dict:
    """One host metric over the pairs: per-pair ratios (change / parent), the
    change's wins, both medians, the parent's quartile distance, and
    whether the median gain exceeds it (``higher``: higher is better)."""
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    spread = quartile_distance(parent)
    gain = change_median - parent_median if higher else parent_median - change_median
    return {
        "ratios": [c / p for p, c in zip(parent, change)],
        "wins": sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p)),
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartile_distance": spread,
        "beats_spread": gain > spread,
    }


def summarize(pairs: Sequence[Pair]) -> dict:
    """The protocol's numbers for ``(parent, change)`` metric values per pair.

    The top level is the claimed metric's :func:`compare`; ``host`` holds
    every host metric's; ``medians`` every metric's but the claimed one.
    """
    def sides(name):
        return [p[name] for p, _ in pairs], [c[name] for _, c in pairs]

    host = {name: compare(*sides(name), higher)
            for name, higher in host_metrics().items() if name in pairs[0][0]}
    names = [name for name in pairs[0][0] if name != HOST_METRIC]
    return {
        **host[HOST_METRIC],
        "host": host,
        "medians": {name: (statistics.median(p[name] for p, _ in pairs),
                           statistics.median(c[name] for _, c in pairs),
                           quartile_distance([p[name] for p, _ in pairs]))
                    for name in names},
        "virt_differs": sorted({name for p, c in pairs for name in p
                                if name.startswith("virt_") and p[name] != c.get(name)}),
    }


def report(summary: dict, workload: str) -> str:
    pairs = len(summary["ratios"])
    lines = [f"{workload}: {pairs} alternating pairs, change / parent"]
    for name, host in summary["host"].items():
        lines.append(f"  {name} ({'higher' if host_metrics()[name] else 'lower'} "
                     f"is better):")
        lines += [f"    pair {index:>2}: x{ratio:.3f}"
                  for index, ratio in enumerate(host["ratios"], start=1)]
        lines += [
            f"    wins: {host['wins']}/{pairs}",
            f"    medians: parent {host['parent_median']:.6g}, "
            f"change {host['change_median']:.6g} "
            f"(x{host['change_median'] / host['parent_median']:.3f})",
            f"    parent quartile distance: {host['parent_quartile_distance']:.3g} "
            f"({'beaten' if host['beats_spread'] else 'NOT beaten'} by the median gain)",
        ]
    for name, (parent, change, spread) in summary["medians"].items():
        if name not in summary["host"]:
            lines.append(f"  {name:<22} parent {parent:.6g} (quartile distance "
                         f"{spread:.3g})  change {change:.6g}  x{change / parent:.4f}")
    if summary["virt_differs"]:
        lines.append(f"  VIRTUAL RESULTS DIFFER: {', '.join(summary['virt_differs'])}")
    return "\n".join(lines)


def run_pairs(checkouts: Dict[str, Path], workload: str,
              count: int) -> Tuple[List[Pair], int]:
    """``count`` alternating pairs of ``workload``: the pairs, and failed runs."""
    failed = 0
    pairs: List[Pair] = []
    for pair in range(count):
        values = {}
        for side in order(pair):
            values[side], passed = run_side(checkouts[side], workload)
            failed += not passed
        if not (values["parent"] and values["change"]):
            break
        pairs.append((values["parent"], values["change"]))
        ratio = values["change"][HOST_METRIC] / values["parent"][HOST_METRIC]
        print(f"{workload} pair {pair + 1}/{count}: x{ratio:.3f}", file=sys.stderr)
    return pairs, failed


def verdict(results: Dict[str, Tuple[List[Pair], int]]) -> Tuple[str, int]:
    """One report per workload, and the exit code over all of them."""
    reports, bad = [], False
    for workload, (pairs, failed) in results.items():
        if not pairs:
            reports.append(f"{workload}: no pair completed")
            bad = True
            continue
        summary = summarize(pairs)
        text = report(summary, workload)
        if failed:
            text += f"\n  {failed} run(s) failed their own checks"
        reports.append(text)
        bad = bad or bool(failed) or bool(summary["virt_differs"])
    return "\n\n".join(reports), int(bad)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REF")
    parser.add_argument("--workload", action="append", dest="workloads", metavar="W",
                        help=f"repeatable; 'all' is BENCHMARK.json's workloads "
                             f"(default: {DEFAULT_WORKLOAD})")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        checkouts = {"parent": export(args.parent, Path(scratch) / "parent"),
                     "change": export("HEAD", Path(scratch) / "change")}
        results = {workload: run_pairs(checkouts, workload, args.pairs)
                   for workload in workloads(args.workloads)}
    text, code = verdict(results)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
