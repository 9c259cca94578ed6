"""Checks on the benchmark itself.  Run with ``pytest benchmarks/perf``."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import retwis
from repro.lattices import VectorClock
from repro.sim import Engine

import measure
from trace import SpanRecorder
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SCALE = 0.05
_METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)$")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_ones_benchmark_json_names(workload, trace, section):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--scale", str(SCALE)],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    *report, last = done.stdout.strip().split("\n")
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}

    printed = dict(match.group(1, 3) for match in map(_METRIC_LINE.match, report) if match)
    assert printed.pop("failed_fraction") == "ratio"
    assert printed == expected

    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_spans_form_a_tree_whose_self_times_sum_to_the_root():
    originals = (vars(Engine)["run"], vars(VectorClock)["merge"],
                 retwis.CLOUDBURST_FUNCTIONS["retwis_get_timeline"])
    recorder = SpanRecorder()
    repetition = measure.run_once(WORKLOADS["retwis_write"], 0, SCALE, recorder)

    assert not repetition.problems
    span_ids = {span[0] for span in recorder.spans}
    roots = [span for span in recorder.spans if span[1] is None]
    assert [span[4] for span in roots] == ["Engine.run"]
    assert all(span[1] in span_ids for span in recorder.spans if span[1] is not None)
    assert {span[2] % 20 for span in recorder.spans if span[2] is not None} == {0}

    layers = {name: value for name, value in repetition.traced.items()
              if name.endswith(".host_self_s")}
    assert sum(layers.values()) == pytest.approx(recorder.root_s(), rel=0.01)
    assert max(layers, key=layers.get) == "lattices.host_self_s"

    assert recorder.patched and recorder.unrestored() == []
    assert originals == (vars(Engine)["run"], vars(VectorClock)["merge"],
                         retwis.CLOUDBURST_FUNCTIONS["retwis_get_timeline"])


def test_same_seed_repeats_exactly_and_another_seed_does_not():
    workload = WORKLOADS["session_dags"]
    first, again, other = (measure.run_once(workload, seed, SCALE) for seed in (0, 0, 1))
    assert first.virtual_results() == again.virtual_results()
    assert first.latencies_ms != other.latencies_ms
    assert first.virt_throughput_rps != other.virt_throughput_rps
