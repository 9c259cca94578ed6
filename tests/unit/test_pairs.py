"""The alternating-pairs summary (``benchmarks/pairs.py``) on canned numbers."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", REPO_ROOT / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

VIRTUAL = {"virt_throughput_rps": 249.8, "virt_latency_p50_ms": 208.7}


def _side(host, setup_s=0.01, **virtual):
    return {"sim_req_per_host_s": host, "setup_s": setup_s, **VIRTUAL, **virtual}


def test_sides_alternate_which_goes_first():
    assert [pairs.order(n) for n in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_counts_wins_medians_and_the_parents_spread():
    parent = [700.0, 800.0, 600.0, 900.0]
    change = [1000.0, 790.0, 900.0, 1100.0]
    summary = pairs.summarize([(_side(p), _side(c, setup_s=0.02))
                               for p, c in zip(parent, change)])
    assert summary["ratios"] == pytest.approx([10 / 7, 0.9875, 1.5, 11 / 9])
    assert summary["wins"] == 3
    assert summary["parent_median"] == 750.0
    assert summary["change_median"] == 950.0
    # Inclusive quartiles of 600, 700, 800, 900: 675 and 825.
    assert summary["parent_quartile_distance"] == pytest.approx(150.0)
    assert summary["beats_spread"]
    assert summary["medians"]["setup_s"] == (0.01, 0.02, 0.0)
    assert "sim_req_per_host_s" not in summary["medians"]
    assert summary["virt_differs"] == []
    report = pairs.report(summary, "predict_dag")
    assert "wins: 3/4" in report and "beaten" in report


def test_a_gain_inside_the_parents_spread_is_not_a_claim():
    summary = pairs.summarize([(_side(p), _side(p + 10.0))
                               for p in (500.0, 700.0, 900.0)])
    assert summary["wins"] == 3
    assert summary["parent_quartile_distance"] == pytest.approx(200.0)
    assert not summary["beats_spread"]
    assert "NOT beaten" in pairs.report(summary, "retwis_read")


def test_any_virtual_difference_is_reported():
    summary = pairs.summarize([
        (_side(800.0), _side(900.0)),
        (_side(800.0), _side(900.0, virt_latency_p50_ms=208.8)),
    ])
    assert summary["virt_differs"] == ["virt_latency_p50_ms"]
    assert "VIRTUAL RESULTS DIFFER: virt_latency_p50_ms" in pairs.report(summary, "w")


def test_workloads_default_repeat_and_all():
    assert pairs.workloads(None) == ["predict_dag"]
    assert pairs.workloads(["retwis_read", "predict_dag", "retwis_read"]) == [
        "retwis_read", "predict_dag"]
    everything = pairs.workloads(["all"])
    assert everything == ["retwis_read", "retwis_write", "predict_dag", "session_dags"]
    assert pairs.workloads(["predict_dag", "all"])[0] == "predict_dag"
    assert sorted(pairs.workloads(["predict_dag", "all"])) == sorted(everything)


def test_verdict_reports_every_workload_and_fails_on_any_of_them():
    clean = [(_side(800.0), _side(820.0))] * 3
    text, code = pairs.verdict({"retwis_read": (clean, 0), "predict_dag": (clean, 0)})
    assert code == 0
    assert text.index("retwis_read:") < text.index("predict_dag:")
    moved = [(_side(800.0), _side(820.0, virt_throughput_rps=249.9))]
    text, code = pairs.verdict({"retwis_read": (clean, 0), "session_dags": (moved, 0)})
    assert code == 1 and "VIRTUAL RESULTS DIFFER: virt_throughput_rps" in text
    text, code = pairs.verdict({"retwis_write": (clean, 1), "predict_dag": (clean, 0)})
    assert code == 1 and "1 run(s) failed their own checks" in text
    text, code = pairs.verdict({"predict_dag": ([], 2)})
    assert code == 1 and "predict_dag: no pair completed" in text


def test_every_host_metric_gets_ratios_wins_and_the_parents_spread():
    """``setup_s`` and ``peak_rss_mb`` are lower-is-better: a win is a
    smaller reading, and the gain is the parent's median minus the
    change's."""
    assert pairs.host_metrics() == {
        "sim_req_per_host_s": True, "setup_s": False, "peak_rss_mb": False}
    setups = [(0.010, 0.008), (0.012, 0.013), (0.011, 0.007), (0.013, 0.009)]
    rss = [(47.8, 47.9), (47.8, 47.9), (47.9, 47.9), (47.7, 47.8)]
    summary = pairs.summarize([
        ({**_side(800.0, setup_s=ps), "peak_rss_mb": pr},
         {**_side(820.0, setup_s=cs), "peak_rss_mb": cr})
        for (ps, cs), (pr, cr) in zip(setups, rss)])
    assert list(summary["host"]) == ["sim_req_per_host_s", "setup_s", "peak_rss_mb"]
    assert summary["host"]["sim_req_per_host_s"]["wins"] == summary["wins"] == 4
    setup = summary["host"]["setup_s"]
    assert setup["ratios"] == pytest.approx([0.8, 13 / 12, 7 / 11, 9 / 13])
    assert setup["wins"] == 3
    assert setup["parent_median"] == pytest.approx(0.0115)
    assert setup["change_median"] == pytest.approx(0.0085)
    # Inclusive quartiles of 0.010, 0.011, 0.012, 0.013: 0.01075 and 0.01225.
    assert setup["parent_quartile_distance"] == pytest.approx(0.0015)
    assert setup["beats_spread"]  # 0.003 lower, beyond 0.0015
    peak = summary["host"]["peak_rss_mb"]
    assert peak["wins"] == 0 and not peak["beats_spread"]
    assert peak["ratios"] == pytest.approx([47.9 / 47.8, 47.9 / 47.8, 1.0, 47.8 / 47.7])
    report = pairs.report(summary, "predict_dag")
    for name in ("sim_req_per_host_s (higher", "setup_s (lower", "peak_rss_mb (lower"):
        assert name in report
    assert report.count("wins: ") == 3 and "wins: 3/4" in report and "wins: 0/4" in report
    assert report.count("    pair  4: x") == 3
    assert report.count("(beaten by the median gain)") == 2
    assert report.count("(NOT beaten by the median gain)") == 1
