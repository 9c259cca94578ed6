"""``python -m repro.bench.figures --compare``: two snapshots, leaf by leaf.

Canned payloads only: a moved host-clock leaf is not a difference; a moved,
dropped or added seeded leaf (or section) is printed and exits 1.
"""

import copy
import json

import pytest

from repro.bench import figures


def _snapshot():
    return {
        "schema": 14,
        "figure10_prediction_scaling": {
            "wall_seconds": 6.1,
            "sim_requests_per_cpu_s": 1650.9,
            "points": [{"threads": 10, "requests_per_s": 120.5},
                       {"threads": 20, "requests_per_s": 240.0}],
        },
        "figure12_retwis_scaling": {
            "wall_seconds": 36.2,
            "sim_requests_per_cpu_s": 699.0,
            "points": [{"threads": 160, "requests_per_s": 22222.0, "p99_ms": 22.08}],
        },
        "table2_anomalies": {"anomalies": {"LWW": 0, "SK": 3033}, "levels": []},
    }


def _run(tmp_path, capsys, parent, change):
    paths = []
    for name, payload in (("parent", parent), ("change", change)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    code = figures.main(["--compare", *paths])
    return code, capsys.readouterr().out


def test_identical_snapshots_exit_zero(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, _snapshot(), _snapshot())
    assert code == 0
    assert "0 difference(s)" in out


def test_moved_host_leaves_exit_zero(tmp_path, capsys):
    change = _snapshot()
    change["figure10_prediction_scaling"]["wall_seconds"] = 9.9
    change["figure10_prediction_scaling"]["sim_requests_per_cpu_s"] = 1.0
    change["figure12_retwis_scaling"]["wall_seconds"] = 99.0
    change["figure12_retwis_scaling"]["sim_requests_per_cpu_s"] = 1.0
    code, out = _run(tmp_path, capsys, _snapshot(), change)
    assert code == 0, out


@pytest.mark.parametrize("edit, expected", [
    (lambda p: p["table2_anomalies"]["anomalies"].update(SK=3034),
     "moved: table2_anomalies/anomalies/SK: 3033 -> 3034"),
    (lambda p: p["figure10_prediction_scaling"]["points"][1].update(requests_per_s=1.0),
     "moved: figure10_prediction_scaling/points/1/requests_per_s: 240.0 -> 1.0"),
    (lambda p: p["figure12_retwis_scaling"]["points"][0].update(p99_ms=9.6),
     "moved: figure12_retwis_scaling/points/0/p99_ms: 22.08 -> 9.6"),
    (lambda p: p["table2_anomalies"]["anomalies"].pop("LWW"),
     "only in parent: table2_anomalies/anomalies/LWW = 0"),
    (lambda p: p["figure10_prediction_scaling"]["points"].pop(),
     "only in parent: figure10_prediction_scaling/points/1/requests_per_s = 240.0"),
    (lambda p: p["table2_anomalies"]["levels"].append("DSC"),
     "only in change: table2_anomalies/levels/0 = 'DSC'"),
    (lambda p: p.pop("table2_anomalies"), "section only in parent: table2_anomalies"),
    (lambda p: p.update(fault_recovery={}), "section only in change: fault_recovery"),
], ids=["moved", "moved-in-list", "moved-beside-host-leaves", "dropped",
        "dropped-list-entry", "added", "section-dropped", "section-added"])
def test_a_seeded_difference_exits_one_and_is_printed(tmp_path, capsys, edit, expected):
    change = copy.deepcopy(_snapshot())
    edit(change)
    code, out = _run(tmp_path, capsys, _snapshot(), change)
    assert code == 1
    assert expected in out.splitlines()


def test_the_record_stamp_is_declared_once_per_figure():
    for figure in figures.FIGURES:
        stamps = [p for p in figure.host_patterns() if p.endswith("/wall_seconds")
                  and p.count("/") == 1]
        assert stamps == [f"{figure.sections[0]}/wall_seconds"]
