"""The ``src/`` census ratchet (``benchmarks/census.py``).

The committed tree sits at or below every ceiling in
``benchmarks/census.json``, a tree with one more defaulted constructor
parameter is caught by two rows, and a session record written outside the
journal's ``advance`` is caught by the ``record_writes`` row.  ``--report``
counts its base in a ``git archive`` export made by ``pairs.export``, and
``--report --check`` still checks the head counts it reported.
"""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "bench_census", REPO_ROOT / "benchmarks" / "census.py")
census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census)


def test_every_row_has_a_ceiling_and_the_tree_is_at_or_below_it():
    ceilings = json.loads(census.CEILINGS.read_text())
    assert set(ceilings) == {key for key, _label, _count in census.ROWS}
    assert census.main(["--check"]) == 0


def test_an_added_defaulted_option_rises_above_the_ratchet(tmp_path):
    for part in ("src", "benchmarks", "examples"):
        shutil.copytree(REPO_ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    tracing = tmp_path / "src" / "repro" / "obs" / "tracing.py"
    source = tracing.read_text()
    signature = "def __init__(self, sample_rate: float = 1.0):"
    assert signature in source
    tracing.write_text(source.replace(
        signature, "def __init__(self, sample_rate: float = 1.0, retain: bool = True):"))

    # Only the two rows read here: ``uncalled_lines`` runs the benchmarks.
    for key, _label, count in census.ROWS:
        if key in ("constructor_options", "unset_options"):
            assert count(tmp_path) == count(REPO_ROOT) + 1, key


def test_a_record_write_outside_the_core_rises_above_the_ratchet(tmp_path):
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    sessions = tmp_path / "src" / "repro" / "cloudburst" / "sessions.py"
    source = sessions.read_text()
    anchor = '        self._step(("crash", self.state.caches_involved))\n'
    assert anchor in source
    sessions.write_text(source.replace(
        anchor, anchor + "        self.record.retries += 1\n"))

    ceiling = json.loads(census.CEILINGS.read_text())["record_writes"]
    assert census.record_writes(REPO_ROOT) <= ceiling
    assert census.record_writes(tmp_path) == census.record_writes(REPO_ROOT) + 1
    assert census.record_writes(tmp_path) > ceiling


def test_the_base_is_counted_in_an_export_of_its_commit(monkeypatch):
    # The rows are stubbed to read the tree's own ceilings file: what
    # ``_base_census`` counts is the committed file, in a tree that is gone
    # once it returns.
    trees = []

    def ceilings_of(tree):
        trees.append(tree)
        return json.loads((tree / "benchmarks" / "census.json").read_text())

    monkeypatch.setattr(census, "census", ceilings_of)
    committed = subprocess.run(["git", "show", "HEAD:benchmarks/census.json"],
                               cwd=REPO_ROOT, capture_output=True, text=True,
                               check=True).stdout
    assert census._base_census("HEAD") == json.loads(committed)
    assert census.export.__module__ == "pairs"
    assert len(trees) == 1 and not trees[0].exists()


def test_report_with_check_still_fails_above_a_ceiling(monkeypatch, capsys):
    # Canned counts: every row at its ceiling but one, which is one above.
    ceilings = json.loads(census.CEILINGS.read_text())
    head = dict(ceilings, span_sites=ceilings["span_sites"] + 1)
    totals = "uncalled: 1 of 2 functions, 3 lines"
    monkeypatch.setattr(census, "census", lambda tree: head)
    monkeypatch.setattr(census, "_base_census", lambda base: ceilings)
    monkeypatch.setattr(census, "_reachability_summary", lambda tree, *flags: totals)

    assert census.main(["--report", "BASE", "--check"]) == 1
    out, err = capsys.readouterr()
    span_row = next(line for line in out.splitlines() if "span sites" in line)
    assert span_row.split(" | ")[-3:] == [str(ceilings["span_sites"]),
                                          str(head["span_sites"]),
                                          f"{ceilings['span_sites']} |"]
    assert totals in out
    assert "(span_sites)" in err

    monkeypatch.setattr(census, "census", lambda tree: ceilings)
    assert census.main(["--report", "BASE", "--check"]) == 0


def test_both_uncalled_rows_read_one_reachability_run(monkeypatch, tmp_path):
    runs = []

    def reachability(command, **_kwargs):
        runs.append(command[2:])
        return subprocess.CompletedProcess(
            command, 0, stdout="uncalled: 148 of 847 functions, 572 lines\n")

    monkeypatch.setattr(census.subprocess, "run", reachability)
    rows = {key: count for key, _label, count in census.ROWS}
    assert rows["uncalled_functions"](tmp_path) == 148
    assert rows["uncalled_lines"](tmp_path) == 572
    assert runs == [["--summary"]]
