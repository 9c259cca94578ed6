"""The ``src/`` census ratchet (``benchmarks/census.py``).

The committed tree sits at or below every ceiling in
``benchmarks/census.json``, a tree with one more defaulted constructor
parameter is caught by two rows, and a session record written outside the
journal's ``advance`` is caught by the ``record_writes`` row.
"""

import importlib.util
import json
import shutil
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
