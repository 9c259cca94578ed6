#!/usr/bin/env python
"""The ``src/`` census, and the ratchet that stops it from rising.

Each row counts one shape the project has deleted a second mechanism for
(DESIGN.md DR-12, DR-18 to DR-24 and DR-27 to DR-29):

* lines under ``src/`` matching a pattern: a test for a missing engine, an
  attach/detach method, an uncharged-context branch, an optional request
  context, a hidden default context, and a hand-built trace span (outside
  ``repro/obs/``);
* constructor options: every ``__init__`` parameter (``self`` excluded) plus
  every field of a ``*Config`` class under ``src/``, read with ``ast``;
* unset options: the defaulted parameters no call outside ``tests/`` passes,
  as ``benchmarks/reachability.py --options`` of the same tree counts them;
* uncalled functions and their lines: the functions under ``src/`` that
  the figure registry at smoke scale and ``benchmarks/perf``'s workloads
  never call, as the one totals line of ``benchmarks/reachability.py
  --summary`` of the same tree counts them (DR-28; it runs both, so a census
  takes about a minute, and both rows read one run);
* private scheduler calls: lines under ``src/`` that reach into a
  scheduler's private members (``scheduler._x``) — a DAG session asks the
  scheduler only for its public placement calls;
* record writes: assignments and augmented assignments, read with ``ast``,
  to a field of a ``SessionRecord`` or ``AttemptRecord`` (or to a subscript
  of one) outside ``cloudburst/journal.py`` — ``advance`` is the one writer.

``benchmarks/census.json`` holds each row's ceiling.  ``--check`` fails when
a count rises above its ceiling; raising a ceiling is an edit to that file,
and CHANGES.md says why.  A count below its ceiling is reported, so the same
change can lower it.  ``--report BASE --check`` prints the report and then
checks the same head counts, so CI counts each tree once.

Usage::

    python benchmarks/census.py                        # the counts of this tree
    python benchmarks/census.py --check                # exit 1 above a ceiling
    python benchmarks/census.py --report BASE [--check]  # base -> head, as markdown
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
CEILINGS = Path(__file__).resolve().parent / "census.json"
sys.path.insert(0, str(CEILINGS.parent))

from pairs import export  # noqa: E402


def _matching_lines(pattern: str, exclude: Tuple[str, ...] = ()
                    ) -> Callable[[Path], int]:
    regex = re.compile(pattern)

    def count(tree: Path) -> int:
        total = 0
        for path in sorted((tree / "src").rglob("*.py")):
            relative = path.relative_to(tree).as_posix()
            if not any(relative.startswith(prefix) for prefix in exclude):
                total += sum(1 for line in path.read_text().splitlines()
                             if regex.search(line))
        return total

    return count


def constructor_options(tree: Path) -> int:
    total = 0
    for path in sorted((tree / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    args = item.args
                    total += (len(args.posonlyargs) + len(args.args) - 1
                              + len(args.kwonlyargs))
                elif node.name.endswith("Config") and isinstance(item, ast.AnnAssign):
                    total += 1
    return total


#: The one module allowed to write a session record (DESIGN.md DR-29).
RECORD_CORE = "src/repro/cloudburst/journal.py"
#: Names a session record or attempt record is held under: ``record``,
#: ``self.attempt``, ``record.attempts[-1]``, ``current_attempt()``.
_RECORD_OWNER = re.compile(r"(record|attempt)s?$")


def record_writes(tree: Path) -> int:
    """Assignments and augmented assignments to a ``SessionRecord`` or
    ``AttemptRecord`` field, or to a subscript of one, outside the core."""
    parsed = {path: ast.parse(path.read_text(), filename=str(path))
              for path in sorted((tree / "src").rglob("*.py"))}
    fields = {item.target.id for module in parsed.values() for node in module.body
              if isinstance(node, ast.ClassDef)
              and node.name in ("SessionRecord", "AttemptRecord")
              for item in node.body if isinstance(item, ast.AnnAssign)}

    def held_as_record(expr: ast.AST) -> bool:
        while isinstance(expr, (ast.Subscript, ast.Call)):
            expr = expr.value if isinstance(expr, ast.Subscript) else expr.func
        name = expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", "")
        return bool(_RECORD_OWNER.search(name))

    def writes(target: ast.AST) -> int:
        if isinstance(target, (ast.Tuple, ast.List)):
            return sum(writes(element) for element in target.elts)
        while isinstance(target, ast.Subscript):
            target = target.value
        return int(isinstance(target, ast.Attribute) and target.attr in fields
                   and held_as_record(target.value))

    total = 0
    for path, module in parsed.items():
        if path.relative_to(tree).as_posix() == RECORD_CORE:
            continue
        for node in ast.walk(module):
            if isinstance(node, ast.Assign):
                total += sum(writes(target) for target in node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                total += writes(node.target)
    return total


@functools.lru_cache(maxsize=None)
def _reachability_summary(tree: Path, *flags: str) -> str:
    """The totals line of ``reachability.py [flags] --summary`` of ``tree``,
    run once per tree and flags however many rows read it."""
    return subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "reachability.py"),
         *flags, "--summary"],
        capture_output=True, text=True, check=True).stdout.strip()


def _reachability_total(pattern: str, *flags: str) -> Callable[[Path], int]:
    """The number ``pattern`` captures in ``reachability.py [flags] --summary``
    of the same tree."""
    regex = re.compile(pattern)

    def count(tree: Path) -> int:
        return int(regex.search(_reachability_summary(tree, *flags)).group(1))

    return count


#: ``(key in census.json, label, count)``, in report order.
ROWS: List[Tuple[str, str, Callable[[Path], int]]] = [
    ("engine_is_none", "`engine is (not )?None`",
     _matching_lines(r"engine is (not )?None")),
    ("attach_detach", "`def (attach|detach)`",
     _matching_lines(r"def (attach|detach)")),
    ("ctx_is_none", "`ctx is (not )?None`",
     _matching_lines(r"ctx is (not )?None")),
    ("optional_request_context", r"`Optional\[RequestContext\]`",
     _matching_lines(r"Optional\[RequestContext\]")),
    ("default_context", r"`ctx or RequestContext\(`",
     _matching_lines(r"ctx or RequestContext\(")),
    ("constructor_options", "`__init__` parameters + `*Config` fields",
     constructor_options),
    ("unset_options", "`reachability.py --options` (unset options)",
     _reachability_total(r"unset options: (\d+)", "--options")),
    ("uncalled_functions", "`reachability.py` (functions never called)",
     _reachability_total(r"uncalled: (\d+) of \d+ functions")),
    ("uncalled_lines", "`reachability.py` (lines of functions never called)",
     _reachability_total(r"uncalled: \d+ of \d+ functions, (\d+) lines")),
    ("span_sites", r"span sites: `span is (not )?None|\.child\(|\.finish\(`"
     " outside `repro/obs/`",
     _matching_lines(r"span is (not )?None|\.child\(|\.finish\(",
                     exclude=("src/repro/obs/",))),
    ("private_scheduler_calls", r"`scheduler\._[a-z]`",
     _matching_lines(r"scheduler\._[a-z]")),
    ("record_writes", "writes to a session/attempt record field outside "
     "`cloudburst/journal.py`", record_writes),
]


def census(tree: Path) -> Dict[str, int]:
    return {key: count(tree) for key, _label, count in ROWS}


def _base_census(base: str) -> Dict[str, int]:
    """The census of commit ``base``, counted in a scratch export of it."""
    with tempfile.TemporaryDirectory() as scratch:
        return census(export(base, Path(scratch) / "base"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a count exceeds its census.json ceiling")
    parser.add_argument("--report", metavar="BASE",
                        help="print base -> head for each row as a markdown table")
    args = parser.parse_args(argv)
    head = census(REPO_ROOT)
    ceilings = json.loads(CEILINGS.read_text())
    above = [key for key, _label, _count in ROWS
             if key not in ceilings or head[key] > ceilings[key]]

    if args.report:
        base = _base_census(args.report)
        print("### `src/` census, base → head (ceilings: `benchmarks/census.json`)")
        print("| row | base | head | ceiling |")
        print("|---|---|---|---|")
        for key, label, _count in ROWS:
            label = label.replace("|", "\\|")  # a pipe inside a table cell
            print(f"| {label} | {base[key]} | {head[key]} | {ceilings.get(key, '—')} |")
        print(f"\nHead, `reachability.py --summary`: `{_reachability_summary(REPO_ROOT)}`")
    else:
        for key, label, _count in ROWS:
            ceiling = ceilings.get(key)
            note = ""
            if ceiling is None:
                note = "  (no ceiling in census.json)"
            elif head[key] > ceiling:
                note = f"  ABOVE its ceiling {ceiling}"
            elif head[key] < ceiling:
                note = f"  (ceiling {ceiling} can be lowered)"
            print(f"{head[key]:>5}  {label}{note}")
    if args.check and above:
        print(f"census: {len(above)} row(s) above the ratchet ({', '.join(above)}); "
              f"lower the count, or raise the ceiling in "
              f"{CEILINGS.relative_to(REPO_ROOT)} and say why in CHANGES.md",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
