#!/usr/bin/env python
"""Which functions under ``src/`` the benchmark path never calls.

One ``sys.setprofile`` pass covers what the project's figures, gates and
benchmark run:

* every entry of the figure registry at ``smoke`` scale (``Figure.record``),
  then ``gate_errors``, every entry's ``table`` and one ``apply_ledger`` call;
* ``benchmarks/perf``'s four workloads at request scale 0.05, once untraced
  and once traced (the host-span wrappers installed).

Every function and method defined under ``src/`` whose code object never
received a call event is listed by file, with its line span counted from its
first decorator through its last line.  Nothing is gated: the totals are a
number to read next to the diffstat (DESIGN.md DR-19 records why each
remaining function stays).

Usage::

    python benchmarks/reachability.py            # the listing and the totals
    python benchmarks/reachability.py --summary  # the totals line only
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PERF = REPO_ROOT / "benchmarks" / "perf"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(PERF))

#: The request scale the perf workloads run at (CI's per-layer tables use it).
PERF_SCALE = 0.05

#: ``(file, first line)`` of one function: the line its code object reports.
Site = Tuple[str, int]


def defined_functions() -> Dict[Site, Tuple[str, int]]:
    """Every function under ``src/``: site -> (qualified name, line count)."""
    found: Dict[Site, Tuple[str, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    found[(str(path), first)] = (name, child.end_lineno - first + 1)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def run_benchmark_path(workdir: Path) -> None:
    """Everything the figures, the gates, the ledger and the benchmark call."""
    from measure import run_once
    from trace import SpanRecorder
    from workloads import WORKLOADS

    from repro.bench import apply_ledger, figures

    payload = {"seed": figures.SMOKE_SEED, "scale": "smoke"}
    for figure in figures.FIGURES:
        payload.update(figure.record("smoke", figures.SMOKE_SEED, workdir))
    errors = figures.gate_errors(payload, "smoke")
    for figure in figures.FIGURES:
        figure.table(payload)
    apply_ledger(payload, errors, workdir / "ledger.sqlite",
                 seed_snapshot=REPO_ROOT / "BENCH_throughput.json")
    for name in sorted(WORKLOADS):
        run_once(WORKLOADS[name], 0, PERF_SCALE)
        run_once(WORKLOADS[name], 0, PERF_SCALE, SpanRecorder())


def called_sites() -> Set[Site]:
    codes: Set = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            codes.add(frame.f_code)

    with tempfile.TemporaryDirectory() as workdir:
        sys.setprofile(profile)
        try:
            run_benchmark_path(Path(workdir))
        finally:
            sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in codes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summary", action="store_true",
                        help="print only the totals line")
    args = parser.parse_args(argv)

    functions = defined_functions()
    called = called_sites()
    by_file: Dict[str, List[Tuple[int, str, int]]] = defaultdict(list)
    for (path, first), (name, lines) in functions.items():
        if (path, first) not in called:
            by_file[path].append((first, name, lines))

    total_functions = sum(len(entries) for entries in by_file.values())
    total_lines = sum(lines for entries in by_file.values() for _, _, lines in entries)
    if not args.summary:
        for path in sorted(by_file):
            entries = sorted(by_file[path])
            relative = Path(path).relative_to(REPO_ROOT)
            print(f"{relative}: {len(entries)} functions, "
                  f"{sum(lines for _, _, lines in entries)} lines")
            for first, name, lines in entries:
                print(f"  {first:>5}  {name} ({lines})")
    print(f"uncalled: {total_functions} of {len(functions)} functions, "
          f"{total_lines} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
