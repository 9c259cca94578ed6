#!/usr/bin/env python
"""Which functions under ``src/`` the benchmark path never calls.

One ``sys.settrace`` pass covers what the project's figures, gates and
benchmark run:

* every entry of the figure registry at ``smoke`` scale (``Figure.record``),
  then ``gate_errors``, every entry's ``table`` and ``figures --compare``
  of the written snapshot with itself, as CI's golden-file step runs it;
* ``benchmarks/perf``'s four workloads at request scale 0.05, traced (the
  host-span wrappers installed).  An untraced pass found no function the
  traced one misses (DESIGN.md DR-29), and leaving it out can only list
  more functions as uncalled, never fewer;
* every ``examples/*.py``, run as ``__main__`` with its stdout dropped, so
  only this tool's own lines reach the output.  The options census counts
  ``examples/`` as a caller too (``CALLER_ROOTS``).

Every function and method defined under ``src/`` whose code object never
received a call event is listed by file, with its line span counted from its
first decorator through its last line.  ``benchmarks/census.py`` ratchets
the two totals (DESIGN.md DR-32), and DESIGN.md DR-36 records why each
remaining function stays.

``--options`` is the static census of options instead (DESIGN.md DR-20):
every defaulted parameter of a function or constructor under ``src/``, and
every field of a ``*Config`` class, that no call in ``src/``,
``benchmarks/`` or ``examples/`` passes.  Calls are matched to definitions
by name, so a call to any ``put`` counts for every ``put``.  A callee counts
as setting every parameter when a call passes it ``*args`` or ``**kwargs``,
or when its name appears anywhere as a value (the registry's ``run_*``
functions, registered Cloudburst functions).  It runs nothing and imports
nothing.

Usage::

    python benchmarks/reachability.py            # the listing and the totals
    python benchmarks/reachability.py --summary  # the totals line only
    python benchmarks/reachability.py --options [--summary]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import runpy
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PERF = REPO_ROOT / "benchmarks" / "perf"
EXAMPLES = REPO_ROOT / "examples"
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
    """Everything the figures, the gates, the snapshot compare, the
    benchmark and the examples call."""
    from measure import run_once
    from trace import SpanRecorder
    from workloads import WORKLOADS

    from repro.bench import figures

    payload = {"seed": figures.SMOKE_SEED, "scale": "smoke"}
    for figure in figures.FIGURES:
        payload.update(figure.record("smoke", figures.SMOKE_SEED, workdir))
    figures.gate_errors(payload, "smoke")
    for figure in figures.FIGURES:
        figure.table(payload)
    snapshot = workdir / "BENCH_throughput.json"
    snapshot.write_text(json.dumps(payload))
    with contextlib.redirect_stdout(io.StringIO()):
        figures.main(["--compare", str(snapshot), str(snapshot)])
    for name in sorted(WORKLOADS):
        run_once(WORKLOADS[name], 0, PERF_SCALE, SpanRecorder())
    for example in sorted(EXAMPLES.glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(example), run_name="__main__")


def called_sites() -> Set[Site]:
    codes: Set = set()

    def record_call(frame, event, arg) -> None:
        # A global trace function hears only "call" events, one per Python
        # frame; returning None leaves the frame's lines untraced.
        codes.add(frame.f_code)

    with tempfile.TemporaryDirectory() as workdir:
        sys.settrace(record_call)
        try:
            run_benchmark_path(Path(workdir))
        finally:
            sys.settrace(None)
    return {(code.co_filename, code.co_firstlineno) for code in codes}


#: Where the calls that count as a caller's choice live (``tests/`` does not).
CALLER_ROOTS = (SRC, REPO_ROOT / "benchmarks", EXAMPLES)


def _callee_name(func: ast.AST):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def defaulted_options() -> List[Tuple[str, int, str, str]]:
    """Every defaulted parameter and ``*Config`` field under ``src/``.

    Each entry is ``(file, line, owner, parameter, callee, index)``: the
    name a call uses to reach it (a constructor is called by its class name)
    and the count of positional arguments a call must pass to set it (None
    when it is keyword-only).
    """
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, owner) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    if child.name.endswith("Config"):
                        fields = [item for item in child.body
                                  if isinstance(item, ast.AnnAssign)
                                  and isinstance(item.target, ast.Name)]
                        for index, item in enumerate(fields):
                            found.append((str(path), item.lineno, child.name,
                                          item.target.id, child.name, index))
                    visit(child, child)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    static = any(_callee_name(d) == "staticmethod"
                                 for d in child.decorator_list)
                    skip = 1 if owner is not None and not static else 0
                    callee = owner.name if child.name == "__init__" else child.name
                    qualname = (f"{owner.name}.{child.name}" if owner is not None
                                else child.name)
                    first_default = len(positional) - len(args.defaults)
                    for index, arg in enumerate(positional):
                        if index >= first_default:
                            found.append((str(path), child.lineno, qualname, arg.arg,
                                          callee, index - skip))
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            found.append((str(path), child.lineno, qualname, arg.arg,
                                          callee, None))
                    visit(child, None)
                else:
                    visit(child, owner)

        visit(tree, None)
    return found


def unset_options() -> List[Tuple[str, int, str, str]]:
    """The defaulted parameters no call outside ``tests/`` passes."""
    keywords: Dict[str, Set[str]] = defaultdict(set)
    reach: Dict[str, int] = defaultdict(int)  # the most positional args passed
    everything: Set[str] = set()  # passed *args/**kwargs, or used as a value
    for root in CALLER_ROOTS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            # Names that only type something are not values: annotations,
            # subscripts (``Optional[X]``, a ``Callable[...]`` alias),
            # isinstance/issubclass classes and caught exception types.
            types: List[ast.AST] = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Subscript):
                    types.append(node.slice)
                elif isinstance(node, ast.arg) and node.annotation is not None:
                    types.append(node.annotation)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    types.extend(r for r in (node.returns,) if r is not None)
                elif isinstance(node, ast.AnnAssign):
                    types.append(node.annotation)
                elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                    types.append(node.type)
                elif (isinstance(node, ast.Call) and len(node.args) == 2
                      and _callee_name(node.func) in ("isinstance", "issubclass")):
                    types.append(node.args[1])
            callees = {id(inner) for node in types for inner in ast.walk(node)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                callees.add(id(node.func))
                name = _callee_name(node.func)
                if name is None:
                    continue
                if (any(isinstance(arg, ast.Starred) for arg in node.args)
                        or any(kw.arg is None for kw in node.keywords)):
                    everything.add(name)
                reach[name] = max(reach[name], len(node.args))
                keywords[name].update(kw.arg for kw in node.keywords if kw.arg)
            for node in ast.walk(tree):
                if (isinstance(node, (ast.Name, ast.Attribute))
                        and isinstance(node.ctx, ast.Load) and id(node) not in callees):
                    everything.add(_callee_name(node))
    return [(path, line, owner, parameter)
            for path, line, owner, parameter, callee, index in defaulted_options()
            if callee not in everything and parameter not in keywords[callee]
            and (index is None or index >= reach[callee])]


def print_options(summary: bool) -> None:
    unset = unset_options()
    if not summary:
        by_owner: Dict[Tuple[str, int, str], List[str]] = defaultdict(list)
        for path, line, owner, parameter in unset:
            by_owner[(path, line, owner)].append(parameter)
        for (path, line, owner), parameters in sorted(by_owner.items()):
            relative = Path(path).relative_to(REPO_ROOT)
            print(f"{relative}:{line}  {owner}({', '.join(parameters)})")
    print(f"unset options: {len(unset)} defaulted parameters no call outside "
          f"tests/ passes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summary", action="store_true",
                        help="print only the totals line")
    parser.add_argument("--options", action="store_true",
                        help="list defaulted parameters no call outside tests/ "
                             "passes (static; runs nothing)")
    args = parser.parse_args(argv)
    if args.options:
        print_options(args.summary)
        return 0

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
