#!/usr/bin/env python
"""Run every paper figure and emit a machine-readable snapshot.

Records each entry of the figure registry (``repro.bench.figures``: Figures
1 and 5–12, Table 2, the design ablations, the §4.5 fault matrix and the
tracing plane's self-check) into
``BENCH_throughput.json`` and prints its table, so successive PRs have a
trajectory to compare against.  Everything runs the real Cloudburst stack
under the discrete-event engine; each entry's first section also records
the wall-clock runtime of its harness.  Entries that write files (the fig 7
span dump and Chrome trace, the fault matrix's session journals) write them
next to ``--output``.

The run is also the regression gate CI runs on every push: it exits nonzero
when any entry's gate fails (paper orderings, scaling ratios, the Table 2
invariants, the §4.4 control plane, the §4.5 oracle — the registry holds
each clause once).  On top of those fixed thresholds, every run is appended
to the historical bench ledger (``bench_ledger.sqlite``, see
``repro.bench.ledger``) and trend-gated against its own history: the seeded
160-thread and fig 7 throughputs must stay within 15% of the median of the
last five recorded runs.  An empty ledger is seeded from the committed
snapshot; a corrupt or missing one degrades to the fixed thresholds with a
warning.  Every gate reads seeded values only, so the exit code depends on
seed, scale and code, never on the host's speed: the host-clock leaves
(``wall_seconds``, the sweeps' ``sim_requests_per_cpu_s``) are reported and
recorded, and host speed is measured by ``benchmarks/perf`` (paired across
commits by ``benchmarks/pairs.py``).  Section-by-section schema
documentation lives in ``docs/BENCH_SCHEMA.md``.

Usage::

    python benchmarks/run_all.py                  # default (reduced) scale
    python benchmarks/run_all.py --quick          # smallest scale, same gates
    python benchmarks/run_all.py --full           # benchmark-default scale
    python benchmarks/run_all.py --output out.json --seed 3
    python benchmarks/run_all.py --no-ledger      # skip the history/trend gate
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Snapshot layout version; docs/BENCH_SCHEMA.md documents it and its history.
SCHEMA_VERSION = 15
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import DEFAULT_LEDGER_NAME, apply_ledger, figures  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_throughput.json"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="run at the benchmark-default (slower) scale")
    parser.add_argument("--quick", action="store_true",
                        help="smallest scale (CI smoke); same gates")
    parser.add_argument("--ledger", default=None,
                        help="bench ledger database to append this run to "
                             "(default: bench_ledger.sqlite next to --output)")
    parser.add_argument("--ledger-seed", default=str(REPO_ROOT / "BENCH_throughput.json"),
                        help="snapshot used to seed an empty ledger so trend "
                             "gates have history (default: the committed "
                             "BENCH_throughput.json)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="skip the historical ledger and its trend gate "
                             "(fixed thresholds still apply)")
    args = parser.parse_args(argv)
    if args.full and args.quick:
        parser.error("--full and --quick are mutually exclusive")
    scale = "full" if args.full else "quick" if args.quick else "reduced"

    output = Path(args.output)
    payload = {"schema": SCHEMA_VERSION, "seed": args.seed, "scale": scale}
    for figure in figures.FIGURES:
        print(f"{figure.title}...", flush=True)
        sections = figure.record(scale, args.seed, output.parent)
        payload.update(sections)
        print(figure.table(sections), flush=True)

    errors = figures.gate_errors(payload, scale)
    if not args.no_ledger:
        # Historical ledger: append this run and trend-check it against the
        # last TREND_WINDOW runs (seeding an empty history from the committed
        # snapshot).  A corrupt/missing ledger degrades to the fixed
        # thresholds above with a warning — see repro/bench/ledger.py.
        ledger_path = (Path(args.ledger) if args.ledger
                       else output.parent / DEFAULT_LEDGER_NAME)
        ledger_section, ledger_errors = apply_ledger(
            payload, errors, ledger_path, seed_snapshot=args.ledger_seed)
        payload["ledger"] = ledger_section
        errors += ledger_errors
        for metric, check in sorted((ledger_section.get("trend") or {}).items()):
            median_text = ("no history" if check["median"] is None
                           else f"median {check['median']:.2f} "
                                f"over {check['window']} run(s)")
            status = "ok" if check["ok"] else "REGRESSED"
            print(f"  ledger {metric}: {check['value']:.2f} vs {median_text} "
                  f"[{status}]")
    payload["consistency_invariants_ok"] = \
        not payload["table2_anomalies"]["invariant_violations"]
    payload["bench_gate_ok"] = not errors
    payload["gate_errors"] = errors
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")

    if errors:
        print("BENCH GATE FAILURES:", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
