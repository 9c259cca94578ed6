"""Every paper figure at full scale, one pytest-benchmark test per registry entry.

The experiments, their budgets, gates and printed tables are declared once in
:mod:`repro.bench.figures`; this file only runs each entry at ``full`` (seed
0) under pytest-benchmark's timer, prints its table (``-s`` shows it) and
asserts its gate::

    pytest benchmarks/bench_figures.py --benchmark-only -s
    pytest benchmarks/bench_figures.py --benchmark-only -k figure7
"""

import pytest
from conftest import emit

from repro.bench.figures import FIGURES


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.sections[0])
def test_figure(figure, bench_once, tmp_path):
    sections = bench_once(figure.record, "full", 0, tmp_path)
    emit(figure.title, figure.table(sections))
    assert figure.errors(sections, "full") == []
