"""Every artifact of EXPERIMENTS.md, regenerated at its scale of record.

One test per entry of :data:`repro.harness.figures.FIGURES`: run the
figure's grid once under pytest-benchmark, print the paper-style table,
and fail on any claim that does not hold. The grids, renderers and claim
thresholds live in the table; this file adds nothing to them.

    pytest benchmarks/bench_figures.py --benchmark-only -s -k fig8
"""

import pytest

from repro.harness.figures import FIGURES, check_claims, run_figure
from repro.harness.report import print_experiment


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.name)
def test_figure(figure, once):
    results = once(run_figure, figure)
    print_experiment(figure.title, figure.render(results, figure.record))
    verdicts = list(check_claims([figure], results))
    assert verdicts, f"{figure.name} makes no claim"
    failed = [claim.text for _, claim, holds in verdicts if not holds]
    assert not failed, f"{figure.name}: claims do not hold: {failed}"
