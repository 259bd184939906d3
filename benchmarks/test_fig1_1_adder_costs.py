"""Experiment E1 — Figure 1.1: cost table of four constant adders.

Regenerates the paper's table (size, depth, ancillas per construction)
from the actual implementations, measuring construction time and
asserting the asymptotic *shape*: Cuccaro/Takahashi/Häner-strip are
Θ(n) in size, Draper is Θ(n²); all are Θ(n) deep; ancilla counts are
n+1 clean / n clean / 0 / n-1 dirty (the Häner column uses the paper's
own benchmark carry-strip construction — substitution documented in
docs/reproduction.md).
"""

import pytest

from repro.adders.costs import ADDER_BUILDERS, adder_cost_rows, fit_growth

from benchmarks.conftest import run_once

WIDTHS = [8, 16, 32, 64, 128]

EXPECTED_SIZE_EXPONENT = {
    "cuccaro": (0.85, 1.15),
    "takahashi": (0.85, 1.15),
    "draper": (1.7, 2.2),
    "haner": (0.85, 1.15),
}


@pytest.mark.parametrize("adder", sorted(ADDER_BUILDERS))
def test_fig1_1_adder_costs(benchmark, adder):
    builder = ADDER_BUILDERS[adder]

    def build_all():
        return [builder(n) for n in WIDTHS]

    run_once(benchmark, build_all)

    rows = [r for r in adder_cost_rows(WIDTHS) if r.adder == adder]
    for row in rows:
        benchmark.extra_info[f"n={row.n}"] = (
            f"size={row.size} depth={row.depth} "
            f"clean={row.clean_ancillas} dirty={row.dirty_ancillas}"
        )

    size_exp = fit_growth([r.n for r in rows], [r.size for r in rows])
    depth_exp = fit_growth([r.n for r in rows], [r.depth for r in rows])
    benchmark.extra_info["size_exponent"] = round(size_exp, 2)
    benchmark.extra_info["depth_exponent"] = round(depth_exp, 2)

    low, high = EXPECTED_SIZE_EXPONENT[adder]
    assert low < size_exp < high, f"{adder} size grows as n^{size_exp:.2f}"
    assert 0.8 < depth_exp < 1.3, f"{adder} depth grows as n^{depth_exp:.2f}"

    n = WIDTHS[-1]
    last = rows[-1]
    expected_ancillas = {
        "cuccaro": (n + 1, 0),
        "takahashi": (n, 0),
        "draper": (0, 0),
        "haner": (0, n - 1),
    }[adder]
    assert (last.clean_ancillas, last.dirty_ancillas) == expected_ancillas
