"""Tests for the Figure 1.1 cost-table machinery (experiment E1)."""

import pytest

from repro.adders import adder_cost_rows
from repro.adders.costs import fit_growth


class TestCostRows:
    def test_all_four_columns_present(self):
        rows = adder_cost_rows([8])
        assert {row.adder for row in rows} == {
            "cuccaro",
            "takahashi",
            "draper",
            "haner",
        }

    def test_ancilla_contract_matches_figure_11(self):
        rows = {row.adder: row for row in adder_cost_rows([16])}
        n = 16
        # Cuccaro: n+1 clean; Takahashi: n clean; Draper: 0;
        # Häner strip: n-1 dirty (see the substitutions in
        # docs/reproduction.md).
        assert rows["cuccaro"].clean_ancillas == n + 1
        assert rows["takahashi"].clean_ancillas == n
        assert rows["draper"].clean_ancillas == 0
        assert rows["draper"].dirty_ancillas == 0
        assert rows["haner"].dirty_ancillas == n - 1
        assert rows["haner"].clean_ancillas == 0

    def test_row_rendering(self):
        row = adder_cost_rows([8])[0]
        assert "size=" in str(row) and "n=8" in str(row)


class TestGrowthFits:
    WIDTHS = [8, 16, 32, 64]

    def exponent(self, adder, metric):
        rows = [r for r in adder_cost_rows(self.WIDTHS) if r.adder == adder]
        return fit_growth(
            [r.n for r in rows], [getattr(r, metric) for r in rows]
        )

    @pytest.mark.parametrize("adder", ["cuccaro", "takahashi", "haner"])
    def test_linear_size_adders(self, adder):
        assert 0.85 < self.exponent(adder, "size") < 1.15

    def test_draper_quadratic_size(self):
        assert 1.7 < self.exponent("draper", "size") < 2.2

    @pytest.mark.parametrize(
        "adder", ["cuccaro", "takahashi", "draper", "haner"]
    )
    def test_linear_depth(self, adder):
        assert 0.8 < self.exponent(adder, "depth") < 1.3

    def test_fit_growth_validates(self):
        with pytest.raises(ValueError):
            fit_growth([1], [1])
