"""The SNI evaluation matrix: expected shape, determinism, formatting.

The acceptance grid for the SNI-era subsystem: at least one
record-splitting strategy AND at least one segmentation strategy defeat
the lenient reassembling censor, while the strict variant shows residual
blocking (only deep connection migration gets through).
"""

import pytest

from repro.censors import countries_with
from repro.eval.sni_matrix import (
    SNI_COLUMNS,
    esni_workload,
    format_sni_matrix,
    sni_matrix,
)


@pytest.fixture(scope="module")
def grid():
    cells = sni_matrix(trials=5, seed=0)
    return {(c.country, c.column): c.measured for c in cells}


class TestExpectedShape:
    def test_baselines_fully_blocked(self, grid):
        for country in countries_with("sni"):
            assert grid[(country, "baseline")] == 0.0, country

    def test_record_split_defeats_lenient_box(self, grid):
        assert grid[("southkorea", "12")] == 1.0

    def test_segmentation_defeats_lenient_box(self, grid):
        assert grid[("southkorea", "13")] == 1.0

    def test_migration_defeats_lenient_box(self, grid):
        assert grid[("southkorea", "14")] == 1.0
        assert grid[("southkorea", "15")] == 1.0

    def test_esni_defeats_lenient_box(self, grid):
        assert grid[("southkorea", "esni")] == 1.0

    def test_strict_box_shows_residual_blocking(self, grid):
        """Russia's in-path box fires on the ClientHello itself, so
        server-flight transforms and ESNI all still lose."""
        for column in ("12", "13", "14", "esni"):
            assert grid[("russia", column)] == 0.0, column

    def test_only_deep_migration_beats_strict_box(self, grid):
        assert grid[("russia", "15")] == 1.0

    def test_grid_is_complete(self, grid):
        assert set(grid) == {
            (country, column)
            for country in countries_with("sni")
            for column in SNI_COLUMNS
        }


class TestDeterminism:
    def test_repeat_runs_identical(self):
        a = sni_matrix(trials=3, seed=2)
        b = sni_matrix(trials=3, seed=2)
        assert [(c.country, c.column, c.measured) for c in a] == [
            (c.country, c.column, c.measured) for c in b
        ]

    def test_worker_count_does_not_change_rates(self):
        serial = sni_matrix(trials=4, seed=1, workers=1)
        pooled = sni_matrix(trials=4, seed=1, workers=4)
        assert [(c.country, c.column, c.measured) for c in serial] == [
            (c.country, c.column, c.measured) for c in pooled
        ]

    def test_country_filter_preserves_cell_values(self):
        full = {
            (c.country, c.column): c.measured
            for c in sni_matrix(trials=3, seed=4)
        }
        only_russia = sni_matrix(trials=3, seed=4, countries=["russia"])
        assert only_russia
        for cell in only_russia:
            assert cell.country == "russia"
            assert cell.measured == full[(cell.country, cell.column)]


class TestWorkloadsAndFormat:
    def test_esni_workload_carries_the_censored_name(self):
        workload = esni_workload("russia")
        assert workload["encrypted_sni"] is True
        assert workload["server_name"] == "blocked.example.ru"

    def test_format_lists_every_column(self, grid):
        from repro.eval.sni_matrix import SNIMatrixCell

        cells = [
            SNIMatrixCell(country, column, rate)
            for (country, column), rate in sorted(grid.items())
        ]
        text = format_sni_matrix(cells)
        assert "southkorea" in text and "russia" in text
        assert "No evasion" in text
        assert "Encrypted SNI (no strategy)" in text
