"""Preset campaigns reproduce the evaluation drivers bit-for-bit."""

import pytest

from repro.campaign import CampaignLedger, run_campaign
from repro.campaign.presets import PRESETS, coevolve_campaign
from repro.core import deployed_strategy
from repro.eval import success_rate
from repro.eval.matrix import measure_censorship_matrix
from repro.eval.sni_matrix import sni_matrix
from repro.eval.sweeps import impairment_robustness_sweep
from repro.eval.table2 import CHINA_STRATEGY_NUMBERS, generate_table2

#: Each driver preset's default campaign hash. A grid edit that changes
#: one orphans every ledger recorded under the old hash, so it must be
#: deliberate: update the pin in the same change and say so.
PINNED_HASHES = {
    "matrix": "ab4ff85f5625e912e4b422b00b8ea71de8db2d01c703adf0ec65f493827060b4",
    "robustness": "e1d03e1ef4f3aac61acee8e5e46350282089eba39d24b33dc3f6df6ca12cd026",
    "sni": "c882ccde3afcba567cd49e6cf4987f63865eb533b313f50aab67d16d2386fb5a",
    "table2": "2a2b9e1ffa8dc1d0ac9da844fc28a3bd66e28840e2bea60da644d5d81de37868",
    "table2-china": "7070225dc5cd084df5e66d7d89f3fc109d71f3f91a6524c49aad4eaf70bb9ffc",
}


class TestRegistry:
    def test_all_presets_registered(self):
        assert sorted(PRESETS) == [
            "coevolve", "matrix", "robustness", "sni", "table2", "table2-china",
        ]

    def test_every_preset_expands(self):
        for name, factory in PRESETS.items():
            spec = factory()
            assert spec.total_trials > 0, name
            assert spec.shards(), name

    def test_preset_hashes_are_stable(self):
        for factory in PRESETS.values():
            assert factory().campaign_hash() == factory().campaign_hash()

    @pytest.mark.parametrize("name", sorted(PINNED_HASHES))
    def test_driver_preset_hash_is_pinned(self, name):
        assert PRESETS[name]().campaign_hash() == PINNED_HASHES[name]


def campaign_cells(name, tmp_path, **overrides):
    """Run a driver preset through ``run_campaign``; its per-cell results."""
    result = run_campaign(PRESETS[name](**overrides), tmp_path / name)
    assert result.finalized
    return result.cells


class TestPresetsMatchDrivers:
    """Each driver preset measures exactly what its driver measures."""

    def test_matrix(self, tmp_path):
        cells = campaign_cells("matrix", tmp_path, trials=1, seed=3)
        entries = measure_censorship_matrix(seed=3, probes=1)
        assert [(c.country, c.protocol) for c in cells] == [
            (e.country, e.protocol) for e in entries
        ]
        assert [c.censored > 0 or c.successes < c.trials for c in cells] == [
            e.censored for e in entries
        ]

    def test_sni(self, tmp_path):
        cells = campaign_cells("sni", tmp_path, trials=2, seed=1)
        grid = sni_matrix(trials=2, seed=1)
        assert [(c.country, c.label) for c in cells] == [
            (g.country, f"sni-{g.column}") for g in grid
        ]
        assert [c.rate for c in cells] == [g.measured for g in grid]

    def test_robustness(self, tmp_path):
        cells = campaign_cells("robustness", tmp_path, trials=2, net_seed=5)
        curves = impairment_robustness_sweep(trials=2, net_seed=5)
        expected = [
            (country, f"loss-{loss:g}", rate)
            for country, curve in curves.items()
            for loss, rate in curve.items()
        ]
        assert [(c.country, c.label, c.rate) for c in cells] == expected

    def test_table2(self, tmp_path):
        cells = campaign_cells("table2", tmp_path, trials=2, seed=4)
        table = generate_table2(trials=2, seed=4)
        assert [(c.country, c.protocol, c.label, c.rate) for c in cells] == [
            (t.country, t.protocol, f"strategy-{t.strategy_number}", t.measured)
            for t in table
        ]


class TestSeedDerivations:
    def test_table2_china_seeds_follow_generate_table2(self):
        spec = PRESETS["table2-china"](trials=3, seed=10)
        by_label = {(c.label, c.protocol): c for c in spec.cells}
        for number in CHINA_STRATEGY_NUMBERS:
            cell = by_label[(f"strategy-{number}", "http")]
            assert cell.seed == 10 + number * 1_000_003
            assert cell.trials == 3

    def test_table2_other_rows_use_reduced_trials(self):
        spec = PRESETS["table2"](trials=150)
        other = [c for c in spec.cells if c.country != "china"]
        assert other
        assert all(c.trials == 30 for c in other)
        assert {c.country for c in other} <= {"india", "iran", "kazakhstan"}

    def test_robustness_grid_has_loss_labels(self):
        spec = PRESETS["robustness"](trials=2)
        labels = {c.label for c in spec.cells}
        assert "loss-0" in labels
        assert any(label.startswith("loss-0.0") for label in labels)

    def test_matrix_cells_carry_workloads(self):
        spec = PRESETS["matrix"](trials=1)
        assert all("workload" in c.options for c in spec.cells)

    def test_coevolve_preset_rebuilds_identically(self):
        """Resume-safety: the seeded search regenerates the same cells."""
        first = coevolve_campaign(trials=2, seed=1)
        second = coevolve_campaign(trials=2, seed=1)
        assert first.campaign_hash() == second.campaign_hash()

    def test_coevolve_cells_pair_paper_strategies_with_censors(self):
        spec = coevolve_campaign(trials=2, seed=1)
        baseline = [c for c in spec.cells if c.label.endswith("-baseline")]
        adapted = [c for c in spec.cells if "-adapted-" in c.label]
        assert baseline and adapted
        assert all("censor_params" not in c.options for c in baseline)
        assert all("censor_params" in c.options for c in adapted)
        # Every adapted cell must expand into runnable trial specs.
        assert adapted[0].trial_specs()


class TestTable2ChinaAcceptance:
    """The ISSUE acceptance: the preset reproduces Table 2's China column."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("table2") / "camp"
        spec = PRESETS["table2-china"](
            trials=2, shard_size=10, china_protocols=("http",)
        )
        result = run_campaign(spec, out)
        assert result.finalized
        return spec, result

    def test_rates_equal_direct_success_rate(self, report):
        spec, result = report
        for cell_spec, cell in zip(spec.cells, result.cells):
            number = int(cell_spec.label.split("-")[1])
            strategy = deployed_strategy(number) if number else None
            expected = success_rate(
                "china", "http", strategy, trials=2, seed=cell_spec.seed
            )
            assert cell.rate == expected, cell_spec.label

    def test_merged_metrics_cover_every_trial(self, report):
        spec, result = report
        outcomes = result.metrics["repro_trial_outcomes_total"]
        assert outcomes["kind"] == "counter"
        total = sum(outcomes["samples"].values())
        assert total == spec.total_trials

    def test_merged_metrics_are_sharding_independent(self, report, tmp_path):
        spec, result = report
        resharded = PRESETS["table2-china"](
            trials=2, shard_size=3, china_protocols=("http",)
        )
        again = run_campaign(resharded, tmp_path / "camp")

        # Everything except the executor's batch counter must be identical:
        # batches == shards by construction, so that one family is the only
        # part of the merged view allowed to see the shard size.
        def trial_level(snapshot):
            return {
                k: v for k, v in snapshot.items()
                if k != "repro_executor_batches_total"
            }

        assert trial_level(again.metrics) == trial_level(result.metrics)
        assert (
            again.metrics["repro_executor_batches_total"]
            != result.metrics["repro_executor_batches_total"]
        )
