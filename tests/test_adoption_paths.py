"""Adoption-path integration tests: what a deploying operator would run.

Exercises the recommended per-(country, protocol) strategies end-to-end,
the Table2Cell reporting surface, and consistency between the reference
tables, workloads, and strategy library — the invariants a downstream
deployment depends on.
"""

import pytest

from repro.censors import COUNTRIES
from repro.core import SERVER_STRATEGIES, deployed_strategy
from repro.eval import (
    censored_workload,
    run_trial,
    success_rate,
)
from repro.eval.reference import TABLE2_CHINA, paper_rate
from repro.eval.table2 import Table2Cell


class TestRecommendedStrategies:
    @pytest.mark.parametrize(
        "country,protocol",
        [(c, p) for c, profile in COUNTRIES.items() for p in profile.protocols],
    )
    def test_recommendation_beats_baseline(self, country, protocol):
        """Every recommended strategy decisively beats no evasion."""
        number = COUNTRIES[country].strategies[protocol]
        trials = 30
        recommended = success_rate(
            country, protocol, deployed_strategy(number), trials=trials, seed=4242
        )
        baseline = success_rate(country, protocol, None, trials=10, seed=4242)
        assert recommended >= baseline + 0.3, (country, protocol, number)

    def test_recommendations_reference_table2_winners(self):
        """Each recommendation's paper rate is the column maximum among
        the strategies Table 2 lists for that country. The SNI-era boxes
        (southkorea, russia) postdate the paper and have no Table 2 row;
        their grid lives in eval/sni_matrix.py."""
        for country, profile in COUNTRIES.items():
            if country in ("southkorea", "russia"):
                continue
            for protocol, number in profile.strategies.items():
                chosen = paper_rate(country, number, protocol)
                assert chosen is not None, (country, protocol)
                if country == "china":
                    best = max(TABLE2_CHINA[n][protocol] for n in range(1, 9))
                    assert chosen >= best - 1, (country, protocol)


class TestReferenceConsistency:
    def test_every_censored_pair_has_workload(self):
        for country, profile in COUNTRIES.items():
            for protocol in profile.protocols:
                workload = censored_workload(country, protocol)
                assert workload, (country, protocol)

    def test_table2_china_rows_complete(self):
        for number, row in TABLE2_CHINA.items():
            assert set(row) == {"dns", "ftp", "http", "https", "smtp"}, number

    def test_strategy_numbers_match_library(self):
        assert set(TABLE2_CHINA) - {0} <= set(SERVER_STRATEGIES)

    def test_workloads_actually_trigger_censorship(self):
        """Each censored workload trips its censor (5 seeds, any hit)."""
        for country, profile in COUNTRIES.items():
            for protocol in profile.protocols:
                hit = any(
                    run_trial(country, protocol, None, seed=s).censored
                    for s in range(5)
                )
                assert hit, (country, protocol)


class TestTable2Cell:
    def test_percentage_and_delta(self):
        cell = Table2Cell("china", 1, "http", measured=0.515, paper=54)
        assert cell.measured_pct == 52
        assert cell.delta == -2

    def test_missing_paper_value(self):
        cell = Table2Cell("iran", 1, "http", measured=0.5, paper=None)
        assert cell.delta is None


class TestStrategyRecordSurface:
    def test_every_record_builds_three_variants(self):
        for number, record in SERVER_STRATEGIES.items():
            assert not record.strategy().is_noop()
            assert not record.deployed().is_noop()
            assert not record.compat().is_noop()

    def test_variant_names_identify_strategy(self):
        record = SERVER_STRATEGIES[5]
        assert record.strategy().name == "strategy-5"
        assert record.compat().name == "strategy-5-compat"

    def test_deployed_defaults_to_printed_form(self):
        record = SERVER_STRATEGIES[1]
        assert str(record.deployed()) == str(record.strategy())

    def test_strategy8_deployed_differs(self):
        record = SERVER_STRATEGIES[8]
        assert str(record.deployed()) != str(record.strategy())
        assert str(record.deployed()).count("tamper{TCP:window:replace:10}") == 4
