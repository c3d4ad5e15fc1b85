"""Tests for parameter sweeps (operating envelopes and crossovers)."""

from repro.eval.sweeps import (
    format_sweep,
    mitm_retry_sweep,
    resync_probability_sweep,
    window_reduction_strategy,
    window_size_sweep,
)


class TestWindowSweep:
    def test_small_windows_evade_large_ones_fail(self):
        rates = window_size_sweep(windows=(5, 10, 200), trials=4, seed=1)
        assert rates[5] == 1.0
        assert rates[10] == 1.0
        assert rates[200] == 0.0

    def test_crossover_is_monotone(self):
        rates = window_size_sweep(windows=(5, 20, 40, 100), trials=4, seed=2)
        values = [rates[w] for w in (5, 20, 40, 100)]
        assert values == sorted(values, reverse=True)

    def test_parameterised_strategy_parses(self):
        strategy = window_reduction_strategy(17)
        assert "replace:17" in str(strategy)


class TestMitmSweep:
    def test_fifteen_second_window(self):
        results = mitm_retry_sweep(delays=(1.0, 14.0, 16.0, 30.0))
        assert results[1.0] is False
        assert results[14.0] is False
        assert results[16.0] is True
        assert results[30.0] is True


class TestResyncSweep:
    def test_success_tracks_probability(self):
        rates = resync_probability_sweep(
            probabilities=(0.0, 0.5, 1.0), trials=60, seed=3
        )
        assert rates[0.0] <= 0.1
        assert 0.3 <= rates[0.5] <= 0.7
        assert rates[1.0] >= 0.9
        assert rates[0.0] < rates[0.5] < rates[1.0]


class TestCensorHopSweep:
    def test_placement_invariance(self):
        from repro.eval.sweeps import censor_hop_sweep

        rates = censor_hop_sweep(hops=(1, 4, 8), trials=40, seed=5)
        values = list(rates.values())
        assert max(values) - min(values) <= 0.2
        assert all(0.3 <= value <= 0.75 for value in values)


class TestZeroWindow:
    def test_zero_window_trickles_and_evades(self):
        """A zero advertised window degrades to one-byte persist probes —
        the most extreme segmentation; the exchange still completes."""
        rates = window_size_sweep(windows=(0, 1), trials=3, seed=9)
        assert rates[0] == 1.0
        assert rates[1] == 1.0


class TestFormatting:
    def test_format_sweep(self):
        text = format_sweep("demo", {1: 0.5, 2: True})
        assert "demo" in text and "50%" in text and "True" in text


class TestImpairmentRobustnessSweep:
    def test_sweep_covers_all_countries_and_rates(self):
        from repro.eval.sweeps import impairment_robustness_sweep

        curves = impairment_robustness_sweep(
            loss_rates=(0.0, 0.05), trials=4, seed=0, net_seed=1
        )
        assert sorted(curves) == [
            "china", "india", "iran", "kazakhstan", "russia", "southkorea",
        ]
        for curve in curves.values():
            assert sorted(curve) == [0.0, 0.05]
            for rate in curve.values():
                assert 0.0 <= rate <= 1.0

    def test_sweep_is_deterministic(self):
        from repro.eval.sweeps import impairment_robustness_sweep

        kwargs = dict(loss_rates=(0.05,), trials=4, seed=3, net_seed=1)
        assert impairment_robustness_sweep(**kwargs) == impairment_robustness_sweep(
            **kwargs
        )

    def test_zero_loss_matches_unimpaired_measurement(self):
        """The 0.0 point of every curve is the plain success_rate — the
        sweep's baseline is the pre-impairment measurement, not a
        degenerate impaired one."""
        from repro.core import deployed_strategy
        from repro.eval.runner import success_rate
        from repro.eval.sweeps import impairment_robustness_sweep, robustness_case

        curves = impairment_robustness_sweep(
            loss_rates=(0.0,), countries=("india",), trials=5, seed=2
        )
        protocol, number = robustness_case("india")
        direct = success_rate(
            "india", protocol, deployed_strategy(number), trials=5, seed=2
        )
        assert curves["india"][0.0] == direct

    def test_format_robustness(self):
        from repro.eval.sweeps import format_robustness

        text = format_robustness({"india": {0.0: 1.0, 0.05: 0.5}})
        assert "india" in text
        assert "5.0%" in text
