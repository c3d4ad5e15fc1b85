"""Tests for the trial runner."""

import pytest

from repro.censors import COUNTRIES
from repro.core import deployed_strategy
from repro.eval import (
    Trial,
    benign_workload,
    censored_workload,
    default_port,
    run_trial,
    success_rate,
)
from repro.runtime import CampaignError, TrialExecutor, TrialSpec, trial_seed


class TestConfiguration:
    def test_country_protocol_table(self):
        assert COUNTRIES["china"].protocols == ("dns", "ftp", "http", "https", "smtp")
        assert COUNTRIES["india"].protocols == ("http",)
        assert COUNTRIES["iran"].protocols == ("http", "https")
        assert COUNTRIES["kazakhstan"].protocols == ("http",)

    def test_default_ports(self):
        assert default_port("http") == 80
        assert default_port("dns") == 53

    def test_workloads_available(self):
        for country, profile in COUNTRIES.items():
            for protocol in profile.protocols:
                assert censored_workload(country, protocol)
        for protocol in ("http", "https", "dns", "ftp", "smtp"):
            assert benign_workload(protocol)

    def test_unknown_country_rejected(self):
        with pytest.raises(ValueError):
            run_trial("atlantis", "http", None)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        a = run_trial("china", "http", deployed_strategy(1), seed=5)
        b = run_trial("china", "http", deployed_strategy(1), seed=5)
        assert a.outcome == b.outcome
        assert len(a.trace) == len(b.trace)

    def test_different_seeds_vary(self):
        outcomes = {
            run_trial("china", "http", deployed_strategy(1), seed=s).outcome
            for s in range(12)
        }
        assert len(outcomes) > 1  # ~50% strategy: both outcomes appear

    def test_success_rate_bounds(self):
        rate = success_rate("kazakhstan", "http", deployed_strategy(11), trials=5)
        assert rate == 1.0
        rate = success_rate("kazakhstan", "http", None, trials=5)
        assert rate == 0.0

    @pytest.mark.parametrize(
        "country, protocol, trials",
        [("narnia", "http", 2), ("china", "gopher", 2), ("china", "http", 0), ("china", "http", -3)],
    )
    def test_success_rate_rejects_a_bad_cell(self, country, protocol, trials):
        with pytest.raises(CampaignError):
            success_rate(country, protocol, None, trials=trials)

    def test_success_rate_specs_carry_the_client_strategy(self):
        """The client strategy is a spec field, so cache keys stay as they were."""

        class Recording(TrialExecutor):
            def run_batch(self, specs):
                self.specs = list(specs)
                return super().run_batch(specs)

        client = deployed_strategy(8)
        executor = Recording()
        success_rate("china", "http", None, trials=2, seed=4, client_strategy=client,
                     executor=executor)
        assert [spec.canonical_key() for spec in executor.specs] == [
            TrialSpec.build(
                "china", "http", None, seed=trial_seed(4, i), client_strategy=client
            ).canonical_key()
            for i in range(2)
        ]


class TestTrialAnatomy:
    def test_no_censor_mode(self):
        result = run_trial(None, "http", None, seed=1)
        assert result.succeeded
        assert not result.censored

    def test_trace_attached(self):
        result = run_trial("china", "http", None, seed=1)
        assert result.trace is not None
        assert result.trace.filter(kind="censor")

    def test_censor_exposed_on_trial(self):
        trial = Trial("china", "http", None, seed=1)
        trial.run()
        assert trial.censor.censorship_events == 1

    def test_client_os_selectable(self):
        trial = Trial(None, "http", None, seed=1, client_os="windows-10-enterprise-17134")
        assert trial.client_host.personality.family == "windows"

    def test_topology_hop_counts(self):
        trial = Trial("china", "http", None, seed=1)
        # censor at index 2 (hop 3), server at hop 10.
        assert trial.network.middleboxes[2] is trial.censor
        assert len(trial.network.middleboxes) == 9
