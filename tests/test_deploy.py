"""Tests for §8 deployment: mid-path strategies and per-client selection."""

import random

import pytest

from repro.censors import COUNTRIES
from repro.core import deployed_strategy
from repro.deploy import (
    GeoStrategySelector,
    StrategyMiddlebox,
    install_per_client,
    parse_cidr,
)
from repro.eval import run_trial
from repro.eval.runner import Trial
from repro.packets import make_tcp_packet


class TestCIDR:
    def test_parse_basic(self):
        network, mask = parse_cidr("10.0.0.0/8")
        assert network == 10 << 24
        assert mask == 0xFF000000

    def test_host_route(self):
        network, mask = parse_cidr("1.2.3.4")
        assert mask == 0xFFFFFFFF

    def test_network_bits_masked(self):
        network, _ = parse_cidr("10.1.2.3/16")
        assert network == (10 << 24) | (1 << 16)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            parse_cidr("10.0.0.0/40")
        with pytest.raises(ValueError):
            parse_cidr("300.0.0.0/8")


class TestSelector:
    def make(self):
        selector = GeoStrategySelector()
        selector.add_prefix("10.1.0.0/16", "china")
        selector.add_prefix("10.2.0.0/16", "kazakhstan")
        return selector

    def test_country_lookup(self):
        selector = self.make()
        assert selector.country_for("10.1.0.2") == "china"
        assert selector.country_for("10.2.9.9") == "kazakhstan"
        assert selector.country_for("8.8.8.8") is None

    def test_longest_prefix_wins(self):
        selector = self.make()
        selector.add_prefix("10.1.5.0/24", "iran")
        assert selector.country_for("10.1.5.1") == "iran"
        assert selector.country_for("10.1.6.1") == "china"

    def test_strategy_choice(self):
        selector = self.make()
        strategy = selector.strategy_for("10.1.0.2", "ftp")
        assert strategy is not None
        assert str(strategy) == str(deployed_strategy(COUNTRIES["china"].strategies["ftp"]))
        assert selector.strategy_for("8.8.8.8", "ftp") is None

    def test_stateless_strategy_parsed_once_and_shared(self):
        selector = self.make()
        first = selector.strategy_for("10.1.0.2", "ftp")
        assert not first.is_stateful()
        assert selector.strategy_for("10.1.0.3", "ftp") is first
        assert selector.strategy_for("10.1.0.2", "ftp") is first

    def test_stateful_strategy_is_private_per_call(self):
        selector = GeoStrategySelector()
        selector.add_prefix("10.6.0.0/16", "russia")
        first = selector.strategy_for("10.6.0.2", "https")
        second = selector.strategy_for("10.6.0.3", "https")
        assert first.is_stateful()
        assert first is not second
        assert str(first) == str(second) == str(deployed_strategy(15))

        def synack():
            return make_tcp_packet("192.0.2.1", "10.6.0.2", 443, 40000, flags="SA")

        rng = random.Random(0)
        # Strategy 15 stalls the first three SYN+ACKs: run one copy past
        # its stall, and the other still starts from a fresh count.
        assert [len(first.apply_outbound(synack(), rng)) for _ in range(4)] == [0, 0, 0, 1]
        assert len(second.apply_outbound(synack(), rng)) == 0
        third = selector.strategy_for("10.6.0.4", "https")
        assert [len(third.apply_outbound(synack(), rng)) for _ in range(4)] == [0, 0, 0, 1]

    def test_recommended_table_covers_every_censored_pair(self):
        table = GeoStrategySelector().table
        for country, profile in COUNTRIES.items():
            for protocol in profile.protocols:
                assert (country, protocol) in table


class TestMidPathDeployment:
    def test_strategy_at_middlebox_evades(self):
        """Strategy 11 deployed at hop 6 (between GFW hop 3 and server)."""
        result = run_trial(
            "kazakhstan", "http", deployed_strategy(11), seed=1, strategy_at_hop=6
        )
        assert result.succeeded

    def test_china_strategy_at_middlebox(self):
        wins = sum(
            run_trial(
                "china", "http", deployed_strategy(1), seed=50 + i, strategy_at_hop=6
            ).succeeded
            for i in range(20)
        )
        assert wins >= 5  # ~50% strategy works from the middle of the path

    def test_invalid_hop_rejected(self):
        with pytest.raises(ValueError):
            run_trial(
                "china", "http", deployed_strategy(1), seed=1, strategy_at_hop=2
            )  # in front of the censor: the censor would see vanilla packets

    def test_rewrite_counter(self):
        trial = Trial(
            "kazakhstan", "http", deployed_strategy(11), seed=1, strategy_at_hop=6
        )
        trial.run()
        assert isinstance(trial.server_engine, StrategyMiddlebox)
        assert trial.server_engine.packets_rewritten >= 1

    def test_client_traffic_untouched(self):
        box = StrategyMiddlebox(deployed_strategy(11), random.Random(1))
        from repro.packets import make_tcp_packet

        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2, flags="SA")
        assert box.process(packet, "c2s", None) == [packet]


class TestPerClientEngine:
    def run_with_selector(self, client_ip, seed=1):
        selector = GeoStrategySelector()
        selector.add_prefix("10.2.0.0/16", "kazakhstan")
        trial = Trial("kazakhstan", "http", None, seed=seed, client_ip=client_ip)
        engine = install_per_client(
            trial.server_host, selector, "http", random.Random(seed)
        )
        result = trial.run()
        return engine, result

    def test_censored_prefix_gets_strategy(self):
        engine, result = self.run_with_selector("10.2.0.7")
        assert result.succeeded
        assert any(engine.decisions.values())

    def test_other_clients_get_vanilla_tcp(self):
        """A client outside censored prefixes: no strategy applied (and the
        Kazakhstan censor still blocks it — it really was unprotected)."""
        engine, result = self.run_with_selector("10.1.0.7")
        assert list(engine.decisions.values()) == [None]
        assert not result.succeeded

    def test_two_concurrent_clients_different_countries(self):
        """One engine, one run, two overlapping clients behind different
        censors: each gets its own country's strategy, keyed by address."""
        from repro.fleet import (
            FleetMixEntry,
            FleetSpec,
            FleetWorld,
            flow_client_ip,
        )

        spec = FleetSpec(
            clients=2,
            seed=9,
            spacing=0.2,  # arrivals overlap well inside max_time
            mix=(
                FleetMixEntry("kazakhstan", "http"),
                FleetMixEntry("iran", "http"),
            ),
        )
        plans = spec.flow_plans()
        # Pin one client per country regardless of the weighted draw.
        plans = [
            plans[0].__class__(
                **{
                    **plans[0].__dict__,
                    "country": "kazakhstan",
                    "client_ip": flow_client_ip("kazakhstan", 0),
                }
            ),
            plans[1].__class__(
                **{
                    **plans[1].__dict__,
                    "country": "iran",
                    "client_ip": flow_client_ip("iran", 1),
                }
            ),
        ]
        world = FleetWorld(spec, plans=plans)
        records = world.run()

        assert [r["country"] for r in records] == ["kazakhstan", "iran"]
        assert all(r["succeeded"] for r in records)
        assert records[0]["strategy"] != records[1]["strategy"]
        by_country = {r["country"]: r for r in records}
        assert by_country["kazakhstan"]["client_ip"].startswith("10.2.")
        assert by_country["iran"]["client_ip"].startswith("10.4.")
