"""Tests for the strategy engine at a host's wire boundary."""

import hashlib
import random

import pytest

from repro.core import Strategy, StrategyEngine, deployed_strategy, install_strategy
from repro.eval.runner import Trial
from repro.netsim import Scheduler
from repro.packets import make_tcp_packet
from repro.tcpstack import Host


class TestEngine:
    def test_outbound_transformation_on_wire(self, linked_hosts):
        pair = linked_hosts()
        strategy = Strategy.parse(
            "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},"
            "tamper{TCP:flags:replace:S})-| \\/"
        )
        install_strategy(pair.server, strategy, random.Random(1))
        pair.server.listen(80, lambda ep: None)
        ep = pair.client.open_connection("10.0.0.2", 80)
        ep.connect()
        trace = pair.run(until=0.3)
        server_sends = [
            e.packet.flags
            for e in trace.events
            if e.kind == "send" and e.location == "server"
        ]
        assert server_sends[:2] == ["R", "S"]

    def test_non_matching_packets_untouched(self, linked_hosts):
        pair = linked_hosts()
        strategy = Strategy.parse("[TCP:flags:SA]-drop-| \\/")
        engine = install_strategy(pair.client, strategy, random.Random(1))
        ep = pair.client.open_connection("10.0.0.2", 80)
        ep.connect()
        pair.run(until=0.05)
        assert engine.packets_intercepted == 0

    def test_intercept_counter(self, linked_hosts):
        pair = linked_hosts()
        strategy = Strategy.parse("[TCP:flags:SA]-duplicate-| \\/")
        engine = install_strategy(pair.server, strategy, random.Random(1))
        pair.server.listen(80, lambda ep: None)
        ep = pair.client.open_connection("10.0.0.2", 80)
        ep.connect()
        pair.run(until=0.3)
        assert engine.packets_intercepted >= 1

    def test_inbound_strategy_applied(self, linked_hosts):
        """An inbound drop on the client acts like a local firewall."""
        pair = linked_hosts()
        strategy = Strategy(inbound=Strategy.parse("[TCP:flags:SA]-drop-| \\/").outbound)
        install_strategy(pair.client, strategy, random.Random(1))
        pair.server.listen(80, lambda ep: None)
        ep = pair.client.open_connection("10.0.0.2", 80)
        ep.connect()
        pair.run(until=1.0)
        assert not ep.established  # every SYN+ACK eaten on ingress

    def test_engine_rng_determinism(self):
        strategy = Strategy.parse("[TCP:flags:SA]-tamper{TCP:ack:corrupt}-| \\/")
        packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2, flags="SA", ack=7)
        out_a = StrategyEngine(strategy, random.Random(42)).outbound_filter(packet.copy())
        out_b = StrategyEngine(strategy, random.Random(42)).outbound_filter(packet.copy())
        assert out_a[0].tcp.ack == out_b[0].tcp.ack


#: China/HTTP strategy 1, alone and with an inbound forest that drops the
#: GFW's injected RST+ACKs at the server: (strategy, outcomes of seeds
#: 0-5, packets_intercepted per seed, SHA-256 over the six trace digests).
#: The figures are those of the engine that filtered both directions for
#: every strategy, so a filter left out must change nothing a trial shows.
FILTER_CASES = {
    "outbound-only": (
        str(deployed_strategy(1)),
        ["success", "timeout", "success", "success", "success", "timeout"],
        [1] * 6,
        "2e92e281cce8c1f6ce341dcb1befc439a4c12ee1644b62377b386ea87a72948b",
    ),
    "with-inbound": (
        str(deployed_strategy(1)) + " [TCP:flags:RA]-drop-|",
        ["success"] * 6,
        [1] * 6,
        "eef3e0c369aa9a83f1f4e289e178081a24c8b41ad354bcca6930aaed5a5de49e",
    ),
}


class TestFilterPerForest:
    """``install_strategy`` filters a direction only when its forest has trees."""

    @staticmethod
    def host():
        return Host("h", "10.0.0.1", Scheduler(), random.Random(0))

    @pytest.mark.parametrize(
        "text, outbound, inbound",
        [
            ("[TCP:flags:SA]-drop-| \\/", True, False),
            ("\\/ [TCP:flags:R]-drop-|", False, True),
            ("[TCP:flags:SA]-drop-| \\/ [TCP:flags:R]-drop-|", True, True),
            ("\\/", False, False),
        ],
    )
    def test_one_filter_per_non_empty_forest(self, text, outbound, inbound):
        host = self.host()
        engine = install_strategy(host, Strategy.parse(text), random.Random(1))
        assert host.outbound_filters == ([engine.outbound_filter] if outbound else [])
        assert host.inbound_filters == ([engine.inbound_filter] if inbound else [])

    @pytest.mark.parametrize("case", sorted(FILTER_CASES))
    def test_trials_show_what_both_filters_showed(self, case):
        text, outcomes, intercepts, digest = FILTER_CASES[case]
        strategy = Strategy.parse(text)
        seen = ([], [], [])
        for seed in range(6):
            trial = Trial("china", "http", strategy, seed=seed)
            engine = trial.server_engine
            assert trial.server_host.outbound_filters == [engine.outbound_filter]
            assert trial.server_host.inbound_filters == (
                [engine.inbound_filter] if strategy.inbound else []
            )
            result = trial.run()
            seen[0].append(result.outcome)
            seen[1].append(engine.packets_intercepted)
            seen[2].append(result.trace.digest())
        assert seen[0] == outcomes
        assert seen[1] == intercepts
        assert hashlib.sha256("".join(seen[2]).encode()).hexdigest() == digest
