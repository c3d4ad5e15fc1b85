"""Unit tests for the deterministic network-impairment layer."""

import random

import pytest

from repro.eval import Trial
from repro.netsim import Impairment, Network, Scheduler
from repro.netsim.impairment import corrupt_payload
from repro.packets import make_tcp_packet

REQUEST = b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"
RESPONSE = b"HTTP/1.1 200 OK\r\n\r\nhello world"


def run_exchange(linked_hosts, impairment=None, net_seed=0, until=120):
    """One request/response exchange over an (optionally) impaired link."""
    pair = linked_hosts(impairment=impairment, net_seed=net_seed)

    def on_accept(endpoint):
        def on_data(data):
            if bytes(endpoint.received) == REQUEST:
                endpoint.send(RESPONSE)
                endpoint.close()

        endpoint.on_data = on_data

    pair.server.listen(80, on_accept)
    ep = pair.client.open_connection("10.0.0.2", 80)
    ep.on_established = lambda: ep.send(REQUEST)
    ep.connect()
    trace = pair.run(until=until)
    return ep, trace


class TestPolicyValidation:
    def test_probabilities_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            Impairment(loss=1.5)
        with pytest.raises(ValueError):
            Impairment(dup=-0.1)

    def test_delays_must_be_non_negative(self):
        with pytest.raises(ValueError):
            Impairment(jitter=-1.0)

    def test_direction_is_checked(self):
        with pytest.raises(ValueError):
            Impairment(direction="sideways")

    def test_from_dict_rejects_unknown_knobs(self):
        with pytest.raises(ValueError, match="unknown impairment knobs"):
            Impairment.from_dict({"loss": 0.1, "lag": 3})

    def test_from_value_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            Impairment.from_value(0.1)


class TestCanonicalForm:
    def test_null_policy_is_null(self):
        assert Impairment.none().is_null()
        assert Impairment(reorder_delay=0.5).is_null()  # delays alone: no effect
        assert not Impairment(loss=0.01).is_null()

    def test_as_dict_is_minimal(self):
        assert Impairment.none().as_dict() == {}
        assert Impairment(loss=0.1).as_dict() == {"loss": 0.1}

    def test_dict_roundtrip(self):
        policy = Impairment(loss=0.1, dup=0.2, direction="c2s")
        assert Impairment.from_dict(policy.as_dict()) == policy

    def test_direction_scoping(self):
        policy = Impairment(loss=0.5, direction="c2s")
        assert policy.applies("c2s")
        assert not policy.applies("s2c")
        assert Impairment(loss=0.5).applies("s2c")


class TestCorruptPayload:
    def test_flip_is_detectable_and_copy_only(self):
        packet = make_tcp_packet(
            "10.0.0.1", "10.0.0.2", 40000, 80, flags="PA", seq=1, ack=1,
            load=b"forbidden payload",
        )
        corrupted, offset = corrupt_payload(packet, random.Random(5))
        assert 0 <= offset < len(packet.load)
        # Original untouched, copy differs in exactly one byte.
        assert packet.load == b"forbidden payload"
        assert corrupted.load != packet.load
        diff = [i for i, (a, b) in enumerate(zip(packet.load, corrupted.load)) if a != b]
        assert diff == [offset]
        # The pinned (pre-flip) checksum no longer matches: hosts drop it.
        assert packet.checksums_ok()
        assert not corrupted.checksums_ok()

    def test_empty_payload_rejected(self):
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 40000, 80, flags="S", seq=1)
        with pytest.raises(ValueError):
            corrupt_payload(packet, random.Random(0))


class TestNetworkIntegration:
    def test_null_policy_never_draws(self, linked_hosts):
        """A null policy normalizes to no impairment at all."""
        pair = linked_hosts(impairment=Impairment.none())
        assert pair.network.impairment is None
        assert pair.network._net_rng is None

    @pytest.mark.parametrize("null", [Impairment.none(), {"loss": 0.0}])
    def test_null_policy_leaves_a_trial_unimpaired(self, null):
        """A trial given a null policy has no impairment and no net stream,
        on itself and on its network, before and after a re-seed."""
        trial = Trial("china", "http", None, seed=3, impairment=null)
        for _ in range(2):
            assert trial.impairment is None and trial.net_rng is None
            assert trial.network.impairment is None
            assert trial.network._net_rng is None
            trial.run()
            trial.reseed(4)

    def test_lossy_exchange_recovers_by_retransmission(self, linked_hosts):
        ep, trace = run_exchange(linked_hosts, Impairment(loss=0.2), net_seed=3)
        losses = [e for e in trace.events if e.kind == "loss"]
        assert losses, "expected at least one loss event at 20% loss"
        assert bytes(ep.received) == RESPONSE

    def test_duplication_is_discarded_by_receivers(self, linked_hosts):
        ep, trace = run_exchange(linked_hosts, Impairment(dup=1.0), net_seed=1)
        assert any(e.kind == "dup" for e in trace.events)
        assert bytes(ep.received) == RESPONSE

    def test_reorder_and_jitter_keep_streams_in_order(self, linked_hosts):
        policy = Impairment(reorder=0.5, jitter=0.01)
        ep, trace = run_exchange(linked_hosts, policy, net_seed=2)
        assert bytes(ep.received) == RESPONSE

    def test_corruption_is_caught_and_retransmitted(self, linked_hosts):
        ep, trace = run_exchange(linked_hosts, Impairment(corrupt=0.3), net_seed=4)
        corrupted = [e for e in trace.events if e.kind == "corrupt"]
        dropped = [
            e for e in trace.events
            if e.kind == "drop" and "bad checksum" in e.detail
        ]
        assert corrupted, "expected corruption events at 30%"
        assert dropped, "hosts must drop checksum-corrupted segments"
        assert bytes(ep.received) == RESPONSE

    def test_same_net_seed_replays_identically(self, linked_hosts):
        policy = Impairment(loss=0.15, dup=0.1, reorder=0.1, jitter=0.004)
        _, trace_a = run_exchange(linked_hosts, policy, net_seed=11)
        _, trace_b = run_exchange(linked_hosts, policy, net_seed=11)
        assert trace_a.digest() == trace_b.digest()

    def test_different_net_seed_diverges(self, linked_hosts):
        policy = Impairment(loss=0.3)
        _, trace_a = run_exchange(linked_hosts, policy, net_seed=11)
        _, trace_b = run_exchange(linked_hosts, policy, net_seed=12)
        assert trace_a.digest() != trace_b.digest()

    def test_direction_scoped_loss(self, linked_hosts):
        """Total c2s loss kills the connection; total s2c loss alone does
        too — but with direction scoping only the scoped side draws."""
        policy = Impairment(loss=1.0, direction="s2c")
        pair = linked_hosts(impairment=policy, net_seed=0)
        ep = pair.client.open_connection("10.0.0.2", 80)
        ep.connect()
        pair.run(until=5)
        trace = pair.network.trace
        # The client's SYN crossed (c2s unimpaired); nothing came back.
        received = [e for e in trace.events if e.kind == "recv"]
        assert all(e.location == "server" for e in received)

    def test_total_loss_fails_cleanly(self, linked_hosts):
        failures = []
        pair = linked_hosts(impairment=Impairment(loss=1.0), net_seed=0)
        ep = pair.client.open_connection("10.0.0.2", 80)
        ep.on_failure = failures.append
        ep.connect()
        pair.run(until=120)
        assert failures == ["retransmission limit exceeded"]
