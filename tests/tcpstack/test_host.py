"""Tests for host-level demux, filters, and connection management."""

import random

from repro.packets import make_tcp_packet
from repro.tcpstack import states


class TestDemux:
    def test_listener_spawns_endpoint_on_syn(self, linked_hosts):
        pair = linked_hosts()
        accepted = []
        pair.server.listen(80, accepted.append)
        ep = pair.client.open_connection("10.0.0.2", 80)
        ep.connect()
        pair.run()
        assert len(accepted) == 1
        assert accepted[0].remote_port == ep.local_port

    def test_synack_to_listener_does_not_spawn(self, linked_hosts):
        pair = linked_hosts()
        accepted = []
        pair.server.listen(80, accepted.append)
        stray = make_tcp_packet("10.0.0.1", "10.0.0.2", 5000, 80, flags="SA", ack=1)
        pair.server.receive(stray)
        assert accepted == []

    def test_packets_for_unknown_flows_ignored(self, linked_hosts):
        pair = linked_hosts()
        stray = make_tcp_packet("10.0.0.1", "10.0.0.2", 5000, 9999, flags="PA", load=b"x")
        pair.server.receive(stray)  # must not raise or reply
        assert pair.server.endpoints() == []

    def test_two_concurrent_connections(self, linked_hosts):
        pair = linked_hosts()

        def on_accept(endpoint):
            endpoint.on_data = lambda d: (endpoint.send(bytes(endpoint.received)), endpoint.close())

        pair.server.listen(80, on_accept)
        ep1 = pair.client.open_connection("10.0.0.2", 80)
        ep2 = pair.client.open_connection("10.0.0.2", 80)
        ep1.on_established = lambda: ep1.send(b"one")
        ep2.on_established = lambda: ep2.send(b"two")
        ep1.connect()
        ep2.connect()
        pair.run()
        assert bytes(ep1.received) == b"one"
        assert bytes(ep2.received) == b"two"

    def test_ephemeral_ports_unique(self, linked_hosts):
        pair = linked_hosts()
        ports = {pair.client.new_port() for _ in range(100)}
        assert len(ports) == 100

    def test_closed_endpoint_forgotten(self, linked_hosts):
        pair = linked_hosts()
        ep = pair.client.open_connection("10.0.0.2", 80)
        ep.connect()
        ep.abort()
        assert ep not in pair.client.endpoints()


class TestFilters:
    def test_outbound_filter_can_duplicate(self, linked_hosts):
        pair = linked_hosts()
        pair.client.outbound_filters.append(lambda p: [p, p.copy()])
        ep = pair.client.open_connection("10.0.0.2", 80)
        ep.connect()
        trace = pair.run(until=0.3)
        syns = [
            e for e in trace.events if e.kind == "send" and e.location == "client"
        ]
        assert len(syns) >= 2

    def test_outbound_filter_can_drop(self, linked_hosts):
        pair = linked_hosts()
        pair.client.outbound_filters.append(lambda p: [])
        ep = pair.client.open_connection("10.0.0.2", 80)
        ep.connect()
        trace = pair.run(until=0.3)
        assert not [e for e in trace.events if e.kind == "send"]

    def test_filters_chain_in_order(self, linked_hosts):
        pair = linked_hosts()
        calls = []
        pair.client.outbound_filters.append(lambda p: (calls.append("a"), [p])[1])
        pair.client.outbound_filters.append(lambda p: (calls.append("b"), [p])[1])
        ep = pair.client.open_connection("10.0.0.2", 80)
        ep.connect()
        assert calls == ["a", "b"]

    def test_inbound_filter_applied(self, linked_hosts):
        pair = linked_hosts()
        seen = []
        pair.server.inbound_filters.append(lambda p: (seen.append(p.flags), [p])[1])
        pair.server.listen(80, lambda endpoint: None)
        ep = pair.client.open_connection("10.0.0.2", 80)
        ep.connect()
        pair.run()
        assert "S" in seen


class TestNoFilters:
    """A host without filters passes each packet on as the very same object."""

    def test_transmit_hands_the_packet_itself_to_the_network(
        self, linked_hosts, monkeypatch
    ):
        pair = linked_hosts()
        sent = []
        monkeypatch.setattr(
            pair.network, "send_from", lambda node, packet: sent.append((node, packet))
        )
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 5000, 80)
        pair.client.transmit(packet)
        assert len(sent) == 1
        assert sent[0][0] is pair.client
        assert sent[0][1] is packet

    def test_receive_hands_the_packet_itself_to_the_demux(
        self, linked_hosts, monkeypatch
    ):
        pair = linked_hosts()
        seen = []
        monkeypatch.setattr(pair.server, "_demux", seen.append)
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 5000, 80)
        pair.server.receive(packet)
        assert len(seen) == 1
        assert seen[0] is packet
