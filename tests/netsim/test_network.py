"""Tests for the network path: delivery, middleboxes, TTL, injection."""

from typing import List

import pytest

from repro.netsim import (
    DIRECTION_C2S,
    DIRECTION_S2C,
    Middlebox,
    Network,
    Scheduler,
    TransparentTap,
)
from repro.packets import Packet, make_tcp_packet


class SinkNode:
    """A minimal endpoint recording everything it receives."""

    def __init__(self, name, ip):
        self.name = name
        self.ip = ip
        self.received: List[Packet] = []

    def receive(self, packet):
        self.received.append(packet)


def build(middleboxes=()):
    sched = Scheduler()
    client = SinkNode("client", "10.0.0.1")
    server = SinkNode("server", "10.0.0.2")
    net = Network(sched, client, server, middleboxes)
    return sched, client, server, net


def pkt(src="10.0.0.1", dst="10.0.0.2", ttl=64, flags="S"):
    return make_tcp_packet(src, dst, 1111, 80, flags=flags, ttl=ttl)


class TestDelivery:
    def test_client_to_server(self):
        sched, client, server, net = build()
        net.send_from(client, pkt())
        sched.run()
        assert len(server.received) == 1
        assert server.received[0].flags == "S"

    def test_server_to_client(self):
        sched, client, server, net = build()
        net.send_from(server, pkt(src="10.0.0.2", dst="10.0.0.1", flags="SA"))
        sched.run()
        assert len(client.received) == 1

    def test_fifo_ordering_preserved(self):
        sched, client, server, net = build([Middlebox(), Middlebox()])
        for flags in ("S", "SA", "A"):
            net.send_from(client, pkt(flags=flags))
        sched.run()
        assert [p.flags for p in server.received] == ["S", "SA", "A"]

    def test_unknown_endpoint_rejected(self):
        sched, client, server, net = build()
        stranger = SinkNode("x", "9.9.9.9")
        with pytest.raises(ValueError):
            net.send_from(stranger, pkt())


class TestMiddleboxes:
    def test_chain_is_fixed_at_construction(self):
        """The path is a tuple: the skip tables index into it, so it
        cannot change under them."""
        chain = [Middlebox(), TransparentTap()]
        sched, client, server, net = build(chain)
        chain.append(Middlebox())
        assert isinstance(net.middleboxes, tuple)
        assert len(net.middleboxes) == 2

    def test_tap_sees_both_directions(self):
        tap = TransparentTap()
        sched, client, server, net = build([tap])
        net.send_from(client, pkt())
        net.send_from(server, pkt(src="10.0.0.2", dst="10.0.0.1", flags="SA"))
        sched.run()
        assert len(tap.seen) == 2

    def test_in_path_drop(self):
        class Dropper(Middlebox):
            def process(self, packet, direction, ctx):
                return []

        sched, client, server, net = build([Dropper()])
        net.send_from(client, pkt())
        sched.run()
        assert server.received == []
        assert any(e.kind == "drop" for e in net.trace.events)

    def test_modification_in_path(self):
        class Rewriter(Middlebox):
            def process(self, packet, direction, ctx):
                packet.tcp.window = 10
                return [packet]

        sched, client, server, net = build([Rewriter()])
        net.send_from(client, pkt())
        sched.run()
        assert server.received[0].tcp.window == 10

    def test_injection_toward_client(self):
        class Injector(Middlebox):
            name = "injector"

            def process(self, packet, direction, ctx):
                if direction == DIRECTION_C2S:
                    rst = make_tcp_packet("10.0.0.2", "10.0.0.1", 80, 1111, flags="RA")
                    ctx.inject(rst, toward="client")
                return [packet]

        sched, client, server, net = build([Injector()])
        net.send_from(client, pkt())
        sched.run()
        assert len(server.received) == 1  # original forwarded
        assert len(client.received) == 1  # injected RST
        assert client.received[0].flags == "RA"


class TestTTL:
    def test_ttl_reaches_middlebox_not_server(self):
        tap = TransparentTap()
        sched, client, server, net = build([Middlebox(), Middlebox(), tap, Middlebox()])
        # tap is at index 2 (hop 3); server at hop 5.
        net.send_from(client, pkt(ttl=3))
        sched.run()
        assert len(tap.seen) == 1
        assert server.received == []

    def test_ttl_expires_before_middlebox(self):
        tap = TransparentTap()
        sched, client, server, net = build([Middlebox(), Middlebox(), tap])
        net.send_from(client, pkt(ttl=2))
        sched.run()
        assert tap.seen == []

    def test_full_ttl_reaches_server(self):
        sched, client, server, net = build([Middlebox() for _ in range(9)])
        net.send_from(client, pkt(ttl=64))
        sched.run()
        assert len(server.received) == 1

    def test_exact_ttl_boundary_for_server(self):
        sched, client, server, net = build([Middlebox()])
        net.send_from(client, pkt(ttl=2))
        sched.run()
        assert len(server.received) == 1
        server.received.clear()
        net.send_from(client, pkt(ttl=1))
        sched.run()
        assert server.received == []


class TestHopCoalescing:
    """A chain of plain ``Middlebox`` padding is crossed in one event per
    run of inert hops; the same chain of a do-nothing subclass counts as
    active and is walked hop by hop, and with coalescing off every link
    is its own event (the walk impaired paths take). All three must
    record the same trace."""

    class Forwarder(Middlebox):
        """Behaves exactly like the base class, but is not coalesced."""

    @staticmethod
    def exchange(box_type, coalesce=True):
        sched, client, server, net = build([box_type() for _ in range(9)])
        net._coalesce = coalesce
        for ttl in (1, 3, 5, 9, 10, 64):
            net.send_from(client, pkt(ttl=ttl))
            net.send_from(server, pkt(src="10.0.0.2", dst="10.0.0.1", flags="SA", ttl=ttl))
        net.inject_from(4, pkt(flags="R"), "server", "mb4")
        net.inject_from(4, pkt(src="10.0.0.2", dst="10.0.0.1", flags="R"), "client", "mb4")
        executed = sched.run()
        return net.trace, executed

    def test_coalesced_walk_records_the_per_hop_trace(self):
        coalesced, coalesced_events = self.exchange(Middlebox)
        walked, walked_events = self.exchange(self.Forwarder)
        per_link, _ = self.exchange(Middlebox, coalesce=False)
        assert len(coalesced) == len(walked) == len(per_link) == 28
        assert coalesced.digest() == walked.digest() == per_link.digest()
        assert coalesced_events < walked_events


class TestTrace:
    def test_send_and_recv_events_recorded(self):
        sched, client, server, net = build()
        net.send_from(client, pkt())
        sched.run()
        kinds = [e.kind for e in net.trace.events]
        assert kinds == ["send", "recv"]
        assert net.trace.events[0].location == "client"
        assert net.trace.events[1].location == "server"

    def test_trace_packets_are_copies(self):
        sched, client, server, net = build()
        original = pkt()
        net.send_from(client, original)
        original.tcp.seq = 424242
        sched.run()
        assert net.trace.events[0].packet.tcp.seq != 424242
