"""Tests for the Packet container and the Geneva field interface."""

import random

import pytest

from repro.packets import Packet, make_tcp_packet, make_udp_packet


@pytest.fixture
def packet():
    return make_tcp_packet(
        "10.0.0.1", "10.0.0.2", 4000, 80, flags="SA", seq=100, ack=200, load=b"hi"
    )


class TestAccessors:
    def test_convenience_properties(self, packet):
        assert packet.src == "10.0.0.1"
        assert packet.dst == "10.0.0.2"
        assert packet.sport == 4000
        assert packet.dport == 80
        assert packet.flags == "SA"
        assert packet.load == b"hi"

    def test_flow_keys(self, packet):
        assert packet.flow == ("10.0.0.1", 4000, "10.0.0.2", 80)
        assert packet.reverse_flow == ("10.0.0.2", 80, "10.0.0.1", 4000)

    def test_copy_independent(self, packet):
        clone = packet.copy()
        clone.tcp.seq = 999
        clone.ip.ttl = 1
        assert packet.tcp.seq == 100
        assert packet.ip.ttl == 64


class TestFieldInterface:
    def test_get_set_tcp_field(self, packet):
        assert packet.get_field("TCP", "seq") == 100
        packet.set_field("TCP", "seq", 12345)
        assert packet.tcp.seq == 12345

    def test_get_set_ip_field(self, packet):
        packet.set_field("IP", "ttl", 5)
        assert packet.ip.ttl == 5

    def test_replace_flags(self, packet):
        packet.replace_field("TCP", "flags", "R")
        assert packet.flags == "R"

    def test_replace_flags_empty(self, packet):
        packet.replace_field("TCP", "flags", "")
        assert packet.flags == ""

    def test_replace_load(self, packet):
        packet.replace_field("TCP", "load", "GET / HTTP1.")
        assert packet.load == b"GET / HTTP1."

    def test_replace_window(self, packet):
        packet.replace_field("TCP", "window", "10")
        assert packet.tcp.window == 10

    def test_replace_wscale_empty_removes(self):
        pkt = make_tcp_packet(
            "1.1.1.1", "2.2.2.2", 1, 2, options=[("wscale", 7), ("mss", 1460)]
        )
        pkt.replace_field("TCP", "options-wscale", "")
        assert pkt.tcp.get_option("wscale") is None
        assert pkt.tcp.get_option("mss") == 1460

    def test_corrupt_ack_changes_value(self, packet):
        rng = random.Random(3)
        before = packet.tcp.ack
        packet.corrupt_field("TCP", "ack", rng)
        # Random 32-bit value; astronomically unlikely to collide.
        assert packet.tcp.ack != before

    def test_corrupt_empty_load_generates_payload(self):
        pkt = make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2, flags="SA")
        pkt.corrupt_field("TCP", "load", random.Random(4))
        assert len(pkt.load) > 0

    def test_corrupt_same_length_load(self, packet):
        packet.corrupt_field("TCP", "load", random.Random(5))
        assert len(packet.load) == 2

    def test_corrupt_chksum_invalidates(self, packet):
        assert packet.checksums_ok()
        packet.corrupt_field("TCP", "chksum", random.Random(6))
        # 1-in-65536 chance the random value is the real checksum; seed 6 isn't.
        assert not packet.checksums_ok()

    def test_unknown_field_raises(self, packet):
        with pytest.raises(ValueError):
            packet.get_field("TCP", "nonsense")
        with pytest.raises(ValueError):
            packet.get_field("UDP", "sport")


def build(family, transport):
    """A packet of the given IP family ("v4"/"v6") and transport ("tcp"/"udp")."""
    src, dst = ("10.0.0.1", "10.0.0.2") if family == "v4" else ("2001:db8::1", "2001:db8::2")
    if transport == "tcp":
        return make_tcp_packet(src, dst, 4000, 80, flags="PA", seq=7, ack=9, load=b"hi")
    return make_udp_packet(src, dst, 5353, 53, load=b"hi")


FAMILIES_AND_TRANSPORTS = [
    ("v4", "tcp"),
    ("v4", "udp"),
    ("v6", "tcp"),
    ("v6", "udp"),
]


class TestChecksumsOk:
    """``checksums_ok`` over IPv4/IPv6 x TCP/UDP, with and without planted
    checksums. With nothing planted the answer is ``True`` without a
    serialization; a planted value is checked against the true one."""

    @pytest.mark.parametrize("family,transport", FAMILIES_AND_TRANSPORTS)
    def test_nothing_planted_is_valid(self, family, transport):
        assert build(family, transport).checksums_ok()

    @pytest.mark.parametrize("family,transport", FAMILIES_AND_TRANSPORTS)
    def test_planted_transport_checksum_is_invalid(self, family, transport):
        packet = build(family, transport)
        layer = packet.transport
        wire = layer.serialize(packet.src, packet.dst)
        offset = 16 if transport == "tcp" else 6
        true = int.from_bytes(wire[offset : offset + 2], "big")
        layer.chksum_override = true ^ 0x5555
        assert not packet.checksums_ok()

    @pytest.mark.parametrize("transport", ["tcp", "udp"])
    def test_planted_ipv4_header_checksum(self, transport):
        packet = build("v4", transport)
        true = int.from_bytes(packet.serialize()[10:12], "big")
        packet.ip.chksum_override = true ^ 0x5555
        assert not packet.checksums_ok()
        # A planted value equal to the true one is still a valid header.
        packet.ip.chksum_override = true
        assert packet.checksums_ok()


class TestTriggerMatching:
    def test_exact_flag_match(self, packet):
        assert packet.matches("TCP", "flags", "SA")
        assert packet.matches("TCP", "flags", "AS")  # set comparison
        assert not packet.matches("TCP", "flags", "S")
        assert not packet.matches("TCP", "flags", "A")

    def test_int_field_match(self, packet):
        assert packet.matches("TCP", "dport", "80")
        assert not packet.matches("TCP", "dport", "443")

    def test_wire_round_trip(self, packet):
        parsed = Packet.parse(packet.serialize())
        assert parsed.flow == packet.flow
        assert parsed.tcp.seq == packet.tcp.seq
        assert parsed.load == packet.load
        assert parsed.checksums_ok()
