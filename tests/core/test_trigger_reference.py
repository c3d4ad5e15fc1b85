"""``Trigger.matches`` gives ``Packet.matches``'s answer on every input.

``Packet.matches`` is the reference for Geneva's exact-match trigger
semantics; a trigger may answer faster (a ``TCP:flags`` trigger fixes
its letter set when built) but never differently. The table covers all
256 flag subsets, each written canonically, reordered and in lower case,
against IPv4 segments with every flag subset (stored canonically and
reordered), IPv6 segments and UDP datagrams, plus non-flag triggers on
the same packets.
"""

from __future__ import annotations

import pytest

from repro.core.dsl import Trigger
from repro.packets import make_tcp_packet, make_udp_packet
from repro.packets.tcp import bits_to_flags

SUBSETS = [bits_to_flags(bits) for bits in range(256)]

#: One flag subset written canonically, reordered and in lower case.
WRITINGS = {
    "canonical": lambda flags: flags,
    "reordered": lambda flags: flags[::-1],
    "lower": str.lower,
}

V4 = ("10.0.0.1", "10.0.0.2")
V6 = ("2001:db8::1", "2001:db8::2")


def reference(trigger: Trigger, packet) -> bool:
    """``Packet.matches``, with a field the packet lacks reading False."""
    try:
        return packet.matches(trigger.protocol, trigger.field, trigger.value)
    except ValueError:
        return False


def make_packets():
    packets = []
    # Every subset over IPv4; flag handling does not depend on the IP
    # version, so IPv6 carries every eighth.
    for (src, dst), subsets in ((V4, SUBSETS), (V6, SUBSETS[::8])):
        for flags in subsets:
            packet = make_tcp_packet(src, dst, 40000, 80, flags=flags, load=b"GET /")
            packets.append(packet)
            if len(flags) > 1:
                reordered = packet.copy()
                reordered.tcp.flags = flags[::-1]  # kept as written
                packets.append(reordered)
        packets.append(make_udp_packet(src, dst, 40000, 53, load=b"q"))
    return packets


PACKETS = make_packets()

OTHER_TRIGGERS = {
    # text: how many of PACKETS it matches
    "IP:ttl:64": len(PACKETS),
    "IP:ttl:63": 0,
    "IP:ttl:sixty": 0,
    "IP:src:10.0.0.1": sum(packet.ip.version == 4 for packet in PACKETS),
    "ip:src:10.0.0.2": 0,
    "IP:src:2001:db8:0:0:0:0:0:1": sum(packet.ip.version == 6 for packet in PACKETS),
    "TCP:dport:80": len(PACKETS) - 2,
    "TCP:dport:81": 0,
    "TCP:load:GET /": len(PACKETS) - 2,
    "TCP:load:": 0,
    "UDP:dport:53": 2,
    "UDP:flags:S": 0,
    "TCP:nosuchfield:1": 0,
}


def test_the_table_spans_ip_versions_stored_orders_and_udp():
    assert len(set(SUBSETS)) == 256
    tcp = [packet for packet in PACKETS if packet.tcp is not None]
    assert {frozenset(packet.tcp.flags) for packet in tcp} == {
        frozenset(flags) for flags in SUBSETS
    }
    assert {packet.ip.version for packet in tcp} == {4, 6}
    assert any(packet.tcp.flags == "AS" for packet in tcp)
    assert sum(packet.udp is not None for packet in PACKETS) == 2


@pytest.mark.parametrize("writing", sorted(WRITINGS))
def test_flag_triggers_answer_as_the_reference(writing):
    write = WRITINGS[writing]
    for flags in SUBSETS:
        trigger = Trigger("TCP", "flags", write(flags))
        assert [trigger.matches(packet) for packet in PACKETS] == [
            reference(trigger, packet) for packet in PACKETS
        ], trigger


def test_a_flag_trigger_matches_exactly_its_letter_set():
    for flags in SUBSETS:
        trigger = Trigger.parse(f"tcp:flags:{flags.lower()[::-1]}")
        hits = {
            frozenset(packet.tcp.flags) for packet in PACKETS if trigger.matches(packet)
        }
        assert hits == {frozenset(flags)}, trigger


@pytest.mark.parametrize("text", sorted(OTHER_TRIGGERS))
def test_other_triggers_answer_as_the_reference(text):
    trigger = Trigger.parse(text)
    answers = [trigger.matches(packet) for packet in PACKETS]
    assert answers == [reference(trigger, packet) for packet in PACKETS]
    assert sum(answers) == OTHER_TRIGGERS[text]


def test_flag_triggers_compare_hash_and_print_by_their_text():
    assert Trigger("TCP", "flags", "SA") == Trigger.parse("TCP:flags:SA")
    assert Trigger("TCP", "flags", "SA") != Trigger("TCP", "flags", "AS")
    assert hash(Trigger("TCP", "flags", "SA")) == hash(Trigger.parse("TCP:flags:SA"))
    assert repr(Trigger("TCP", "flags", "SA")) == (
        "Trigger(protocol='TCP', field='flags', value='SA')"
    )
    assert str(Trigger.parse("tcp:flags:as")) == "[TCP:flags:as]"
