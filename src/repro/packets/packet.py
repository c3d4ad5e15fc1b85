"""The :class:`Packet` container combining an IPv4 header and TCP segment.

This is the unit that flows through the network simulator and that Geneva
action trees manipulate. It exposes a uniform field interface addressed by
``(protocol, field)`` pairs — the same namespace Geneva's DSL uses — plus
byte-level serialize/parse for wire fidelity tests.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from . import pool
from .fields import FieldSpec, corrupt_value, parse_replace_value
from .ip import IPv4
from .ipv6 import IPv6
from .tcp import TCP
from .udp import IP_PROTO_UDP, UDP

__all__ = ["Packet", "field_registries", "make_tcp_packet", "make_udp_packet"]

#: Geneva's tamper namespace: the layer classes each protocol name can
#: address. A packet carries one IP version, so ``IP`` names either. The
#: :class:`Packet` slot holding a protocol's layer is its lowercase name.
_PROTOCOL_LAYERS = {"IP": (IPv4, IPv6), "TCP": (TCP,), "UDP": (UDP,)}


def field_registries(protocol: str) -> Tuple[Dict[str, FieldSpec], ...]:
    """The ``FIELDS`` registries Geneva's ``protocol`` name can address.

    ``IP`` yields both the IPv4 and the IPv6 registry, since a packet may
    carry either version; an unknown protocol raises ``ValueError``.
    """
    layers = _PROTOCOL_LAYERS.get(protocol.upper())
    if layers is None:
        raise ValueError(f"unknown protocol {protocol!r}")
    return tuple(layer.FIELDS for layer in layers)


class Packet:
    """An IPv4 packet carrying either a TCP segment or a UDP datagram.

    Attributes:
        ip: The IPv4 header.
        tcp: The TCP segment, or ``None`` for UDP packets.
        udp: The UDP datagram, or ``None`` for TCP packets.
    """

    __slots__ = ("ip", "tcp", "udp")

    def __init__(self, ip: IPv4, tcp: Optional[TCP] = None, udp: Optional[UDP] = None) -> None:
        if (tcp is None) == (udp is None):
            raise ValueError("packet needs exactly one transport (tcp or udp)")
        self.ip = ip
        self.tcp = tcp
        self.udp = udp

    @property
    def transport(self):
        """The transport layer (TCP segment or UDP datagram)."""
        return self.tcp if self.tcp is not None else self.udp

    @property
    def is_udp(self) -> bool:
        """Whether this is a UDP packet."""
        return self.udp is not None

    # ------------------------------------------------------------------
    # Convenience accessors

    @property
    def src(self) -> str:
        """Source IPv4 address."""
        return self.ip.src

    @property
    def dst(self) -> str:
        """Destination IPv4 address."""
        return self.ip.dst

    @property
    def sport(self) -> int:
        """Transport source port."""
        return self.transport.sport

    @property
    def dport(self) -> int:
        """Transport destination port."""
        return self.transport.dport

    @property
    def flags(self) -> str:
        """TCP flag string (canonical order); empty for UDP packets."""
        return self.tcp.flags if self.tcp is not None else ""

    @property
    def load(self) -> bytes:
        """Transport payload bytes."""
        return self.transport.load

    @property
    def flow(self) -> tuple:
        """Directed 4-tuple identifying this packet's flow."""
        return (self.src, self.sport, self.dst, self.dport)

    @property
    def reverse_flow(self) -> tuple:
        """The 4-tuple of the opposite direction of this flow."""
        return (self.dst, self.dport, self.src, self.sport)

    def checksums_ok(self) -> bool:
        """Whether both IP and TCP checksums would be valid on the wire.

        Checksums are computed at serialization, so only a planted value
        (a ``chksum_override``) can be wrong: with none on either layer
        the answer is ``True`` without serializing anything.
        """
        ip = self.ip
        transport = self.tcp if self.tcp is not None else self.udp
        if ip.chksum_override is None:
            if transport.chksum_override is None:
                return True
        elif not ip.checksum_ok(self.serialize()[: ip.header_length()]):
            return False
        return transport.checksum_ok(ip.src, ip.dst)

    # ------------------------------------------------------------------
    # Geneva field interface

    def _field_spec(self, protocol: str, field: str) -> tuple[object, FieldSpec]:
        protocol = protocol.upper()
        if protocol not in _PROTOCOL_LAYERS:
            raise ValueError(f"unknown protocol {protocol!r}")
        layer = getattr(self, protocol.lower())
        if layer is None:
            raise ValueError(f"packet has no {protocol} layer")
        try:
            return layer, layer.FIELDS[field]  # for IP, this packet's version's
        except KeyError:
            raise ValueError(f"unknown field {protocol}:{field}") from None

    def get_field(self, protocol: str, field: str):
        """Read a field value by Geneva ``protocol:field`` name."""
        layer, spec = self._field_spec(protocol, field)
        return spec.get(layer)

    def set_field(self, protocol: str, field: str, value) -> None:
        """Write a field value by Geneva ``protocol:field`` name."""
        layer, spec = self._field_spec(protocol, field)
        spec.set(layer, value)

    def replace_field(self, protocol: str, field: str, text: str) -> None:
        """Apply a ``tamper ... replace`` with ``text`` as the new value."""
        layer, spec = self._field_spec(protocol, field)
        spec.set(layer, parse_replace_value(spec, text))

    def corrupt_field(self, protocol: str, field: str, rng: random.Random) -> None:
        """Apply a ``tamper ... corrupt`` using ``rng`` for randomness."""
        layer, spec = self._field_spec(protocol, field)
        spec.set(layer, corrupt_value(spec, spec.get(layer), rng))

    def matches(self, protocol: str, field: str, value: str) -> bool:
        """Exact-match trigger evaluation (Geneva trigger semantics).

        For flags, ``TCP:flags:SA`` matches only packets whose flag set is
        exactly ``{S, A}`` — Geneva triggers demand an exact match.
        """
        layer, spec = self._field_spec(protocol, field)
        current = spec.get(layer)
        if spec.kind == "flags":
            return set(current) == set(value.upper())
        if spec.kind == "int":
            try:
                return int(current) == int(value)
            except (TypeError, ValueError):
                return False
        if spec.kind == "bytes":
            return current == value.encode("utf-8")
        return str(current) == value

    # ------------------------------------------------------------------
    # Wire round trip

    def serialize(self) -> bytes:
        """Serialize the full packet to wire bytes."""
        return self.ip.serialize(self.transport.serialize(self.src, self.dst))

    @classmethod
    def parse(cls, data: bytes) -> "Packet":
        """Parse a full packet from wire bytes.

        The IP version nibble selects IPv4 or IPv6; the IP protocol number
        selects TCP or UDP.
        """
        if not data:
            raise ValueError("empty packet")
        version = data[0] >> 4
        if version == 6:
            from .ipv6 import IPv6

            ip, payload = IPv6.parse(data)
        else:
            ip, payload = IPv4.parse(data)
        if ip.proto == IP_PROTO_UDP:
            return cls(ip, udp=UDP.parse(payload, ip.src, ip.dst))
        tcp = TCP.parse(payload, ip.src, ip.dst)
        return cls(ip, tcp)

    # ------------------------------------------------------------------
    # Misc

    def copy(self) -> "Packet":
        """Return a deep, independent copy of this packet.

        TCP/IPv4 copies are drawn from the packet arena when one is
        active for the current trial (see :mod:`repro.packets.pool`).
        """
        if self.udp is not None:
            return Packet(self.ip.copy(), udp=self.udp.copy())
        if type(self.ip) is IPv4:
            arena = pool._ACTIVE
            if arena is not None:
                return arena.acquire_copy(self)
        clone = Packet.__new__(Packet)
        clone.ip = self.ip.copy()
        clone.tcp = self.tcp.copy()
        clone.udp = None
        return clone

    def __repr__(self) -> str:
        load = f" len={len(self.load)}" if self.load else ""
        if self.udp is not None:
            return (
                f"Packet({self.src}:{self.sport} > {self.dst}:{self.dport}"
                f" [UDP]{load})"
            )
        flags = self.flags or "<null>"
        return (
            f"Packet({self.src}:{self.sport} > {self.dst}:{self.dport}"
            f" [{flags}] seq={self.tcp.seq} ack={self.tcp.ack}{load})"
        )


def make_tcp_packet(
    src: str,
    dst: str,
    sport: int,
    dport: int,
    flags: str = "S",
    seq: int = 0,
    ack: int = 0,
    load: bytes = b"",
    window: int = 65535,
    ttl: int = 64,
    options: Optional[list] = None,
) -> Packet:
    """Convenience constructor for a TCP packet (IPv4 or IPv6 by address)."""
    if ":" in src or ":" in dst:
        from .ipv6 import IPv6

        ip = IPv6(src=src, dst=dst, hop_limit=ttl)
    else:
        arena = pool._ACTIVE
        if arena is not None:
            return arena.acquire_tcp(
                src, dst, sport, dport, flags, seq, ack, load, window, ttl, options
            )
        ip = IPv4(src=src, dst=dst, ttl=ttl)
    tcp = TCP(
        sport=sport,
        dport=dport,
        seq=seq,
        ack=ack,
        flags=flags,
        window=window,
        load=load,
        options=options,
    )
    return Packet(ip, tcp)


def make_udp_packet(
    src: str,
    dst: str,
    sport: int,
    dport: int,
    load: bytes = b"",
    ttl: int = 64,
) -> Packet:
    """Convenience constructor for a UDP packet (IPv4 or IPv6 by address)."""
    if ":" in src or ":" in dst:
        from .ipv6 import IPv6

        ip = IPv6(src=src, dst=dst, hop_limit=ttl, proto=IP_PROTO_UDP)
    else:
        ip = IPv4(src=src, dst=dst, ttl=ttl, proto=IP_PROTO_UDP)
    return Packet(ip, udp=UDP(sport=sport, dport=dport, load=load))
