"""From-scratch IPv4/TCP packet model used throughout the reproduction.

Public surface:

- :class:`~repro.packets.packet.Packet` — the IPv4+TCP container Geneva
  manipulates and the simulator delivers.
- :class:`~repro.packets.ip.IPv4` / :class:`~repro.packets.tcp.TCP` — the
  individual layers with byte-level serialize/parse.
- :func:`~repro.packets.packet.make_tcp_packet` — convenience constructor.
- :func:`~repro.packets.checksum.internet_checksum` /
  :func:`~repro.packets.checksum.tcp_checksum` — RFC 1071 checksums.
"""

from .checksum import internet_checksum, pseudo_header, tcp_checksum
from .fields import TCP_FLAG_LETTERS, FieldSpec, corrupt_value, parse_replace_value
from .ip import IPv4
from .ipv6 import IPv6, canonical_ip, compress_v6, expand_v6
from .packet import Packet, field_registries, make_tcp_packet, make_udp_packet
from .tcp import TCP, bits_to_flags, flags_to_bits
from .udp import IP_PROTO_UDP, UDP

__all__ = [
    "FieldSpec",
    "IP_PROTO_UDP",
    "IPv4",
    "IPv6",
    "Packet",
    "canonical_ip",
    "compress_v6",
    "expand_v6",
    "field_registries",
    "TCP",
    "TCP_FLAG_LETTERS",
    "UDP",
    "bits_to_flags",
    "corrupt_value",
    "flags_to_bits",
    "internet_checksum",
    "make_tcp_packet",
    "make_udp_packet",
    "parse_replace_value",
    "pseudo_header",
    "tcp_checksum",
]
