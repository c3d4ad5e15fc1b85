"""IPv6 header layer.

The paper's Geneva extension adds IPv6 to ``tamper``'s field namespace
(Appendix). This layer implements the fixed IPv6 header with byte-level
serialization/parsing, RFC 2460 semantics (hop limit instead of TTL, no
header checksum, no fragmentation in the base header), and the same
duck-typed interface as :class:`~repro.packets.ip.IPv4` so packets and
the simulator are address-family agnostic.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from .fields import FieldSpec

__all__ = [
    "IPv6",
    "canonical_ip",
    "expand_v6",
    "compress_v6",
    "v6_to_bytes",
    "bytes_to_v6",
]


def canonical_ip(address: str) -> str:
    """Canonical form of an IP address of either family.

    IPv6 addresses are expanded (``::`` resolved) so string comparison is
    reliable; IPv4 addresses pass through unchanged.
    """
    return expand_v6(address) if ":" in address else address

IP_PROTO_TCP = 6


#: Packed-address memo (see checksum._ADDR_BYTES for rationale/bounds).
_V6_BYTES: dict = {}
_V6_BYTES_MAX = 1024


def v6_to_bytes(address: str) -> bytes:
    """Convert an IPv6 address string (with ``::`` support) to 16 bytes."""
    cached = _V6_BYTES.get(address)
    if cached is not None:
        return cached
    packed = _parse_v6(address)
    if len(_V6_BYTES) >= _V6_BYTES_MAX:
        _V6_BYTES.clear()
    _V6_BYTES[address] = packed
    return packed


def _parse_v6(address: str) -> bytes:
    if address.count("::") > 1 or ":::" in address:
        raise ValueError(f"invalid IPv6 address {address!r}")
    if "::" in address:
        head_text, _, tail_text = address.partition("::")
        head = [p for p in head_text.split(":") if p]
        tail = [p for p in tail_text.split(":") if p]
        missing = 8 - len(head) - len(tail)
        if missing < 0:
            raise ValueError(f"invalid IPv6 address {address!r}")
        groups = head + ["0"] * missing + tail
    else:
        groups = address.split(":")
    if len(groups) != 8:
        raise ValueError(f"invalid IPv6 address {address!r}")
    try:
        values = [int(group, 16) for group in groups]
    except ValueError as exc:
        raise ValueError(f"invalid IPv6 address {address!r}") from exc
    if any(value < 0 or value > 0xFFFF for value in values):
        raise ValueError(f"invalid IPv6 address {address!r}")
    return b"".join(struct.pack("!H", value) for value in values)


def bytes_to_v6(raw: bytes) -> str:
    """Render 16 bytes as a canonical (uncompressed) IPv6 string."""
    if len(raw) != 16:
        raise ValueError("IPv6 address must be 16 bytes")
    groups = [f"{struct.unpack('!H', raw[i : i + 2])[0]:x}" for i in range(0, 16, 2)]
    return ":".join(groups)


def expand_v6(address: str) -> str:
    """Normalize an IPv6 string (resolving ``::``)."""
    return bytes_to_v6(v6_to_bytes(address))


def compress_v6(address: str) -> str:
    """Apply the longest-zero-run ``::`` compression."""
    groups = expand_v6(address).split(":")
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for index, group in enumerate(groups + ["sentinel"]):
        if group == "0":
            if run_start < 0:
                run_start = index
            run_len += 1
        else:
            if run_len > best_len:
                best_start, best_len = run_start, run_len
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(groups)
    head = ":".join(groups[:best_start])
    tail = ":".join(groups[best_start + best_len :])
    return f"{head}::{tail}"


class IPv6:
    """A mutable IPv6 fixed header.

    Attributes mirror RFC 2460: ``hop_limit`` plays IPv4's TTL role (and
    is also exposed via the ``ttl`` alias so the simulator's hop logic is
    family-agnostic). IPv6 has no header checksum.
    """

    version = 6

    __slots__ = (
        "src",
        "dst",
        "hop_limit",
        "proto",
        "traffic_class",
        "flow_label",
        "len_override",
        "_wire",
        "_wire_key",
    )

    def __init__(
        self,
        src: str = "::",
        dst: str = "::",
        hop_limit: int = 64,
        proto: int = IP_PROTO_TCP,
        traffic_class: int = 0,
        flow_label: int = 0,
    ) -> None:
        self.src = expand_v6(src)
        self.dst = expand_v6(dst)
        self.hop_limit = hop_limit
        self.proto = proto
        self.traffic_class = traffic_class
        self.flow_label = flow_label
        self.len_override: Optional[int] = None
        self._wire: Optional[bytes] = None
        self._wire_key: Optional[tuple] = None

    # ------------------------------------------------------------------
    # The family-agnostic TTL interface used by the network simulator.

    @property
    def ttl(self) -> int:
        """Alias for :attr:`hop_limit`."""
        return self.hop_limit

    @ttl.setter
    def ttl(self, value: int) -> None:
        """Set :attr:`hop_limit` (masked to 8 bits)."""
        self.hop_limit = value & 0xFF

    @property
    def chksum_override(self) -> Optional[int]:
        """IPv6 has no header checksum; always ``None``."""
        return None

    # ------------------------------------------------------------------

    def header_length(self) -> int:
        """Length of the serialized fixed header in bytes."""
        return 40

    def serialize(self, payload: bytes) -> bytes:
        """Serialize the fixed header followed by ``payload``.

        Cached like :meth:`IPv4.serialize`; IPv6 has no header checksum,
        so single-scalar changes are plain byte patches.
        """
        key = (
            self.traffic_class,
            self.flow_label,
            self.hop_limit,
            self.proto,
            self.src,
            self.dst,
            self.len_override,
            payload,
        )
        wire = self._wire
        if wire is not None:
            old_key = self._wire_key
            if old_key == key:
                return wire
            if old_key[4:] == key[4:]:
                buf = bytearray(wire)
                if old_key[0] != key[0] or old_key[1] != key[1]:
                    first_word = (
                        (6 << 28)
                        | ((key[0] & 0xFF) << 20)
                        | (key[1] & 0xFFFFF)
                    )
                    buf[0:4] = struct.pack("!I", first_word)
                if old_key[3] != key[3]:
                    buf[6] = key[3] & 0xFF
                if old_key[2] != key[2]:
                    buf[7] = key[2] & 0xFF
                wire = bytes(buf)
                self._wire = wire
                self._wire_key = key
                return wire
        wire = self._build_wire(payload)
        self._wire = wire
        self._wire_key = key
        return wire

    def _build_wire(self, payload: bytes) -> bytes:
        length = self.len_override
        if length is None:
            length = len(payload)
        first_word = (
            (6 << 28)
            | ((self.traffic_class & 0xFF) << 20)
            | (self.flow_label & 0xFFFFF)
        )
        header = struct.pack(
            "!IHBB16s16s",
            first_word,
            length & 0xFFFF,
            self.proto & 0xFF,
            self.hop_limit & 0xFF,
            v6_to_bytes(self.src),
            v6_to_bytes(self.dst),
        )
        return header + payload

    @classmethod
    def parse(cls, data: bytes) -> Tuple["IPv6", bytes]:
        """Parse an IPv6 fixed header; returns (header, payload)."""
        if len(data) < 40:
            raise ValueError("truncated IPv6 header")
        first_word, length, proto, hop_limit, src, dst = struct.unpack(
            "!IHBB16s16s", data[:40]
        )
        if first_word >> 28 != 6:
            raise ValueError("not an IPv6 packet")
        header = cls(
            src=bytes_to_v6(src),
            dst=bytes_to_v6(dst),
            hop_limit=hop_limit,
            proto=proto,
            traffic_class=(first_word >> 20) & 0xFF,
            flow_label=first_word & 0xFFFFF,
        )
        return header, data[40 : 40 + length]

    def checksum_ok(self, raw_header: bytes) -> bool:
        """IPv6 headers carry no checksum; always valid."""
        return True

    # ------------------------------------------------------------------

    def copy(self) -> "IPv6":
        """Return an independent copy of this header."""
        clone = IPv6.__new__(IPv6)
        clone.src = self.src
        clone.dst = self.dst
        clone.hop_limit = self.hop_limit
        clone.proto = self.proto
        clone.traffic_class = self.traffic_class
        clone.flow_label = self.flow_label
        clone.len_override = self.len_override
        clone._wire = self._wire
        clone._wire_key = self._wire_key
        return clone

    def __repr__(self) -> str:
        return (
            f"IPv6({compress_v6(self.src)} > {compress_v6(self.dst)}"
            f" hlim={self.hop_limit} proto={self.proto})"
        )

    # ------------------------------------------------------------------
    # Geneva field registry ("IP" namespace, v6 flavour)

    FIELDS = {
        "tc": FieldSpec(
            "tc",
            "int",
            8,
            lambda ip: ip.traffic_class,
            lambda ip, v: setattr(ip, "traffic_class", v & 0xFF),
        ),
        "fl": FieldSpec(
            "fl",
            "int",
            20,
            lambda ip: ip.flow_label,
            lambda ip, v: setattr(ip, "flow_label", v & 0xFFFFF),
        ),
        "len": FieldSpec(
            "len",
            "int",
            16,
            lambda ip: ip.len_override or 0,
            lambda ip, v: setattr(ip, "len_override", v & 0xFFFF),
        ),
        "proto": FieldSpec(
            "proto", "int", 8, lambda ip: ip.proto, lambda ip, v: setattr(ip, "proto", v & 0xFF)
        ),
        "ttl": FieldSpec(
            "ttl",
            "int",
            8,
            lambda ip: ip.hop_limit,
            lambda ip, v: setattr(ip, "hop_limit", v & 0xFF),
        ),
        "hlim": FieldSpec(
            "hlim",
            "int",
            8,
            lambda ip: ip.hop_limit,
            lambda ip, v: setattr(ip, "hop_limit", v & 0xFF),
        ),
        "src": FieldSpec(
            "src", "ip", 128, lambda ip: ip.src, lambda ip, v: setattr(ip, "src", expand_v6(v) if ":" in v else v)
        ),
        "dst": FieldSpec(
            "dst", "ip", 128, lambda ip: ip.dst, lambda ip, v: setattr(ip, "dst", expand_v6(v) if ":" in v else v)
        ),
    }
