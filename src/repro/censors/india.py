"""India's Airtel censorship model (§5.2).

Behaviour reverse-engineered by the paper (building on Yadav et al.):

- HTTP only, and only on port 80 — any other port is uncensored;
- completely stateless: every client packet is inspected independently,
  with no connection tracking (a forbidden request without a handshake
  still elicits censorship);
- cannot reassemble TCP segments (why Strategy 8's induced segmentation
  wins 100% of the time);
- on a match it injects an HTTP 200 block page on a FIN+PSH+ACK packet,
  plus a follow-up RST "for good measure", rather than tearing the
  connection down with RSTs alone.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from ..netsim import PathContext
from ..packets import Packet, make_tcp_packet
from .base import Censor
from .dpi import match_http
from .keywords import INDIA_KEYWORDS, KeywordSet

__all__ = ["AirtelCensor", "build_block_page"]

_MOD = 1 << 32

#: Marker shared with :mod:`repro.apps.http` so clients recognize the page.
_BLOCK_BODY = (
    b"<html><body>This page has been blocked as per government order."
    b"</body></html>"
)


def build_block_page() -> bytes:
    """The HTTP 200 block page Airtel injects."""
    return (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/html\r\n"
        b"Content-Length: " + str(len(_BLOCK_BODY)).encode() + b"\r\n"
        b"Connection: close\r\n\r\n" + _BLOCK_BODY
    )


class AirtelCensor(Censor):
    """Stateless on-path HTTP censor modelling the Airtel ISP middleboxes."""

    name = "airtel"

    def __init__(
        self,
        keywords: KeywordSet = INDIA_KEYWORDS,
        censored_ports: FrozenSet[int] = frozenset({80}),
        inspect_depth: Optional[int] = None,
        rst_count: int = 1,
    ) -> None:
        super().__init__()
        self.keywords = keywords
        self.censored_ports = censored_ports
        # Adaptive knobs (repro.censors.adaptive): how many payload bytes
        # the DPI examines (None = unbounded, the calibrated behaviour)
        # and how many follow-up RSTs ride behind the block page.
        self.inspect_depth = inspect_depth
        self.rst_count = rst_count

    def process(self, packet: Packet, direction: str, ctx: PathContext) -> List[Packet]:
        """Inject the block page on a forbidden port-80 request; always forward."""
        if packet.tcp is None:
            return [packet]  # TCP censorship only
        if (
            self.is_client_to_server(direction)
            and packet.dport in self.censored_ports
            and packet.load
            and match_http(self._inspected(packet.load), self.keywords) is True
        ):
            self._inject_block_page(packet, ctx)
        return [packet]  # on-path: the request still reaches the server

    def _inspected(self, load: bytes) -> bytes:
        if self.inspect_depth is None:
            return load
        return load[: self.inspect_depth]

    def _inject_block_page(self, packet: Packet, ctx: PathContext) -> None:
        self.record_censorship(ctx, packet, "http host blocked")
        page = build_block_page()
        seq = packet.tcp.ack
        ack = (packet.tcp.seq + len(packet.load)) % _MOD
        block = make_tcp_packet(
            src=packet.dst,
            dst=packet.src,
            sport=packet.dport,
            dport=packet.sport,
            flags="FPA",
            seq=seq,
            ack=ack,
            load=page,
        )
        ctx.inject(block, toward="client")
        # Follow-up RST(s) (observed by Yadav et al. and in the paper).
        for _ in range(self.rst_count):
            rst = make_tcp_packet(
                src=packet.dst,
                dst=packet.src,
                sport=packet.dport,
                dport=packet.sport,
                flags="RA",
                seq=(seq + len(page) + 1) % _MOD,
                ack=ack,
            )
            ctx.inject(rst, toward="client")
