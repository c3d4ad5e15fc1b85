"""Kazakhstan's in-path HTTP censorship model (§5.3).

Behaviour from the paper:

- in-network DPI of HTTP on port 80 triggered by a forbidden ``Host:``;
- on a match the censor performs a man-in-the-middle: all client packets
  in the TCP stream are intercepted for ~15 seconds, and a FIN+PSH+ACK
  block page is injected to the client;
- the censor monitors connections for patterns resembling *normal* HTTP
  connections and *ignores* flows that violate its handshake model:

  * three or more payload-bearing packets from the server during the
    handshake (Strategy 9 — two are not enough);
  * a duplicated well-formed benign GET prefix from the server during
    the handshake, which makes the censor believe the server is actually
    the client (Strategy 10 — the prefix must be well-formed up to
    ``GET / HTTP1.``);
  * a packet using none of the FIN/RST/SYN/ACK flags (Strategy 11);

- when content is injected before the connection is established, it is
  the *second* GET request the censor processes (or the first, after a
  simultaneous open) — the paper's censor-probing follow-up experiment.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from ..netsim import PathContext
from ..packets import Packet, make_tcp_packet
from .base import Censor, FlowKey, flow_key
from .dpi import looks_like_http_get, match_http
from .keywords import KAZAKHSTAN_KEYWORDS, KeywordSet

__all__ = ["KazakhstanCensor", "MITM_DURATION", "PAYLOAD_IGNORE_THRESHOLD"]

_MOD = 1 << 32

#: How long the censor intercepts client packets after a match (seconds).
MITM_DURATION = 15.0

#: Server handshake payloads needed before the censor gives up on a flow.
PAYLOAD_IGNORE_THRESHOLD = 3

_BLOCK_BODY = (
    b"<html><body>This page has been blocked by order of the Republic."
    b"</body></html>"
)


def _block_page() -> bytes:
    return (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/html\r\n"
        b"Content-Length: " + str(len(_BLOCK_BODY)).encode() + b"\r\n"
        b"Connection: close\r\n\r\n" + _BLOCK_BODY
    )


class _KZFlow:
    """Per-flow censor state."""

    def __init__(self) -> None:
        self.handshake_done = False
        self.server_payloads = 0
        self.server_gets = 0
        self.sim_open = False
        self.ignored = False
        self.mitm_until = 0.0


class KazakhstanCensor(Censor):
    """In-path HTTP censor with a handshake-pattern model."""

    name = "kazakhstan"

    def __init__(
        self,
        keywords: KeywordSet = KAZAKHSTAN_KEYWORDS,
        censored_ports: FrozenSet[int] = frozenset({80}),
        mitm_duration: float = MITM_DURATION,
        payload_ignore_threshold: int = PAYLOAD_IGNORE_THRESHOLD,
        inspect_depth: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.keywords = keywords
        self.censored_ports = censored_ports
        # Adaptive knobs (repro.censors.adaptive): defaults reproduce the
        # module constants the paper's calibration uses.
        self.mitm_duration = mitm_duration
        self.payload_ignore_threshold = payload_ignore_threshold
        self.inspect_depth = inspect_depth
        self.flows: Dict[FlowKey, _KZFlow] = {}

    # ------------------------------------------------------------------

    def process(self, packet: Packet, direction: str, ctx: PathContext) -> List[Packet]:
        """Run the handshake model; MITM a forbidden request's flow."""
        if packet.tcp is None:
            return [packet]  # TCP censorship only
        if packet.dport not in self.censored_ports and packet.sport not in self.censored_ports:
            return [packet]
        key = flow_key(packet)
        flow = self.flows.setdefault(key, _KZFlow())
        if self.is_client_to_server(direction):
            return self._client_packet(flow, packet, ctx)
        return self._server_packet(flow, packet, ctx)

    # ------------------------------------------------------------------

    def _server_packet(self, flow: _KZFlow, packet: Packet, ctx: PathContext) -> List[Packet]:
        if flow.ignored or flow.handshake_done:
            return [packet]
        tcp = packet.tcp
        if not set(tcp.flags) & set("FRSA"):
            # A packet using none of the standard handshake flags violates
            # the censor's model of a normal connection (Strategy 11).
            flow.ignored = True
            ctx.record("censor", packet, "flow ignored: non-standard flags")
            return [packet]
        if tcp.is_syn and not tcp.is_ack:
            flow.sim_open = True
        if tcp.load:
            if looks_like_http_get(tcp.load):
                flow.server_gets += 1
                threshold = 1 if flow.sim_open else 2
                if flow.server_gets >= threshold:
                    self._process_injected_get(flow, packet, ctx)
            else:
                flow.server_payloads += 1
                if flow.server_payloads >= self.payload_ignore_threshold:
                    # Payloads from the server during the handshake violate
                    # the censor's model (Strategy 9 — exactly three needed).
                    flow.ignored = True
                    ctx.record("censor", packet, "flow ignored: handshake payloads")
        return [packet]

    def _inspected(self, load: bytes) -> bytes:
        if self.inspect_depth is None:
            return load
        return load[: self.inspect_depth]

    def _process_injected_get(self, flow: _KZFlow, packet: Packet, ctx: PathContext) -> None:
        verdict = match_http(self._inspected(packet.load), self.keywords)
        if verdict is True:
            # The censor-probing experiment: injected forbidden content
            # elicits a censor response toward whoever it now believes is
            # the client — the server.
            self.record_censorship(ctx, packet, "injected forbidden GET")
            self._inject_block_page(packet, ctx, toward="server")
        else:
            # A benign well-formed GET convinces the censor the server is
            # the client; the real connection is ignored (Strategy 10).
            flow.ignored = True
            ctx.record("censor", packet, "flow ignored: server looks like client")

    # ------------------------------------------------------------------

    def _client_packet(self, flow: _KZFlow, packet: Packet, ctx: PathContext) -> List[Packet]:
        if flow.mitm_until and ctx.now < flow.mitm_until:
            ctx.record("drop", packet, "kz mitm interception")
            return []
        tcp = packet.tcp
        if not tcp.load:
            return [packet]
        if not flow.ignored and match_http(self._inspected(tcp.load), self.keywords) is True:
            self.record_censorship(ctx, packet, "http host blocked (mitm)")
            flow.mitm_until = ctx.now + self.mitm_duration
            self._inject_block_page(packet, ctx, toward="client")
            return []  # intercepted: the forbidden request never arrives
        flow.handshake_done = True
        return [packet]

    def _inject_block_page(self, packet: Packet, ctx: PathContext, toward: str) -> None:
        page = _block_page()
        block = make_tcp_packet(
            src=packet.dst,
            dst=packet.src,
            sport=packet.dport,
            dport=packet.sport,
            flags="FPA",
            seq=packet.tcp.ack,
            ack=(packet.tcp.seq + len(packet.load)) % _MOD,
            load=page,
        )
        ctx.inject(block, toward=toward)
