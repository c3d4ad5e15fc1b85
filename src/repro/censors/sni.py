"""SNI-filtering censor boxes: the TLS-metadata era.

Models the escalation past the paper's 2020-era censors: middleboxes that
key on the TLS ClientHello's Server Name Indication, as deployed in South
Korea (the SNIC RST-injector) and Russia (TSPU-style in-path filtering).
Unlike the paper's non-reassembling DPI, an :class:`SNICensor` *does*
reassemble the ClientHello across TCP segment boundaries — up to a
configurable byte budget and per-flow tracking window — so client-side
segmentation alone no longer evades it. The server-side answers live in
:mod:`repro.strategies.tlsrecord`.

Calibrations (the country registry's genome builders; the baseline
boxes are ``build_censor("southkorea")`` and ``build_censor("russia")``):

- South Korea — on-path, reassembling, *lenient*: a hello
  it cannot parse is given the benefit of the doubt. It fingerprints a
  blocked SNI, then confirms the flow is really TLS by parsing the
  server's first response for a complete ServerHello before injecting a
  burst of RSTs toward the client (dropping the confirming packet). That
  confirmation step is the box's exploitable quirk: record-split or
  segmented ServerHellos never parse, so the box stands down. It also
  trusts observed RSTs (without validating checksums) and purges flow
  state on them.
- Russia — in-path and *strict*: the verdict fires on the
  reassembled ClientHello itself, unparseable or SNI-less (ESNI) hellos
  are dropped, and the flow is blackholed; injected RSTs tear down both
  ends. Observed RSTs are ignored (no teardown-insertion escape). Only
  outlasting its two-second flow-tracking window — deep connection
  migration — evades it.

Both anchor the tracking window at the client's *first* SYN and never
refresh it, so a server that stalls its SYN+ACKs past the window serves
the flow uninspected (the connection-migration evasion).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..apps.tls import (
    HANDSHAKE_SERVER_HELLO,
    SCAN_COMPLETE,
    SCAN_NEEDS_MORE,
    scan_client_hello,
    scan_tls_handshake,
)
from ..netsim import PathContext
from ..obs.metrics import Counter
from ..packets import Packet, make_tcp_packet
from .base import Censor, FlowKey, flow_key
from .keywords import KeywordSet

__all__ = [
    "SNICensor",
    "SNI_REASSEMBLY_BYTES",
    "SOUTHKOREA_TRACKING_WINDOW",
    "RUSSIA_TRACKING_WINDOW",
]

#: Default per-flow reassembly budget (bytes of buffered ClientHello).
SNI_REASSEMBLY_BYTES = 8192

#: Seconds after the first SYN before each box evicts a flow's reassembly
#: state. South Korea's box is the shallower tracker, so a two-RTO stall
#: (~1.2 virtual seconds) already outlasts it; Russia's needs a three-RTO
#: stall (~2.8 s).
SOUTHKOREA_TRACKING_WINDOW = 1.0
RUSSIA_TRACKING_WINDOW = 2.0

#: Client packets swallowed by an armed strict-mode blackhole (the
#: verdict that armed it is counted in repro_censor_verdicts_total).
_SNI_BLACKHOLE_DROPS = Counter(
    "repro_sni_blackhole_drops_total",
    "Packets dropped by an SNI censor's post-verdict blackhole",
    ("censor",),
)

#: Reassembly give-ups, by censor and cause (window/bytes/invalid).
_SNI_GIVEUPS = Counter(
    "repro_sni_reassembly_giveups_total",
    "Flows an SNI censor stopped tracking without a verdict",
    ("censor", "cause"),
)


class _FlowState:
    """Reassembly state for one tracked client flow."""

    __slots__ = ("base_seq", "created", "segments", "buffered", "armed")

    def __init__(self, base_seq: int, created: float) -> None:
        self.base_seq = base_seq  # first client payload byte's seq
        self.created = created  # first-SYN time; never refreshed
        self.segments: Dict[int, bytes] = {}  # stream offset -> bytes
        self.buffered = 0
        self.armed = False  # blocked SNI seen; awaiting server confirm

    def add_segment(self, offset: int, data: bytes) -> None:
        previous = self.segments.get(offset)
        if previous is None or len(data) > len(previous):
            self.segments[offset] = data
            self.buffered += len(data) - (len(previous) if previous else 0)

    def assembled(self) -> bytes:
        """The contiguous byte prefix of the client stream seen so far."""
        end = 0
        parts: List[bytes] = []
        for offset in sorted(self.segments):
            segment = self.segments[offset]
            if offset > end:
                break  # gap: later bytes are unreachable for now
            if offset + len(segment) > end:
                parts.append(segment[end - offset :])
                end = offset + len(segment)
        return b"".join(parts)


class SNICensor(Censor):
    """A reassembling TLS-SNI filter with tunable strictness.

    Attributes:
        keywords: Blocked SNI hostnames (``keywords.sni_names``).
        tls_ports: Server ports treated as TLS.
        reassembly_bytes: Per-flow reassembly budget; flows exceeding it
            are abandoned (lenient) or blackholed (strict).
        tracking_window: Seconds after the first SYN before the box
            evicts the flow's state and stops inspecting it.
        rst_count: RSTs injected per direction on a verdict.
        rst_direction: ``"client"``, ``"server"``, or ``"both"``.
        strict: Drop-and-blackhole unparseable or SNI-less hellos instead
            of passing them.
        confirm_server_hello: Hold the verdict until a complete
            ServerHello is parsed from the server's first response (the
            South-Korea quirk server-side strategies exploit).
        honor_rst_teardown: Purge flow state when a RST is observed
            (without checksum validation — insertion packets count).
        blackhole_duration: Seconds a strict verdict blackholes the flow.
    """

    name = "sni"

    def __init__(
        self,
        keywords: KeywordSet,
        tls_ports: frozenset = frozenset({443}),
        reassembly_bytes: int = SNI_REASSEMBLY_BYTES,
        tracking_window: float = SOUTHKOREA_TRACKING_WINDOW,
        rst_count: int = 1,
        rst_direction: str = "both",
        strict: bool = False,
        confirm_server_hello: bool = False,
        honor_rst_teardown: bool = True,
        blackhole_duration: float = 60.0,
        name: Optional[str] = None,
    ) -> None:
        if rst_direction not in ("client", "server", "both"):
            raise ValueError(f"unknown rst_direction {rst_direction!r}")
        self.keywords = keywords
        self.tls_ports = tls_ports
        self.reassembly_bytes = reassembly_bytes
        self.tracking_window = tracking_window
        self.rst_count = rst_count
        self.rst_direction = rst_direction
        self.strict = strict
        self.confirm_server_hello = confirm_server_hello
        self.honor_rst_teardown = honor_rst_teardown
        self.blackhole_duration = blackhole_duration
        if name is not None:
            self.name = name
        super().__init__()

    def reset(self) -> None:
        """Forget every flow, ignore mark and blackhole; zero the count."""
        super().reset()
        self.flows: Dict[FlowKey, _FlowState] = {}
        self.ignored: Set[FlowKey] = set()
        self.blackholed: Dict[FlowKey, float] = {}

    # ------------------------------------------------------------------

    def process(self, packet: Packet, direction: str, ctx: PathContext) -> List[Packet]:
        """Reassemble client hellos; block flows whose SNI is forbidden."""
        tcp = packet.tcp
        if tcp is None:
            return [packet]
        key = flow_key(packet)
        c2s = self.is_client_to_server(direction)

        expiry = self.blackholed.get(key)
        if expiry is not None:
            if ctx.now >= expiry:
                del self.blackholed[key]
            elif c2s:
                _SNI_BLACKHOLE_DROPS.inc(censor=self.name)
                ctx.record("drop", packet, "sni-blackholed")
                return []

        state = self.flows.get(key)
        if state is not None and self.honor_rst_teardown and tcp.is_rst:
            # The box trusts wire RSTs without validating checksums: the
            # flow is gone, forget it (teardown-insertion evasion).
            del self.flows[key]
            self.ignored.add(key)
            _SNI_GIVEUPS.inc(censor=self.name, cause="rst-teardown")
            return [packet]

        if key in self.ignored:
            return [packet]

        if c2s and tcp.is_syn and packet.dport in self.tls_ports:
            if state is None:
                # Anchor the tracking window at the FIRST SYN; SYN
                # retransmissions never refresh it.
                self.flows[key] = _FlowState(
                    (tcp.seq + 1) & 0xFFFFFFFF, ctx.now
                )
            return [packet]

        if state is None:
            return [packet]

        if not c2s:
            if state.armed and packet.load:
                return self._confirm(packet, ctx, key, state)
            return [packet]

        if not packet.load:
            return [packet]
        return self._inspect_client_bytes(packet, ctx, key, state)

    # ------------------------------------------------------------------
    # Client-to-server: reassemble the ClientHello.

    def _inspect_client_bytes(
        self, packet: Packet, ctx: PathContext, key: FlowKey, state: _FlowState
    ) -> List[Packet]:
        tcp = packet.tcp
        if ctx.now - state.created > self.tracking_window:
            # The box only has so much per-flow memory: state is evicted
            # once the window lapses, strict or not — the opening
            # connection migration exploits exactly this.
            self._forget(key, "window-expired")
            return [packet]
        offset = (tcp.seq - state.base_seq) & 0xFFFFFFFF
        if offset > self.reassembly_bytes:
            return self._give_up(packet, ctx, key, "reassembly-overflow")
        state.add_segment(offset, packet.load)
        if state.buffered > self.reassembly_bytes:
            return self._give_up(packet, ctx, key, "reassembly-overflow")

        scan = scan_client_hello(state.assembled())
        if scan.status == SCAN_NEEDS_MORE:
            return [packet]  # keep buffering
        if scan.status == SCAN_COMPLETE and scan.server_name is not None:
            if scan.server_name in self.keywords.sni_names:
                return self._verdict(packet, ctx, key, state)
            self._forget(key, "benign-sni")
            return [packet]
        # Invalid bytes, or a complete hello without plaintext SNI (ESNI).
        if scan.status == SCAN_COMPLETE:
            cause = "esni" if scan.has_esni else "no-sni"
        else:
            cause = "invalid"
        return self._give_up(packet, ctx, key, cause)

    def _verdict(
        self, packet: Packet, ctx: PathContext, key: FlowKey, state: _FlowState
    ) -> List[Packet]:
        if self.confirm_server_hello:
            # Lenient boxes hold fire until the server's response proves
            # the flow really is TLS — the quirk record-level server-side
            # strategies exploit.
            state.armed = True
            return [packet]
        return self._censor_c2s(packet, ctx, key)

    def _give_up(
        self, packet: Packet, ctx: PathContext, key: FlowKey, cause: str
    ) -> List[Packet]:
        """A hello the box cannot (or will never) parse to a blocked SNI."""
        if self.strict:
            # Strict boxes drop what they cannot read.
            self.record_censorship(ctx, packet, f"strict-drop:{cause}")
            self.blackholed[key] = ctx.now + self.blackhole_duration
            del self.flows[key]
            return []
        self._forget(key, cause)
        return [packet]

    def _forget(self, key: FlowKey, cause: str) -> None:
        del self.flows[key]
        self.ignored.add(key)
        _SNI_GIVEUPS.inc(censor=self.name, cause=cause)

    # ------------------------------------------------------------------
    # Server-to-client: the lenient box's ServerHello confirmation.

    def _confirm(
        self, packet: Packet, ctx: PathContext, key: FlowKey, state: _FlowState
    ) -> List[Packet]:
        scan = scan_tls_handshake(packet.load, HANDSHAKE_SERVER_HELLO)
        if scan.status != SCAN_COMPLETE:
            # Record-split or segmented ServerHello: confirmation fails
            # on this box's one-shot parse, and it stands down for good.
            self._forget(key, "serverhello-unconfirmed")
            return [packet]
        del self.flows[key]
        self.ignored.add(key)
        self.record_censorship(ctx, packet, "blocked-sni-confirmed")
        self._inject_rsts(
            ctx,
            client_ip=packet.dst,
            client_port=packet.dport,
            server_ip=packet.src,
            server_port=packet.sport,
            seq_to_client=packet.tcp.seq,
            ack_to_client=packet.tcp.ack,
            seq_to_server=packet.tcp.ack,
            ack_to_server=packet.tcp.seq,
        )
        return []  # the confirming ServerHello never reaches the client

    def _censor_c2s(self, packet: Packet, ctx: PathContext, key: FlowKey) -> List[Packet]:
        """Strict/immediate verdict on the reassembled ClientHello."""
        self.record_censorship(ctx, packet, "blocked-sni")
        self.blackholed[key] = ctx.now + self.blackhole_duration
        del self.flows[key]
        self._inject_rsts(
            ctx,
            client_ip=packet.src,
            client_port=packet.sport,
            server_ip=packet.dst,
            server_port=packet.dport,
            seq_to_client=packet.tcp.ack,
            ack_to_client=packet.tcp.seq,
            seq_to_server=packet.tcp.seq,
            ack_to_server=packet.tcp.ack,
        )
        return []  # the offending hello segment is dropped

    def _inject_rsts(
        self,
        ctx: PathContext,
        client_ip: str,
        client_port: int,
        server_ip: str,
        server_port: int,
        seq_to_client: int,
        ack_to_client: int,
        seq_to_server: int,
        ack_to_server: int,
    ) -> None:
        for _ in range(self.rst_count):
            if self.rst_direction in ("client", "both"):
                ctx.inject(
                    make_tcp_packet(
                        src=server_ip,
                        dst=client_ip,
                        sport=server_port,
                        dport=client_port,
                        flags="RA",
                        seq=seq_to_client,
                        ack=ack_to_client,
                    ),
                    toward="client",
                )
            if self.rst_direction in ("server", "both"):
                ctx.inject(
                    make_tcp_packet(
                        src=client_ip,
                        dst=server_ip,
                        sport=client_port,
                        dport=server_port,
                        flags="RA",
                        seq=seq_to_server,
                        ack=ack_to_server,
                    ),
                    toward="server",
                )

