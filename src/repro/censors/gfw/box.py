"""One GFW protocol censorship box: TCB tracking, resync state, DPI.

Implements the paper's refined model of the GFW's per-flow machinery:

- a TCB is created when the box sees a client SYN (the GFW explicitly
  determines which host initiated the connection and processes the two
  directions differently — §3);
- DPI runs only on client payload bytes whose sequence number matches the
  box's tracked expectation *exactly*; a one-byte desynchronization makes
  the forbidden request invisible (the bug behind Strategies 1–7);
- handshake anomalies from the *server* probabilistically put the box
  into a resynchronization state whose capture target depends on which
  anomaly triggered it (§5.1's rules 1–3);
- when the box resynchronizes on a client packet it assumes the sequence
  number has already been incremented — so a simultaneous-open SYN+ACK
  (whose sequence number has *not* advanced) desynchronizes it by one;
- a valid RST from the *client* deletes the TCB (the classic client-side
  TCB-teardown channel — which is why §3's client-side strategies worked
  from the client but their server-side analogs do not);
- boxes never fail closed: flows without a TCB are ignored.

A box's per-packet work is three steps — :meth:`ProtocolBox.open_flow`
on a client SYN, else :meth:`~ProtocolBox.client_step` or
:meth:`~ProtocolBox.server_step` on a live TCB — that take the packet
already decoded. The GFW decodes each packet once and hands it to all
five boxes; :meth:`ProtocolBox.observe` decodes it for one standalone
box and runs the same steps.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from ...netsim import DIRECTION_C2S, PathContext
from ...obs import metrics as _metrics
from ...obs.metrics import Counter
from ...packets import TCP, Packet
from ..base import Censor, FlowKey, flow_key
from ..keywords import KeywordSet
from .profiles import (
    EVENT_CORRUPT_ACK,
    EVENT_PAYLOAD_OTHER,
    EVENT_PAYLOAD_SYN,
    EVENT_RST,
    EVENT_SYN,
    EVENT_SYNACK_PAYLOAD,
    RESYNC_ON_CLIENT,
    RESYNC_ON_SYNACK_OR_CLIENT_ACK,
    RESYNC_TARGETS,
    BoxProfile,
)

__all__ = ["ProtocolBox", "FlowTCB"]

MODE_TRACKING = "tracking"
MODE_RESYNC = "resync"
MODE_IGNORED = "ignored"

_WINDOW = 65536
_MOD = 1 << 32

#: §5.1 resync-state entries, by protocol box and the anomaly event that
#: fired. Deterministic: draws come from the trial's seeded RNG.
_RESYNC_EVENTS = Counter(
    "repro_gfw_resync_total",
    "GFW box resynchronization-state entries, by protocol and trigger",
    ("protocol", "event"),
)
#: Residual-censorship timers armed after a censorship verdict.
_RESIDUAL_TIMERS = Counter(
    "repro_gfw_residual_timers_total",
    "Residual-censorship timers armed on (server, port) endpoints",
    ("protocol",),
)

#: Verdict function: payload bytes -> None (not mine) / False / True.
Matcher = Callable[[bytes, KeywordSet], Optional[bool]]


class FlowTCB:
    """Per-flow transmission control block inside one censorship box.

    Built from the decoded client SYN: the client's address, port and
    initial sequence number, and the server's address and port.
    """

    def __init__(
        self,
        client_ip: str,
        client_port: int,
        server_ip: str,
        server_port: int,
        isn: int,
        miss: bool,
        can_reassemble: bool,
    ) -> None:
        self.client_ip = client_ip
        self.client_port = client_port
        self.server_ip = server_ip
        self.server_port = server_port
        self.client_isn = isn
        self.client_next = (isn + 1) % _MOD
        self.server_next = 0
        self.mode = MODE_TRACKING
        self.resync_target = ""
        self.in_handshake = True
        self.anomalies: list = []
        self.miss = miss
        self.can_reassemble = can_reassemble
        self.buffer = bytearray()
        self.residual_kill = False


class ProtocolBox:
    """One of the GFW's per-protocol censorship engines.

    Sequence numbers are compared modulo 2**32: ``(a - b) % 2**32 == 0``
    is equality in sequence space.

    Attributes:
        profile: The box's calibrated quirk profile.
        keywords: Censored keyword sets for DPI.
        censor_count: Censorship actions taken this trial.
    """

    def __init__(
        self,
        profile: BoxProfile,
        keywords: KeywordSet,
        matcher: Matcher,
        rng: random.Random,
        censor: Censor,
        max_flows: Optional[int] = None,
    ) -> None:
        self.profile = profile
        self.keywords = keywords
        self.matcher = matcher
        self.rng = rng
        self.censor = censor
        #: TCB capacity: "maintaining a TCB on a per-flow basis is
        #: challenging at scale, and thus on-path censors naturally take
        #: several shortcuts" (§2.1). When bounded, the oldest flow is
        #: evicted — which makes state-exhaustion an evasion vector.
        self.max_flows = max_flows
        self.reset()

    def reset(self) -> None:
        """Drop every TCB and residual timer; zero the counters."""
        self.flows: Dict[FlowKey, FlowTCB] = {}
        self.residual: Dict[Tuple[str, int], float] = {}
        self.censor_count = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def observe(
        self,
        packet: Packet,
        direction: str,
        ctx: PathContext,
        key: Optional[FlowKey] = None,
    ) -> None:
        """Process one on-path TCP packet (never drops; may inject).

        Decodes the packet and runs the step the GFW runs for each of its
        boxes. ``key`` is the packet's undirected flow key, computed here
        when omitted.
        """
        ip = packet.ip
        tcp = packet.tcp
        src = ip.src
        sport = tcp.sport
        if key is None:
            key = flow_key(packet)
        flags = tcp.flags
        if direction == DIRECTION_C2S and "S" in flags and "A" not in flags:
            self.open_flow(key, src, sport, ip.dst, tcp.dport, tcp.seq, ctx)
            return
        tcb = self.flows.get(key)
        if tcb is None or tcb.mode == MODE_IGNORED:
            return  # no TCB: the box fails open
        if src == tcb.client_ip and sport == tcb.client_port:
            self.client_step(tcb, packet, tcp, flags, ctx)
        else:
            self.server_step(tcb, packet, tcp, flags, ctx)

    def open_flow(
        self,
        key: FlowKey,
        client_ip: str,
        client_port: int,
        server_ip: str,
        server_port: int,
        isn: int,
        ctx: PathContext,
    ) -> None:
        """Create (or replace) the flow's TCB on a client SYN.

        Draws the flow's DPI miss and reassembly failure from the box's
        RNG, in that order, and evicts the oldest flows first when the
        table is full.
        """
        rng = self.rng
        profile = self.profile
        miss = rng.random() < profile.miss_prob
        can_reassemble = not (rng.random() < profile.reassembly_fail_prob)
        tcb = FlowTCB(
            client_ip, client_port, server_ip, server_port, isn, miss, can_reassemble
        )
        expiry = self.residual.get((server_ip, server_port))
        if expiry is not None and ctx.now < expiry:
            tcb.residual_kill = True
        flows = self.flows
        if self.max_flows is not None and key not in flows:
            while len(flows) >= self.max_flows:
                del flows[next(iter(flows))]
                self.evictions += 1
        flows[key] = tcb

    # ------------------------------------------------------------------
    # Server-direction processing (anomaly events, resync capture)

    def server_step(
        self, tcb: FlowTCB, packet: Packet, tcp: TCP, flags: str, ctx: PathContext
    ) -> None:
        """Process a server-to-client segment of a live flow.

        ``tcp`` is ``packet``'s segment and ``flags`` its flag string.
        """
        synack = "S" in flags and "A" in flags

        # Resync capture on a server SYN+ACK (rule 1's first option): the
        # box trusts the SYN+ACK's ack number as the client's next sequence
        # number — Strategy 6 hands it a corrupted one.
        if (
            synack
            and tcb.mode == MODE_RESYNC
            and tcb.resync_target == RESYNC_ON_SYNACK_OR_CLIENT_ACK
        ):
            tcb.client_next = tcp.ack
            tcb.server_next = (tcp.seq + 1) % _MOD
            tcb.mode = MODE_TRACKING
            return

        # Classify the handshake anomaly, if any.
        load = tcp.load
        event = None
        if "R" in flags:
            event = EVENT_RST
        elif not tcb.in_handshake:
            # Once the client has sent data, ordinary server responses are
            # normal traffic, not handshake anomalies.
            pass
        elif synack:
            if load:
                event = EVENT_SYNACK_PAYLOAD
            elif (tcp.ack - tcb.client_isn - 1) % _MOD:
                event = EVENT_CORRUPT_ACK
        elif "S" in flags:
            event = EVENT_PAYLOAD_SYN if load else EVENT_SYN
        elif load:
            event = EVENT_PAYLOAD_OTHER

        if event is None:
            # Ordinary server traffic: track the server's sequence number.
            if synack:
                tcb.server_next = (tcp.seq + 1) % _MOD
                return
            if load and (tcp.seq - tcb.server_next) % _MOD == 0:
                tcb.server_next = (tcb.server_next + len(load)) % _MOD
            if "F" in flags:
                tcb.server_next = (tcb.server_next + 1) % _MOD
            return
        fired = self._draw(event, tcb)
        tcb.anomalies.append(event)
        if fired and tcb.mode == MODE_TRACKING:
            tcb.mode = MODE_RESYNC
            tcb.resync_target = RESYNC_TARGETS[event]
            if _metrics.COLLECTING:
                _RESYNC_EVENTS.inc(protocol=self.profile.protocol, event=event)

    def _draw(self, event: str, tcb: FlowTCB) -> bool:
        """Whether ``event`` puts the box into resync.

        One draw per non-zero probability — the event's own, then each
        combination with a prior anomaly — stopping at the first hit.
        """
        profile = self.profile
        rng = self.rng
        p = profile.event_probs.get(event, 0.0)
        if p > 0 and rng.random() < p:
            return True
        combo_probs = profile.combo_probs
        for prior in tcb.anomalies:
            p = combo_probs.get((prior, event), 0.0)
            if p > 0 and rng.random() < p:
                return True
        return False

    # ------------------------------------------------------------------
    # Client-direction processing (resync capture, teardown, DPI)

    def client_step(
        self, tcb: FlowTCB, packet: Packet, tcp: TCP, flags: str, ctx: PathContext
    ) -> None:
        """Process a client-to-server segment of a live flow.

        ``tcp`` is ``packet``'s segment and ``flags`` its flag string.
        """
        if tcb.mode == MODE_RESYNC:
            target = tcb.resync_target
            qualifies = target == RESYNC_ON_CLIENT or (
                target == RESYNC_ON_SYNACK_OR_CLIENT_ACK and "A" in flags
            )
            if not qualifies:
                return
            # The resynchronization bug: the box takes the packet's sequence
            # number at face value, assuming any handshake increment already
            # happened. A simultaneous-open SYN+ACK (seq == ISN) or an
            # induced RST (seq == the corrupted ack) desynchronizes it.
            tcb.client_next = tcp.seq
            tcb.mode = MODE_TRACKING
            if "R" in flags:
                # The box synchronized onto this RST (Strategy 7's probe
                # confirms this); it does not also treat it as a teardown.
                return
            # Fall through: the capture packet itself is inspected below.

        if "R" in flags:
            if (tcp.seq - tcb.client_next) % _MOD < _WINDOW:
                # Valid client RST: the box deletes the TCB and ignores the
                # flow from here on (the classic client-side teardown).
                tcb.mode = MODE_IGNORED
            return

        if "A" in flags:
            if tcb.residual_kill:
                self._censor(tcb, packet, ctx, reason="residual censorship")
                return
            # A client packet with ACK set completes the handshake from the
            # box's perspective; later server payloads are normal traffic.
            tcb.in_handshake = False
        load = tcp.load
        if not load:
            return
        if (tcp.seq - tcb.client_next) % _MOD:
            return  # strict sequence matching: desynced data is invisible
        tcb.client_next = (tcb.client_next + len(load)) % _MOD
        if tcb.can_reassemble:
            tcb.buffer.extend(load)
            verdict = self.matcher(bytes(tcb.buffer), self.keywords)
        else:
            verdict = self.matcher(bytes(load), self.keywords)
        if verdict is True and not tcb.miss:
            self._censor(tcb, packet, ctx, reason=f"{self.profile.protocol} keyword")

    # ------------------------------------------------------------------

    def _censor(self, tcb: FlowTCB, packet: Packet, ctx: PathContext, reason: str) -> None:
        self.censor_count += 1
        self.censor.record_censorship(ctx, packet, reason)
        self.censor.inject_rst_pair(
            ctx,
            client_ip=tcb.client_ip,
            client_port=tcb.client_port,
            server_ip=tcb.server_ip,
            server_port=tcb.server_port,
            seq_to_client=tcb.server_next,
            seq_to_server=tcb.client_next,
            ack_to_client=tcb.client_next,
            ack_to_server=tcb.server_next,
        )
        tcb.mode = MODE_IGNORED
        if self.profile.residual_duration > 0:
            self.residual[(tcb.server_ip, tcb.server_port)] = (
                ctx.now + self.profile.residual_duration
            )
            _RESIDUAL_TIMERS.inc(protocol=self.profile.protocol)
