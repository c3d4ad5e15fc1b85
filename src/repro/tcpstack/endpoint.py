"""TCP endpoint state machine.

Implements enough of RFC 793 (plus documented modern-stack deviations) to
reproduce every client/server behaviour the paper's strategies rely on:

- the three-way handshake and **simultaneous open**, including the detail
  that a simultaneous-open SYN+ACK reuses the original SYN's sequence
  number (the GFW resynchronization bug exploited by Strategies 1–3);
- RSTs without ACK being ignored in SYN_SENT (all modern OSes);
- a RST answer to a SYN+ACK with an unacceptable ack number, with the
  client remaining in SYN_SENT (the "induced RST" of Strategies 3–7);
- per-OS handling of payloads on SYN+ACK packets (§7);
- window-driven segmentation of the first request flight (Strategy 8);
- retransmission with exponential backoff and a connection-failure signal
  (how blackholing censors like Iran's manifest to applications).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from ..obs.metrics import Counter
from ..packets import TCP, Packet, make_tcp_packet
from . import states
from .personality import OSPersonality

__all__ = ["TCPEndpoint", "seq_delta"]

_MOD = 1 << 32
_HALF = _MOD >> 1

#: Endpoint-level TCP events, labeled by OS personality. All
#: deterministic: they depend only on the seeded simulation.
_TCP_RETRANSMITS = Counter(
    "repro_tcp_retransmits_total",
    "Segments retransmitted after an RTO fire, by personality and state",
    ("personality", "state"),
)
_TCP_RTO_BACKOFFS = Counter(
    "repro_tcp_rto_backoffs_total",
    "RTO timer fires with unacknowledged data (each doubles the backoff)",
    ("personality",),
)
_TCP_FAILURES = Counter(
    "repro_tcp_failures_total",
    "Connections declared failed, by personality and reason",
    ("personality", "reason"),
)
_TCP_DUP_SEGMENTS = Counter(
    "repro_tcp_dup_segments_total",
    "Fully-duplicate data segments discarded by receivers",
    ("personality",),
)


def seq_delta(a: int, b: int) -> int:
    """Signed difference ``a - b`` in 32-bit sequence space.

    The per-segment paths need no call. ``seq_delta(a, b) == 0`` is
    ``(a - b) % 2**32 == 0``; ``seq_delta(a, b) > 0`` is
    ``(a - b + 2**31) % 2**32 > 2**31``, and ``<= 0`` is its negation.
    ``_flush`` and ``_process_ack`` write these inline.
    """
    return ((a - b + _HALF) % _MOD) - _HALF


class TCPEndpoint:
    """One TCP connection endpoint attached to a host.

    The host supplies the wire (``host.transmit``), the virtual clock
    (``host.scheduler``) and randomness (``host.rng``). Applications set
    the ``on_*`` callbacks and use :meth:`send` / :meth:`close`.
    """

    def __init__(
        self,
        host,
        local_port: int,
        remote_ip: str,
        remote_port: int,
        personality: OSPersonality,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.personality = personality
        self.rng = rng if rng is not None else host.rng
        # Read per segment and per retransmission arm.
        self._window = personality.default_window & 0xFFFF
        self._rto = personality.rto

        self.state = states.CLOSED
        self.iss = 0
        self.irs = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self.rcv_nxt = 0
        self.snd_wnd = 0
        self.peer_wscale: Optional[int] = None
        self.peer_mss = 536

        # Outgoing byte stream; _stream_base is the sequence number of
        # _stream[0] (iss + 1 once the handshake assigns it).
        self._stream = bytearray()
        self._stream_base = 0
        self._fin_queued = False
        self._fin_sent = False

        # Reassembly for incoming data.
        self._ooo: Dict[int, bytes] = {}
        self.received = bytearray()

        self._retx_timer = None
        self._retx_count = 0

        # Server-initiated connection migration (SNI-era evasion): when a
        # passive open sets this, the endpoint accepts the SYN silently
        # and withholds its SYN+ACK for this many virtual seconds — as if
        # the listener had re-bound the flow to a fresh socket and only
        # then answered. A censor whose per-flow tracking window anchors
        # at the first SYN gives up before the handshake ever completes.
        self.accept_delay = 0.0
        self._migrating = False

        # Application callbacks.
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_remote_close: Optional[Callable[[], None]] = None
        self.on_reset: Optional[Callable[[], None]] = None
        self.on_failure: Optional[Callable[[str], None]] = None

        # Observable diagnostics.
        self.established = False
        self.was_reset = False
        self.failure_reason: Optional[str] = None
        self.simultaneous_open_used = False
        self.retransmits_sent = 0
        self.dup_segments_discarded = 0

    # ------------------------------------------------------------------
    # Public API

    def connect(self) -> None:
        """Start an active open (send SYN)."""
        self.iss = self.rng.randrange(1, _MOD)
        self.snd_una = self.iss
        self.snd_nxt = (self.iss + 1) % _MOD
        self._stream_base = self.snd_nxt
        self.state = states.SYN_SENT
        self._emit("S", seq=self.iss, ack=0, options=self._syn_options())
        self._arm_retransmit()

    def accept_syn(self, packet: Packet) -> None:
        """Perform a passive open in response to ``packet`` (a SYN)."""
        self.irs = packet.tcp.seq
        self.rcv_nxt = (packet.tcp.seq + 1) % _MOD
        self._consume_peer_options(packet)
        self.snd_wnd = packet.tcp.window
        self.iss = self.rng.randrange(1, _MOD)
        self.snd_una = self.iss
        self.snd_nxt = (self.iss + 1) % _MOD
        self._stream_base = self.snd_nxt
        self.state = states.SYN_RCVD
        if self.accept_delay > 0:
            # Connection migration: go dark until the re-bound socket
            # answers. Client SYN retransmissions in the interim get no
            # reply either (see _handle_syn_rcvd).
            self._migrating = True
            self.host.scheduler.schedule(self.accept_delay, self._finish_migration)
            return
        self._send_synack()
        self._arm_retransmit()

    def _finish_migration(self) -> None:
        """The migrated socket comes online: emit the withheld SYN+ACK."""
        if self.state != states.SYN_RCVD:
            return
        self._migrating = False
        self._send_synack()
        self._arm_retransmit()

    def send(self, data: bytes) -> None:
        """Queue application data for transmission."""
        if self._fin_queued:
            raise RuntimeError("cannot send after close()")
        self._stream.extend(data)
        if self.state == states.ESTABLISHED:
            self._flush()

    def close(self) -> None:
        """Close the sending side once queued data has been transmitted."""
        self._fin_queued = True
        if self.state in (states.ESTABLISHED, states.CLOSE_WAIT):
            self._flush()

    def abort(self) -> None:
        """Send a RST and drop the connection immediately."""
        if self.state not in (states.CLOSED, states.LISTEN):
            self._emit("RA", seq=self.snd_nxt, ack=self.rcv_nxt)
        self._teardown()

    # ------------------------------------------------------------------
    # Segment processing

    def handle_segment(self, packet: Packet) -> None:
        """Process an incoming segment according to the current state.

        Each state handler reads the segment's flag string once and tests
        its letters directly.
        """
        state = self.state
        if state == states.CLOSED:
            return
        if state == states.SYN_SENT:
            self._handle_syn_sent(packet)
            return
        if state == states.SYN_RCVD:
            self._handle_syn_rcvd(packet)
            return
        self._handle_synchronized(packet)

    # -- SYN_SENT ------------------------------------------------------

    def _handle_syn_sent(self, packet: Packet) -> None:
        tcp = packet.tcp
        flags = tcp.flags
        has_ack = "A" in flags
        acceptable_ack = has_ack and (tcp.ack - self.snd_nxt) % _MOD == 0

        if "R" in flags:
            if not has_ack:
                # RFC 793 would tear the connection down, but every modern
                # OS the paper tested ignores a RST without ACK here.
                if self.personality.ignores_rst_without_ack_in_synsent:
                    return
                self._reset()
                return
            if acceptable_ack:
                self._reset()
            return

        if "S" not in flags:
            return  # anything without SYN or RST is dropped (RFC 793)

        if has_ack:  # SYN+ACK
            if not acceptable_ack:
                # Induced RST: answer with RST seq=SEG.ACK, stay in SYN_SENT.
                if self.personality.rst_on_bad_synack_ack:
                    self._emit("R", seq=tcp.ack, ack=0)
                return
            self._learn_peer_isn(packet)
            self.snd_una = self.snd_nxt
            self._handle_synack_payload(packet)
            self._send_ack()
            self._enter_established()
            self._flush()
            return

        # Simultaneous open: reply with SYN+ACK whose sequence number is
        # still ISS (not incremented) — the detail the GFW's
        # resynchronization state mishandles.
        if not self.personality.supports_simultaneous_open:
            return
        self.simultaneous_open_used = True
        self._learn_peer_isn(packet)
        self.state = states.SYN_RCVD
        self._send_synack()
        self._arm_retransmit()

    def _learn_peer_isn(self, packet: Packet) -> None:
        self.irs = packet.tcp.seq
        self.rcv_nxt = (packet.tcp.seq + 1) % _MOD
        self._consume_peer_options(packet)
        self.snd_wnd = packet.tcp.window

    def _handle_synack_payload(self, packet: Packet) -> None:
        load = packet.tcp.load
        if not load:
            return
        if self.personality.ignores_synack_payload:
            # Linux-derived stacks discard data on a SYN+ACK entirely.
            return
        # Windows/macOS behaviour: the payload is consumed into the stream,
        # desynchronizing the client from the server's real send sequence
        # and corrupting what the application reads (§7).
        self.rcv_nxt = (self.rcv_nxt + len(load)) % _MOD
        self._deliver(load)

    # -- SYN_RCVD ------------------------------------------------------

    def _handle_syn_rcvd(self, packet: Packet) -> None:
        tcp = packet.tcp
        flags = tcp.flags

        if "R" in flags:
            if self._rst_acceptable(tcp.seq):
                self._reset()
            return

        if "A" not in flags:
            if "S" in flags:
                # Duplicate of the SYN we already answered (or a
                # payload-bearing copy, as in Strategy 2): acknowledge the
                # current sequence. A migrating endpoint stays dark — the
                # old socket is gone.
                if (tcp.seq - self.irs) % _MOD == 0 and not self._migrating:
                    self._send_ack()
            return

        if (tcp.ack - self.snd_nxt) % _MOD:
            # Unacceptable ACK in SYN_RCVD elicits a RST (RFC 793).
            self._emit("R", seq=tcp.ack, ack=0)
            return

        self.snd_una = self.snd_nxt
        self.snd_wnd = tcp.window
        self._enter_established()
        if "S" in flags:
            # Peer's simultaneous-open SYN+ACK: acknowledge it so the peer
            # can finish its handshake.
            self._send_ack()
        if tcp.load or "F" in flags:
            self._process_data(tcp, flags)
        self._flush()

    # -- Synchronized states -------------------------------------------

    def _handle_synchronized(self, packet: Packet) -> None:
        tcp = packet.tcp
        flags = tcp.flags

        if "R" in flags:
            if self._rst_acceptable(tcp.seq):
                self._reset()
            return

        if "S" in flags:
            # Duplicate SYN (or SYN+ACK retransmission) in a synchronized
            # state: challenge ACK, and never deliver its payload.
            self._send_ack()
            return

        if "A" not in flags:
            # Null-flag and FIN-only segments carry no ACK and are dropped
            # (Strategies 6 and 11 rely on censors not knowing this).
            return

        self._process_ack(tcp.ack, tcp.window)
        if tcp.load or "F" in flags:
            self._process_data(tcp, flags)

    def _process_ack(self, ack: int, window: int) -> None:
        # seq_delta(ack, snd_una) > 0 and seq_delta(ack, snd_nxt) <= 0.
        snd_nxt = self.snd_nxt
        if (
            (ack - self.snd_una + _HALF) % _MOD > _HALF
            and (ack - snd_nxt + _HALF) % _MOD <= _HALF
        ):
            self.snd_una = ack
            self._retx_count = 0
            all_acked = (ack - snd_nxt) % _MOD == 0
            if self._fin_sent and all_acked:
                if self.state == states.FIN_WAIT_1:
                    self.state = states.FIN_WAIT_2
                elif self.state == states.LAST_ACK:
                    self._teardown()
                    return
            if all_acked:
                self._cancel_retransmit()
            else:
                self._arm_retransmit()
        self.snd_wnd = window
        self._flush()

    def _process_data(self, tcp: TCP, flags: str) -> None:
        seq = tcp.seq
        data = tcp.load
        fin = "F" in flags

        if data:
            offset = seq_delta(self.rcv_nxt, seq)
            if offset < 0:
                # Future data: stash out-of-order, ask for what we expect.
                self._ooo[seq % _MOD] = bytes(data)
                self._send_ack()
                return
            if offset > 0:
                if offset >= len(data):
                    # Entirely old bytes — a retransmission (or an
                    # impairment duplicate) of data already delivered.
                    # Discard, but still ACK below so the sender stops.
                    self.dup_segments_discarded += 1
                    _TCP_DUP_SEGMENTS.inc(personality=self.personality.name)
                    data = b""
                else:
                    data = data[offset:]
            if data:
                self.rcv_nxt = (self.rcv_nxt + len(data)) % _MOD

        fin_in_order = False
        if fin:
            expected_fin_seq = (seq + len(tcp.load)) % _MOD
            fin_in_order = (expected_fin_seq - self.rcv_nxt) % _MOD == 0
            if fin_in_order:
                self.rcv_nxt = (self.rcv_nxt + 1) % _MOD
                if self.state == states.ESTABLISHED:
                    self.state = states.CLOSE_WAIT
                elif self.state in (states.FIN_WAIT_1, states.FIN_WAIT_2):
                    self.state = states.TIME_WAIT

        # ACK before delivering to the application, so app-triggered
        # responses appear after the ACK on the wire (as real stacks do).
        self._send_ack()
        if data:
            self._deliver(data)
            self._drain_ooo()
        if fin_in_order and self.on_remote_close:
            self.on_remote_close()

    def _drain_ooo(self) -> None:
        while self._ooo:
            data = self._ooo.pop(self.rcv_nxt % _MOD, None)
            if data is None:
                return
            self.rcv_nxt = (self.rcv_nxt + len(data)) % _MOD
            self._deliver(data)

    def _deliver(self, data: bytes) -> None:
        self.received.extend(data)
        if self.on_data:
            self.on_data(data)

    # ------------------------------------------------------------------
    # Transmission

    def _syn_options(self) -> list:
        options = [("mss", self.personality.mss)]
        if self.personality.window_scale:
            options.append(("wscale", self.personality.window_scale))
        options.append(("sackok", None))
        return options

    def _send_synack(self) -> None:
        self._emit(
            "SA", seq=self.iss, ack=self.rcv_nxt, options=self._syn_options()
        )

    def _send_ack(self) -> None:
        self._emit("A", self.snd_nxt, self.rcv_nxt)

    def _emit(
        self,
        flags: str,
        seq: int,
        ack: int,
        load: bytes = b"",
        options: Optional[list] = None,
    ) -> None:
        host = self.host
        host.transmit(
            make_tcp_packet(
                host.ip, self.remote_ip, self.local_port, self.remote_port,
                flags, seq % _MOD, ack % _MOD, load, self._window,
                options=options,
            )
        )

    def _flush(self) -> None:
        state = self.state
        if state != states.ESTABLISHED and state != states.CLOSE_WAIT:
            return
        # Nothing below runs a peer's segment, so the send window, the
        # stream and snd_una hold still while this flush sends.
        stream = self._stream
        base = self._stream_base
        snd_una = self.snd_una
        snd_nxt = self.snd_nxt
        window = self.snd_wnd << (self.peer_wscale or 0)
        sent_any = False
        while True:
            pending_offset = (snd_nxt - base + _HALF) % _MOD - _HALF
            pending = len(stream) - pending_offset
            if pending_offset < 0 or pending <= 0:
                break
            inflight = (snd_nxt - snd_una + _HALF) % _MOD - _HALF
            available = window - inflight
            if available <= 0:
                if window == 0 and inflight == 0:
                    # Zero-window persist probe: send one byte so the peer
                    # re-advertises its window (RFC 1122 §4.2.2.17).
                    available = 1
                else:
                    break
            size = min(self.peer_mss, available, pending)
            chunk = bytes(stream[pending_offset : pending_offset + size])
            self._emit("PA", snd_nxt, self.rcv_nxt, chunk)
            snd_nxt = self.snd_nxt = (snd_nxt + size) % _MOD
            sent_any = True
        if (
            self._fin_queued
            and not self._fin_sent
            and (snd_nxt - base + _HALF) % _MOD - _HALF >= len(stream)
        ):
            self._emit("FA", snd_nxt, self.rcv_nxt)
            snd_nxt = self.snd_nxt = (snd_nxt + 1) % _MOD
            self._fin_sent = True
            self.state = (
                states.LAST_ACK if state == states.CLOSE_WAIT else states.FIN_WAIT_1
            )
            sent_any = True
        # seq_delta(snd_nxt, snd_una) > 0: data or FIN is in flight.
        if sent_any or (snd_nxt - snd_una + _HALF) % _MOD > _HALF:
            self._arm_retransmit()

    # ------------------------------------------------------------------
    # Retransmission

    def _arm_retransmit(self) -> None:
        timer = self._retx_timer
        if timer is not None:
            timer.cancel()
        self._retx_timer = self.host.scheduler.schedule(
            self._rto * (2 ** min(self._retx_count, 6)), self._on_rto
        )

    def _cancel_retransmit(self) -> None:
        if self._retx_timer is not None:
            self._retx_timer.cancel()
            self._retx_timer = None

    def _retx_limit(self) -> int:
        """Retransmission budget for the current state (per-OS)."""
        if self.state == states.SYN_SENT:
            return self.personality.syn_retries
        if self.state == states.SYN_RCVD:
            return self.personality.synack_retries
        return self.personality.data_retries

    def _on_rto(self) -> None:
        self._retx_timer = None
        if self.state == states.CLOSED:
            return
        nothing_outstanding = (
            self.state in (states.ESTABLISHED, states.CLOSE_WAIT)
            and (self.snd_nxt - self.snd_una) % _MOD == 0
        )
        if nothing_outstanding:
            return
        self._retx_count += 1
        _TCP_RTO_BACKOFFS.inc(personality=self.personality.name)
        if self._retx_count > self._retx_limit():
            self._fail("retransmission limit exceeded")
            return
        self.retransmits_sent += 1
        _TCP_RETRANSMITS.inc(personality=self.personality.name, state=self.state)
        if self.state == states.SYN_SENT:
            self._emit("S", seq=self.iss, ack=0, options=self._syn_options())
        elif self.state == states.SYN_RCVD:
            self._send_synack()
        else:
            self._retransmit_data()
        self._arm_retransmit()

    def _retransmit_data(self) -> None:
        start = seq_delta(self.snd_una, self._stream_base)
        end = seq_delta(self.snd_nxt, self._stream_base)
        if self._fin_sent:
            end -= 1
        if start < 0 or end <= start:
            if self._fin_sent:
                self._emit("FA", seq=(self.snd_nxt - 1) % _MOD, ack=self.rcv_nxt)
            return
        size = min(self.peer_mss, end - start)
        chunk = bytes(self._stream[start : start + size])
        self._emit("PA", seq=self.snd_una, ack=self.rcv_nxt, load=chunk)

    # ------------------------------------------------------------------
    # Teardown helpers

    def _rst_acceptable(self, seq: int) -> bool:
        window = self.personality.default_window
        delta = seq_delta(seq, self.rcv_nxt)
        return 0 <= delta < max(window, 1)

    def _enter_established(self) -> None:
        if self.established:
            return
        self.state = states.ESTABLISHED
        self.established = True
        self._cancel_retransmit()
        self._retx_count = 0
        if self.on_established:
            self.on_established()

    def _reset(self) -> None:
        self.was_reset = True
        self._teardown()
        if self.on_reset:
            self.on_reset()

    def _fail(self, reason: str) -> None:
        _TCP_FAILURES.inc(personality=self.personality.name, reason=reason)
        self.failure_reason = reason
        self._teardown()
        if self.on_failure:
            self.on_failure(reason)

    def _teardown(self) -> None:
        self.state = states.CLOSED
        self._cancel_retransmit()
        self.host.forget_endpoint(self)

    # ------------------------------------------------------------------

    def _consume_peer_options(self, packet: Packet) -> None:
        mss = packet.tcp.get_option("mss")
        if mss:
            self.peer_mss = int(mss)
        wscale = packet.tcp.get_option("wscale")
        self.peer_wscale = int(wscale) if wscale is not None else None

    def __repr__(self) -> str:
        return (
            f"TCPEndpoint({self.host.ip}:{self.local_port} <-> "
            f"{self.remote_ip}:{self.remote_port} {self.state})"
        )
