"""Unit tests for one GFW protocol box: TCB, resync rules, DPI, teardown.

Deterministic profiles (event probabilities of 0 or 1) isolate each rule.
"""

import random

import pytest

from repro.censors import CHINA_KEYWORDS, Censor, match_http
from repro.censors.gfw.box import (
    MODE_IGNORED,
    MODE_RESYNC,
    MODE_TRACKING,
    ProtocolBox,
)
from repro.censors.gfw.profiles import (
    EVENT_CORRUPT_ACK,
    EVENT_RST,
    BoxProfile,
)
from repro.packets import make_tcp_packet

CLIENT = "10.1.0.2"
SERVER = "192.0.2.10"
CPORT = 40000
SPORT = 80


class FakeCtx:
    """Minimal PathContext stand-in collecting injections."""

    def __init__(self):
        self.now = 0.0
        self.injected = []

    def inject(self, packet, toward):
        self.injected.append((packet, toward))

    def record(self, kind, packet=None, detail=""):
        pass

    def schedule(self, delay, callback):
        raise AssertionError("boxes do not schedule")


def make_box(**profile_overrides):
    profile_overrides.setdefault("miss_prob", 0.0)
    profile = BoxProfile(
        protocol="http",
        event_probs=profile_overrides.pop("event_probs", {}),
        combo_probs=profile_overrides.pop("combo_probs", {}),
        **profile_overrides,
    )
    censor = Censor()
    return ProtocolBox(profile, CHINA_KEYWORDS, match_http, random.Random(1), censor), FakeCtx()


def c2s(flags="A", seq=1001, ack=5001, load=b""):
    return make_tcp_packet(CLIENT, SERVER, CPORT, SPORT, flags=flags, seq=seq, ack=ack, load=load)


def s2c(flags="SA", seq=5000, ack=1001, load=b""):
    return make_tcp_packet(SERVER, CLIENT, SPORT, CPORT, flags=flags, seq=seq, ack=ack, load=load)


FORBIDDEN = b"GET /?q=ultrasurf HTTP/1.1\r\nHost: x\r\n\r\n"


def handshake(box, ctx):
    box.observe(c2s("S", seq=1000, ack=0), "c2s", ctx)
    box.observe(s2c("SA"), "s2c", ctx)
    box.observe(c2s("A"), "c2s", ctx)
    return list(box.flows.values())[0]


class TestTracking:
    def test_tcb_created_on_syn(self):
        box, ctx = make_box()
        box.observe(c2s("S", seq=1000, ack=0), "c2s", ctx)
        tcb = list(box.flows.values())[0]
        assert tcb.client_isn == 1000
        assert tcb.client_next == 1001
        assert tcb.mode == MODE_TRACKING

    def test_fails_open_without_tcb(self):
        """No SYN seen: the forbidden request passes uninspected (§6)."""
        box, ctx = make_box()
        box.observe(c2s("PA", load=FORBIDDEN), "c2s", ctx)
        assert ctx.injected == []

    def test_censors_forbidden_request(self):
        box, ctx = make_box()
        tcb = handshake(box, ctx)
        box.observe(c2s("PA", load=FORBIDDEN), "c2s", ctx)
        assert len(ctx.injected) == 2
        towards = {toward for _, toward in ctx.injected}
        assert towards == {"client", "server"}
        assert tcb.mode == MODE_IGNORED

    def test_injected_rst_seq_numbers(self):
        box, ctx = make_box()
        handshake(box, ctx)
        box.observe(c2s("PA", load=FORBIDDEN), "c2s", ctx)
        to_client = next(p for p, t in ctx.injected if t == "client")
        to_server = next(p for p, t in ctx.injected if t == "server")
        assert to_client.tcp.seq == 5001  # server's next sequence number
        assert to_server.tcp.seq == 1001 + len(FORBIDDEN)

    def test_benign_request_passes(self):
        box, ctx = make_box()
        handshake(box, ctx)
        box.observe(c2s("PA", load=b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\n"), "c2s", ctx)
        assert ctx.injected == []

    def test_desynced_data_invisible(self):
        """Strict sequence matching: off-by-one data is never inspected."""
        box, ctx = make_box()
        handshake(box, ctx)
        box.observe(c2s("PA", seq=1000, load=FORBIDDEN), "c2s", ctx)  # seq off by -1
        assert ctx.injected == []

    def test_miss_probability_flow_never_censored(self):
        box, ctx = make_box(miss_prob=1.0)
        handshake(box, ctx)
        box.observe(c2s("PA", load=FORBIDDEN), "c2s", ctx)
        assert ctx.injected == []

    def test_reassembly_catches_split_keyword(self):
        box, ctx = make_box()
        handshake(box, ctx)
        box.observe(c2s("PA", seq=1001, load=FORBIDDEN[:10]), "c2s", ctx)
        box.observe(c2s("PA", seq=1011, load=FORBIDDEN[10:]), "c2s", ctx)
        assert len(ctx.injected) == 2  # reassembled and censored

    def test_no_reassembly_misses_split_keyword(self):
        box, ctx = make_box(reassembly_fail_prob=1.0)
        handshake(box, ctx)
        box.observe(c2s("PA", seq=1001, load=FORBIDDEN[:10]), "c2s", ctx)
        box.observe(c2s("PA", seq=1011, load=FORBIDDEN[10:]), "c2s", ctx)
        assert ctx.injected == []


class TestTeardown:
    def test_valid_client_rst_deletes_tcb(self):
        box, ctx = make_box()
        tcb = handshake(box, ctx)
        box.observe(c2s("R", seq=1001, ack=0), "c2s", ctx)
        assert tcb.mode == MODE_IGNORED
        box.observe(c2s("PA", load=FORBIDDEN), "c2s", ctx)
        assert ctx.injected == []

    @pytest.mark.parametrize(
        "offset, torn_down", [(1, True), (65535, True), (65536, False)]
    )
    def test_client_rst_window_edges(self, offset, torn_down):
        """A client RST anywhere in the 64 KiB window past ``client_next``
        tears the TCB down; one a byte beyond it does not."""
        box, ctx = make_box()
        tcb = handshake(box, ctx)
        box.observe(c2s("R", seq=tcb.client_next + offset, ack=0), "c2s", ctx)
        assert (tcb.mode == MODE_IGNORED) is torn_down

    def test_out_of_window_client_rst_ignored(self):
        box, ctx = make_box()
        tcb = handshake(box, ctx)
        box.observe(c2s("R", seq=999_999_999, ack=0), "c2s", ctx)
        assert tcb.mode == MODE_TRACKING

    def test_server_rst_does_not_delete_tcb(self):
        """§3's core finding: server packets are processed differently."""
        box, ctx = make_box()  # rst resync prob 0: nothing happens at all
        tcb = handshake(box, ctx)
        box.observe(s2c("R", seq=5001), "s2c", ctx)
        assert tcb.mode == MODE_TRACKING
        box.observe(c2s("PA", load=FORBIDDEN), "c2s", ctx)
        assert len(ctx.injected) == 2  # still censored


class TestResync:
    def test_rst_triggers_resync_on_next_client_packet(self):
        box, ctx = make_box(event_probs={EVENT_RST: 1.0})
        box.observe(c2s("S", seq=1000, ack=0), "c2s", ctx)
        box.observe(s2c("R"), "s2c", ctx)
        tcb = list(box.flows.values())[0]
        assert tcb.mode == MODE_RESYNC
        # Client's simultaneous-open SYN+ACK reuses seq 1000: the box
        # resynchronizes one byte behind the real stream.
        box.observe(c2s("SA", seq=1000, ack=9001), "c2s", ctx)
        assert tcb.mode == MODE_TRACKING
        assert tcb.client_next == 1000
        box.observe(c2s("PA", seq=1001, load=FORBIDDEN), "c2s", ctx)
        assert ctx.injected == []  # desynchronized: not censored

    def test_resync_capture_on_rst_is_not_teardown(self):
        """Strategy 7's probe: the box syncs onto the induced RST."""
        box, ctx = make_box(event_probs={EVENT_RST: 1.0})
        box.observe(c2s("S", seq=1000, ack=0), "c2s", ctx)
        box.observe(s2c("R"), "s2c", ctx)
        tcb = list(box.flows.values())[0]
        box.observe(c2s("R", seq=777_777, ack=0), "c2s", ctx)  # induced RST
        assert tcb.mode == MODE_TRACKING
        assert tcb.client_next == 777_777
        # Re-sequencing the request onto the RST restores censorship.
        box.observe(c2s("PA", seq=777_777, load=FORBIDDEN), "c2s", ctx)
        assert len(ctx.injected) == 2

    def test_payload_rule_resyncs_on_server_synack(self):
        """Rule 1 + Strategy 6: capture from the corrupted SYN+ACK's ack."""
        from repro.censors.gfw.profiles import EVENT_PAYLOAD_OTHER

        box, ctx = make_box(event_probs={EVENT_PAYLOAD_OTHER: 1.0})
        box.observe(c2s("S", seq=1000, ack=0), "c2s", ctx)
        box.observe(s2c("F", load=b"\x01\x02\x03"), "s2c", ctx)
        tcb = list(box.flows.values())[0]
        assert tcb.mode == MODE_RESYNC
        box.observe(s2c("SA", ack=0xBAD), "s2c", ctx)
        assert tcb.mode == MODE_TRACKING
        assert tcb.client_next == 0xBAD

    def test_corrupt_ack_rule(self):
        box, ctx = make_box(event_probs={EVENT_CORRUPT_ACK: 1.0})
        box.observe(c2s("S", seq=1000, ack=0), "c2s", ctx)
        box.observe(s2c("SA", ack=0xBAD), "s2c", ctx)
        tcb = list(box.flows.values())[0]
        assert tcb.mode == MODE_RESYNC

    def test_combo_probability_applies(self):
        from repro.censors.gfw.profiles import EVENT_SYN

        box, ctx = make_box(
            event_probs={},
            combo_probs={(EVENT_CORRUPT_ACK, EVENT_SYN): 1.0},
        )
        box.observe(c2s("S", seq=1000, ack=0), "c2s", ctx)
        box.observe(s2c("SA", ack=0xBAD), "s2c", ctx)  # records corrupt_ack
        tcb = list(box.flows.values())[0]
        assert tcb.mode == MODE_TRACKING  # base prob 0
        box.observe(s2c("S", seq=5000, ack=0), "s2c", ctx)  # combo fires
        assert tcb.mode == MODE_RESYNC

    def test_post_handshake_server_data_is_not_an_anomaly(self):
        """FTP/SMTP banners after the handshake must not re-trigger resync."""
        from repro.censors.gfw.profiles import EVENT_PAYLOAD_OTHER

        box, ctx = make_box(event_probs={EVENT_PAYLOAD_OTHER: 1.0})
        tcb = handshake(box, ctx)
        box.observe(s2c("PA", seq=5001, load=b"220 hello\r\n"), "s2c", ctx)
        assert tcb.mode == MODE_TRACKING


class TestResidual:
    def test_residual_kill_after_censorship(self):
        box, ctx = make_box(residual_duration=90.0)
        handshake(box, ctx)
        box.observe(c2s("PA", load=FORBIDDEN), "c2s", ctx)
        assert len(ctx.injected) == 2
        ctx.injected.clear()
        ctx.now = 30.0
        # Fresh connection (new client port) to the same server:port.
        syn = make_tcp_packet(CLIENT, SERVER, CPORT + 1, SPORT, flags="S", seq=2000)
        box.observe(syn, "c2s", ctx)
        ack = make_tcp_packet(CLIENT, SERVER, CPORT + 1, SPORT, flags="A", seq=2001, ack=1)
        box.observe(ack, "c2s", ctx)
        assert len(ctx.injected) == 2  # torn down right after the handshake

    def test_residual_expires(self):
        box, ctx = make_box(residual_duration=90.0)
        handshake(box, ctx)
        box.observe(c2s("PA", load=FORBIDDEN), "c2s", ctx)
        ctx.injected.clear()
        ctx.now = 120.0
        syn = make_tcp_packet(CLIENT, SERVER, CPORT + 1, SPORT, flags="S", seq=2000)
        box.observe(syn, "c2s", ctx)
        ack = make_tcp_packet(CLIENT, SERVER, CPORT + 1, SPORT, flags="A", seq=2001, ack=1)
        box.observe(ack, "c2s", ctx)
        assert ctx.injected == []

    def test_no_residual_without_configuration(self):
        box, ctx = make_box()  # residual_duration = 0
        handshake(box, ctx)
        box.observe(c2s("PA", load=FORBIDDEN), "c2s", ctx)
        ctx.injected.clear()
        syn = make_tcp_packet(CLIENT, SERVER, CPORT + 1, SPORT, flags="S", seq=2000)
        box.observe(syn, "c2s", ctx)
        ack = make_tcp_packet(CLIENT, SERVER, CPORT + 1, SPORT, flags="A", seq=2001, ack=1)
        box.observe(ack, "c2s", ctx)
        assert ctx.injected == []
