"""Property test: GFW boxes survive arbitrary packet sequences.

The real GFW processes adversarial traffic continuously; the model must
never raise or leak unbounded state regardless of the flag/seq/payload
soup thrown at it.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.censors import CHINA_KEYWORDS, Censor, match_http
from repro.censors.gfw.box import ProtocolBox
from repro.censors.gfw.profiles import CHINA_PROFILES
from repro.packets import bits_to_flags, make_tcp_packet

CLIENT = "10.1.0.2"
SERVER = "192.0.2.10"


class FuzzCtx:
    now = 0.0

    def __init__(self):
        self.injections = 0

    def inject(self, packet, toward):
        self.injections += 1

    def record(self, *args, **kwargs):
        pass


packet_strategy = st.tuples(
    st.booleans(),                      # direction: client -> server?
    st.integers(0, 255),                # flag bits
    st.integers(0, 2**32 - 1),          # seq
    st.integers(0, 2**32 - 1),          # ack
    st.binary(max_size=40),             # payload
)


@given(st.lists(packet_strategy, min_size=1, max_size=25), st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_box_never_crashes_on_arbitrary_sequences(packets, seed):
    box = ProtocolBox(
        CHINA_PROFILES["http"],
        CHINA_KEYWORDS,
        match_http,
        random.Random(seed),
        Censor(),
    )
    ctx = FuzzCtx()
    for from_client, flag_bits, seq, ack, load in packets:
        if from_client:
            packet = make_tcp_packet(
                CLIENT, SERVER, 41000, 80,
                flags=bits_to_flags(flag_bits), seq=seq, ack=ack, load=load,
            )
            box.observe(packet, "c2s", ctx)
        else:
            packet = make_tcp_packet(
                SERVER, CLIENT, 80, 41000,
                flags=bits_to_flags(flag_bits), seq=seq, ack=ack, load=load,
            )
            box.observe(packet, "s2c", ctx)
    # One 4-tuple in play: at most one TCB, and injections come in pairs.
    assert len(box.flows) <= 1
    assert ctx.injections % 2 == 0


class RecordingCtx(FuzzCtx):
    """A FuzzCtx that keeps every injected packet's wire bytes and heading."""

    def __init__(self):
        super().__init__()
        self.injected = []

    def inject(self, packet, toward):
        super().inject(packet, toward)
        self.injected.append((packet.serialize(), toward))


#: Client ports the multi-flow soup spreads over (three flows in play).
CLIENT_PORTS = (41000, 41001, 41002)

#: (client port, packet_strategy fields): which flow, then the packet.
multiflow_packet_strategy = st.tuples(st.sampled_from(CLIENT_PORTS), packet_strategy)

TCB_FIELDS = (
    "mode",
    "client_next",
    "server_next",
    "in_handshake",
    "anomalies",
    "buffer",
    "residual_kill",
)


def box_state(box):
    """Everything a box's steps can change, in comparable form."""
    return {
        "flows": [
            (key, [getattr(tcb, name) for name in TCB_FIELDS])
            for key, tcb in box.flows.items()
        ],
        "censor_count": box.censor_count,
        "residual": dict(box.residual),
        "evictions": box.evictions,
    }


def soup_packet(port, from_client, flag_bits, seq, ack, load):
    flags = bits_to_flags(flag_bits)
    if from_client:
        packet = make_tcp_packet(
            CLIENT, SERVER, port, 80, flags=flags, seq=seq, ack=ack, load=load
        )
        return packet, "c2s"
    packet = make_tcp_packet(
        SERVER, CLIENT, 80, port, flags=flags, seq=seq, ack=ack, load=load
    )
    return packet, "s2c"


#: Three SYNs, then traffic on the evicted flow and a fresh SYN on it:
#: with two TCBs per box, the first flow's TCB is evicted.
EVICTING_SOUP = [
    (41000, (True, 0x02, 1000, 0, b"")),
    (41001, (True, 0x02, 2000, 0, b"")),
    (41002, (True, 0x02, 3000, 0, b"")),
    (41000, (False, 0x12, 9000, 1001, b"")),
    (41000, (True, 0x18, 1001, 9001, b"GET /?q=ultrasurf HTTP/1.1\r\n\r\n")),
    (41000, (True, 0x02, 1000, 0, b"")),
    (41002, (False, 0x04, 9000, 0, b"")),
    (41002, (True, 0x18, 3001, 9001, b"GET /?q=ultrasurf HTTP/1.1\r\n\r\n")),
]


@given(
    st.lists(multiflow_packet_strategy, min_size=1, max_size=15),
    st.integers(0, 10_000),
    st.sampled_from([None, 2]),
)
@example(EVICTING_SOUP, 7, 2)
@settings(max_examples=60, deadline=None)
def test_all_five_boxes_survive_via_gfw(packets, seed, max_flows):
    """The GFW's decode-once walk matches five standalone boxes exactly.

    The same packet soup, spread over three flows, goes to a five-box
    GreatFirewall and, through ``ProtocolBox.observe`` in profile order,
    to five standalone boxes sharing one identically seeded RNG. Box
    state, injections and the RNG stream must agree packet for packet.
    """
    from repro.censors import GreatFirewall
    from repro.censors.gfw import MATCHERS

    gfw = GreatFirewall(rng=random.Random(seed), max_flows_per_box=max_flows)
    gfw_ctx = RecordingCtx()
    reference_rng = random.Random(seed)
    reference_censor = Censor()
    reference = [
        ProtocolBox(
            CHINA_PROFILES[protocol],
            CHINA_KEYWORDS,
            MATCHERS[protocol],
            reference_rng,
            reference_censor,
            max_flows=max_flows,
        )
        for protocol in CHINA_PROFILES
    ]
    reference_ctx = RecordingCtx()
    assert list(gfw.boxes) == list(CHINA_PROFILES)
    for port, fields in packets:
        packet, direction = soup_packet(port, *fields)
        out = gfw.process(packet, direction, gfw_ctx)
        assert out == [packet]  # on-path: always forwards
        for box in reference:
            box.observe(packet, direction, reference_ctx)
        assert [box_state(box) for box in gfw.boxes.values()] == [
            box_state(box) for box in reference
        ]
        assert gfw_ctx.injected == reference_ctx.injected
    assert gfw.boxes["http"].rng.getstate() == reference_rng.getstate()
    assert gfw.censorship_events == reference_censor.censorship_events
    assert gfw_ctx.injections % 2 == 0
