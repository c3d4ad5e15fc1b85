"""Shared censor plumbing: flow keys, injection helpers, event counting.

All censors are :class:`~repro.netsim.Middlebox` subclasses. On-path
censors (GFW, India) forward everything and inject; in-path censors
(Iran's blackholing, Kazakhstan's MITM) may also drop.
"""

from __future__ import annotations

from typing import Tuple

from ..netsim import DIRECTION_C2S, Middlebox, PathContext
from ..obs.metrics import Counter
from ..packets import Packet, make_tcp_packet

__all__ = ["Censor", "flow_key", "client_oriented_key"]

#: Every censorship action, by censor and stated reason. Deterministic:
#: verdicts depend only on the spec and seed, never on wall time.
_CENSOR_VERDICTS = Counter(
    "repro_censor_verdicts_total",
    "Censorship actions taken, by censor and reason",
    ("censor", "reason"),
)

FlowKey = Tuple[str, int, str, int]


def flow_key(packet: Packet) -> FlowKey:
    """Undirected flow key (canonical ordering of the two endpoints).

    Hot path: called for every packet a censor observes, so the layers
    are read directly instead of through the Packet convenience
    properties (each property is a Python-level call).
    """
    ip = packet.ip
    transport = packet.tcp
    if transport is None:
        transport = packet.udp
    src = ip.src
    dst = ip.dst
    sport = transport.sport
    dport = transport.dport
    if (src, sport) <= (dst, dport):
        return (src, sport, dst, dport)
    return (dst, dport, src, sport)


def client_oriented_key(client_ip: str, client_port: int, server_ip: str, server_port: int) -> FlowKey:
    """Flow key from explicit client/server endpoints."""
    a = (client_ip, client_port)
    b = (server_ip, server_port)
    first, second = (a, b) if a <= b else (b, a)
    return (first[0], first[1], second[0], second[1])


class Censor(Middlebox):
    """Base class for censor middleboxes.

    Attributes:
        censorship_events: Count of censorship actions taken this trial.

    Per-run state is set in :meth:`reset` and nowhere else: ``__init__``
    calls it once the configuration is in place, and a world that is
    re-seeded for its next trial calls it again. A subclass with state
    of its own extends :meth:`reset` and calls the base version.
    """

    name = "censor"

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Clear per-run state: zero the censorship-action count."""
        self.censorship_events = 0

    # ------------------------------------------------------------------
    # Injection helpers

    def inject_rst_pair(
        self,
        ctx: PathContext,
        client_ip: str,
        client_port: int,
        server_ip: str,
        server_port: int,
        seq_to_client: int,
        seq_to_server: int,
        ack_to_client: int = 0,
        ack_to_server: int = 0,
    ) -> None:
        """Inject teardown RSTs to both endpoints (on-path censorship)."""
        to_client = make_tcp_packet(
            src=server_ip,
            dst=client_ip,
            sport=server_port,
            dport=client_port,
            flags="RA",
            seq=seq_to_client,
            ack=ack_to_client,
        )
        to_server = make_tcp_packet(
            src=client_ip,
            dst=server_ip,
            sport=client_port,
            dport=server_port,
            flags="RA",
            seq=seq_to_server,
            ack=ack_to_server,
        )
        ctx.inject(to_client, toward="client")
        ctx.inject(to_server, toward="server")

    def record_censorship(self, ctx: PathContext, packet: Packet, reason: str) -> None:
        """Count and trace a censorship action."""
        self.censorship_events += 1
        _CENSOR_VERDICTS.inc(censor=self.name, reason=reason)
        ctx.record("censor", packet, reason)

    @staticmethod
    def is_client_to_server(direction: str) -> bool:
        """Whether a packet travels from the in-country client outward."""
        return direction == DIRECTION_C2S
