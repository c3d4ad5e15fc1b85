"""Cellular carrier middleboxes (§7's anecdotal network-compatibility tests).

The paper found that all strategies worked over wifi, but the
simultaneous-open strategies failed on cellular networks — Strategies 1
and 3 on T-Mobile, and Strategies 1, 2 and 3 on AT&T — speculating that
in-network middleboxes were responsible. We model carrier boxes that
filter server-originated SYN packets (a plausible anti-spoofing NAT
behaviour) with exactly the selectivity needed to reproduce the observed
pattern: T-Mobile's box drops only *bare* server SYNs (so Strategy 2's
payload-bearing SYN still gets through), while AT&T's drops every server
SYN.
"""

from __future__ import annotations

from typing import List

from ..netsim import DIRECTION_S2C, Middlebox, PathContext
from ..packets import Packet

__all__ = ["CarrierNATBox", "tmobile_box", "att_box", "wifi_box"]


class CarrierNATBox(Middlebox):
    """A cellular carrier NAT that filters anomalous server packets."""

    def __init__(
        self,
        name: str = "carrier",
        drop_bare_server_syn: bool = False,
        drop_any_server_syn: bool = False,
    ) -> None:
        self.name = name
        self.drop_bare_server_syn = drop_bare_server_syn
        self.drop_any_server_syn = drop_any_server_syn
        self.reset()

    def process(self, packet: Packet, direction: str, ctx: PathContext) -> List[Packet]:
        """Drop the server SYNs this carrier filters; forward the rest."""
        if packet.tcp is None:
            return [packet]  # TCP censorship only
        if direction == DIRECTION_S2C and packet.tcp.is_syn and not packet.tcp.is_ack:
            if self.drop_any_server_syn or (
                self.drop_bare_server_syn and not packet.tcp.load
            ):
                self.dropped += 1
                ctx.record("drop", packet, "carrier NAT filtered server SYN")
                return []
        return [packet]

    def reset(self) -> None:
        """Zero the dropped-packet count."""
        self.dropped = 0


def tmobile_box() -> CarrierNATBox:
    """T-Mobile model: filters bare server SYNs (breaks Strategies 1 and 3)."""
    return CarrierNATBox(name="t-mobile", drop_bare_server_syn=True)


def att_box() -> CarrierNATBox:
    """AT&T model: filters all server SYNs (breaks Strategies 1, 2 and 3)."""
    return CarrierNATBox(name="att", drop_any_server_syn=True)


def wifi_box() -> CarrierNATBox:
    """Plain wifi: no interference (all strategies work)."""
    return CarrierNATBox(name="wifi")
