"""The GFW's classic DNS-over-UDP censorship: forged-response injection.

Background §2.1 of the paper: on-path censors "inject DNS lemon responses
to thwart address lookup". This box watches UDP port-53 queries for
censored names and races a forged A record back to the client; stub
resolvers accept the first answer, so lookups resolve to a bogus address.
This is exactly why the paper's DNS workload uses DNS-over-*TCP* — and
with the TCP path also censored (RST injection), server-side strategies
are what make DNS-over-TCP usable again.
"""

from __future__ import annotations

import random
from typing import Optional

from ...apps.dns import build_response, parse_query_name
from ...netsim import PathContext
from ...packets import Packet, make_udp_packet
from ..base import Censor
from ..keywords import KeywordSet

__all__ = ["DNSUDPInjector", "LEMON_ADDRESS"]

#: The bogus address forged responses point to.
LEMON_ADDRESS = "203.0.113.99"


class DNSUDPInjector:
    """Injects forged answers to censored UDP DNS queries.

    UDP DNS messages carry no length prefix; queries are re-framed with
    one so the shared RFC 1035 codec can parse them.
    """

    def __init__(
        self,
        keywords: KeywordSet,
        censor: Censor,
        rng: Optional[random.Random] = None,
        miss_prob: float = 0.001,
        lemon_address: str = LEMON_ADDRESS,
    ) -> None:
        self.keywords = keywords
        self.censor = censor
        self.rng = rng if rng is not None else random.Random(0)
        self.miss_prob = miss_prob
        self.lemon_address = lemon_address
        self.reset()

    def reset(self) -> None:
        """Zero the injection count."""
        self.injections = 0

    def observe(self, packet: Packet, direction: str, ctx: PathContext) -> None:
        """Inspect one UDP packet; inject a lemon response on a match."""
        if direction != "c2s" or packet.udp is None or packet.dport != 53:
            return
        framed = len(packet.load).to_bytes(2, "big") + packet.load
        qname = parse_query_name(framed)
        if qname is None or qname not in self.keywords.dns_names:
            return
        if self.rng.random() < self.miss_prob:
            return
        txid = int.from_bytes(packet.load[:2], "big")
        forged = build_response(qname, txid, address=self.lemon_address)[2:]
        response = make_udp_packet(
            src=packet.dst,
            dst=packet.src,
            sport=packet.dport,
            dport=packet.sport,
            load=forged,
        )
        self.injections += 1
        self.censor.record_censorship(ctx, packet, "dns lemon response")
        ctx.inject(response, toward="client")
