"""The Great Firewall: five colocated per-protocol censorship boxes.

§6's finding, made executable: the GFW is *not* one monolithic DPI engine
but a set of per-application boxes, each individually tracking every TCP
connection until it recognizes its own protocol. All boxes observe every
packet (censorship is not port-based), and each reacts — or fails — with
its own network-stack bugs. A TCP-level server-side strategy therefore
confuses *some* boxes and not others, which is exactly why Table 2's
success rates are application-dependent.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

from ...netsim import DIRECTION_C2S, PathContext
from ...packets import Packet
from ..base import Censor
from ..dpi import match_dns, match_ftp, match_http, match_https, match_smtp
from ..keywords import CHINA_KEYWORDS, KeywordSet
from .box import MODE_IGNORED, ProtocolBox
from .dnsudp import DNSUDPInjector
from .profiles import CHINA_PROFILES, BoxProfile

__all__ = ["GreatFirewall", "MATCHERS"]

#: DPI matcher per protocol box.
MATCHERS = {
    "dns": match_dns,
    "ftp": match_ftp,
    "http": match_http,
    "https": match_https,
    "smtp": match_smtp,
}


class GreatFirewall(Censor):
    """On-path multi-box censor modelling China's GFW.

    Args:
        rng: Randomness source (drives resync-entry and DPI-miss draws).
        keywords: Censored keyword sets (defaults to the paper's triggers).
        protocols: Which boxes to instantiate (default: all five). §6's
            experiments compare single-box and multi-box configurations.
        profiles: Profile overrides, for ablation experiments.
        validate_checksums: The real GFW does *not* validate TCP checksums
            (which is what makes insertion packets possible); setting this
            True is an ablation that ignores corrupted packets.
    """

    name = "gfw"

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        keywords: KeywordSet = CHINA_KEYWORDS,
        protocols: Optional[Iterable[str]] = None,
        profiles: Optional[Dict[str, BoxProfile]] = None,
        validate_checksums: bool = False,
        max_flows_per_box: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.validate_checksums = validate_checksums
        self.max_flows_per_box = max_flows_per_box
        rng = rng if rng is not None else random.Random(0)
        profiles = profiles if profiles is not None else CHINA_PROFILES
        names = list(protocols) if protocols is not None else list(CHINA_PROFILES)
        self.boxes: Dict[str, ProtocolBox] = {}
        for protocol in names:
            self.boxes[protocol] = ProtocolBox(
                profile=profiles[protocol],
                keywords=keywords,
                matcher=MATCHERS[protocol],
                rng=rng,
                censor=self,
                max_flows=max_flows_per_box,
            )
        #: Forged-response injection for DNS-over-UDP (§2.1 background).
        self.dns_udp = DNSUDPInjector(keywords, censor=self, rng=rng)

    def process(self, packet: Packet, direction: str, ctx: PathContext) -> List[Packet]:
        """All boxes observe every packet; the GFW always forwards (on-path).

        The packet is decoded once — addresses, ports, flow key and flag
        string — and each box runs its step on the decoded segment, in
        profile order: every box opens a TCB on a client SYN; otherwise
        each box holding a live TCB for the flow takes a client or server
        step, by its own TCB's notion of which end is the client.
        """
        if self.validate_checksums and not packet.checksums_ok():
            return [packet]  # ablation: corrupted packets never inspected
        tcp = packet.tcp
        if tcp is None:
            self.dns_udp.observe(packet, direction, ctx)
            return [packet]
        ip = packet.ip
        src = ip.src
        dst = ip.dst
        sport = tcp.sport
        dport = tcp.dport
        if (src, sport) <= (dst, dport):  # flow_key's canonical order
            key = (src, sport, dst, dport)
        else:
            key = (dst, dport, src, sport)
        flags = tcp.flags
        if direction == DIRECTION_C2S and "S" in flags and "A" not in flags:
            seq = tcp.seq
            for box in self.boxes.values():
                box.open_flow(key, src, sport, dst, dport, seq, ctx)
            return [packet]
        for box in self.boxes.values():
            tcb = box.flows.get(key)
            if tcb is None or tcb.mode == MODE_IGNORED:
                continue  # no TCB: the box fails open
            if src == tcb.client_ip and sport == tcb.client_port:
                box.client_step(tcb, packet, tcp, flags, ctx)
            else:
                box.server_step(tcb, packet, tcp, flags, ctx)
        return [packet]

    def box(self, protocol: str) -> ProtocolBox:
        """Access one protocol box (for assertions in experiments)."""
        return self.boxes[protocol]

    def reset(self) -> None:
        """Clear all per-flow state (keeps calibration and RNG stream)."""
        for box in self.boxes.values():
            box.flows.clear()
            box.residual.clear()
            box.censor_count = 0
        self.censorship_events = 0
