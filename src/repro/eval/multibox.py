"""§6 / Figure 3: evidence that China runs multiple censorship boxes.

Two experiments:

1. **Protocol dependence** — a strategy that manipulates only the TCP
   handshake should, under a single-box censor, succeed equally across
   application protocols. Measured against the multi-box GFW the success
   rates differ sharply per protocol; against a single-box ablation
   (all five protocols share one network-stack profile) they collapse to
   the same value. This is Figure 3's argument in executable form.

2. **TTL localization** — TTL-limited censored probes locate each
   protocol's censorship box by hop count. The paper found censorship at
   the same hop for every protocol at each vantage point, i.e. the boxes
   are colocated; the default simulated topology colocates them at hop 3.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Optional, Sequence

from ..censors import CHINA_PROFILES, GreatFirewall
from ..core import Strategy, deployed_strategy
from .reference import CHINA_PROTOCOLS
from .runner import Trial, middlebox_chain, run_trial, success_rate

__all__ = [
    "protocol_dependence",
    "single_box_profiles",
    "localize_boxes",
    "format_dependence",
]


def protocol_dependence(
    strategy_number: int = 7,
    trials: int = 150,
    seed: int = 0,
    profiles: Optional[dict] = None,
    protocols: Sequence[str] = CHINA_PROTOCOLS,
) -> Dict[str, float]:
    """Success of one TCP-level strategy across application protocols.

    DNS runs with a single try here so the comparison isolates the
    censorship boxes themselves (RFC 7766 retries would amplify DNS
    independently of any box differences).
    """
    rates: Dict[str, float] = {}
    strategy = deployed_strategy(strategy_number)
    for protocol in protocols:
        successes = 0
        for index in range(trials):
            trial_seed = seed + index * 7919
            censor = None
            if profiles is not None:
                censor = GreatFirewall(
                    rng=random.Random(trial_seed ^ 0x5EED), profiles=profiles
                )
            result = run_trial(
                "china",
                protocol,
                strategy,
                seed=trial_seed,
                censor=censor,
                dns_tries=1,
                capture_trace=False,
            )
            successes += result.succeeded
        rates[protocol] = successes / trials
    return rates


def single_box_profiles(base_protocol: str = "http") -> dict:
    """Ablation: one network stack (``base_protocol``'s) for all five boxes.

    This is the "single censorship box" hypothesis of Figure 3(a): same
    resync bugs, same reassembly ability, same miss rate everywhere. Only
    the DPI matcher differs per protocol.
    """
    base = CHINA_PROFILES[base_protocol]
    return {
        protocol: dataclasses.replace(
            base, protocol=protocol, residual_duration=0.0
        )
        for protocol in CHINA_PROFILES
    }


def forbidden_payload(protocol: str) -> bytes:
    """The raw forbidden query bytes for one protocol (China workloads)."""
    from ..apps.dns import build_query
    from ..apps.tls import build_client_hello

    if protocol == "http":
        return b"GET /?q=ultrasurf HTTP/1.1\r\nHost: example.com\r\n\r\n"
    if protocol == "https":
        return build_client_hello("www.wikipedia.org")
    if protocol == "dns":
        return build_query("www.wikipedia.org", 0x1234)
    if protocol == "ftp":
        return b"RETR ultrasurf.txt\r\n"
    if protocol == "smtp":
        return b"RCPT TO:<xiazai@upup.info>\r\n"
    raise ValueError(f"unknown protocol {protocol!r}")


def localize_boxes(
    protocols: Sequence[str] = CHINA_PROTOCOLS,
    max_ttl: int = 8,
    seed: int = 0,
    censor_hop: int = 3,
    server_hop: int = 10,
) -> Dict[str, Optional[int]]:
    """TTL-limited probe localization of each protocol's censorship box.

    Mirrors the paper's method (§6, after Yadav et al.): complete a normal
    three-way handshake, then send the forbidden query directly with
    incrementing TTLs until the censor reacts. The minimum reacting TTL is
    the box's hop distance (``None`` if it never reacts within
    ``max_ttl``). The GFW's SMTP box censors a bare RCPT and its FTP box a
    bare RETR, so no sign-in dialogue is needed.
    """
    hops: Dict[str, Optional[int]] = {}
    attempts_per_ttl = 6  # DPI is itself flaky (e.g. SMTP misses 26%)
    for protocol in protocols:
        hops[protocol] = None
        payload = forbidden_payload(protocol)
        for ttl in range(1, max_ttl + 1):
            reacted = any(
                _ttl_probe_once(
                    payload,
                    ttl,
                    rng_seed=seed * 31 + ttl * 7 + attempt * 7919,
                    censor_hop=censor_hop,
                    server_hop=server_hop,
                )
                for attempt in range(attempts_per_ttl)
            )
            if reacted:
                hops[protocol] = ttl
                break
    return hops


def _ttl_probe_once(
    payload: bytes, ttl: int, rng_seed: int, censor_hop: int, server_hop: int
) -> bool:
    """One handshake + TTL-limited forbidden query; did the GFW react?"""
    from ..core import install_strategy
    from ..netsim import Network, Scheduler
    from ..tcpstack import Host, SERVER_PERSONALITY, personality

    scheduler = Scheduler()
    client = Host(
        "client",
        "10.1.0.2",
        scheduler,
        random.Random(rng_seed + 1),
        personality("ubuntu-18.04.1"),
    )
    server = Host(
        "server", "192.0.2.10", scheduler, random.Random(rng_seed + 2), SERVER_PERSONALITY
    )
    gfw = GreatFirewall(rng=random.Random(rng_seed))
    network = Network(
        scheduler, client, server, middlebox_chain(gfw, (), censor_hop, server_hop)
    )
    client.attach(network)
    server.attach(network)
    server.listen(9999, lambda ep: None)  # sink: ACKs, never replies

    probe = Strategy.parse(
        f"[TCP:flags:PA]-tamper{{IP:ttl:replace:{ttl}}}-| \\/",
        name=f"ttl-probe-{ttl}",
    )
    install_strategy(client, probe, random.Random(rng_seed + 3))
    endpoint = client.open_connection("192.0.2.10", 9999)
    endpoint.on_established = lambda: endpoint.send(payload)
    endpoint.connect()
    network.run(until=10.0)
    return gfw.censorship_events > 0


def format_dependence(multi: Dict[str, float], single: Dict[str, float]) -> str:
    """Render the multi-box vs single-box comparison."""
    lines = ["Figure 3 — multi-box vs single-box GFW (TCP-level strategy success %)"]
    lines.append(f"{'protocol':<10}{'multi-box':>12}{'single-box':>12}")
    for protocol in sorted(multi):
        lines.append(
            f"{protocol:<10}{multi[protocol] * 100:>11.0f}%"
            f"{single.get(protocol, float('nan')) * 100:>11.0f}%"
        )
    spread_multi = max(multi.values()) - min(multi.values())
    spread_single = max(single.values()) - min(single.values())
    lines.append(
        f"spread: multi-box {spread_multi * 100:.0f} points, "
        f"single-box {spread_single * 100:.0f} points"
    )
    return "\n".join(lines)
