"""From-scratch TCP endpoint stack with per-OS behaviour profiles.

Public surface:

- :class:`~repro.tcpstack.host.Host` — a simulated host with connection
  demux, checksum validation, and packet-filter hook points.
- :class:`~repro.tcpstack.endpoint.TCPEndpoint` — the connection state
  machine (handshake, simultaneous open, induced RSTs, segmentation,
  retransmission).
- :class:`~repro.tcpstack.personality.OSPersonality` and
  :data:`~repro.tcpstack.personality.PERSONALITIES` — §7's OS matrix.
"""

from . import states
from .endpoint import TCPEndpoint, seq_delta
from .host import Host, PacketFilter
from .personality import (
    PERSONALITIES,
    SERVER_PERSONALITY,
    OSPersonality,
    all_personality_names,
    personality,
)

__all__ = [
    "Host",
    "OSPersonality",
    "PERSONALITIES",
    "PacketFilter",
    "SERVER_PERSONALITY",
    "TCPEndpoint",
    "all_personality_names",
    "personality",
    "seq_delta",
    "states",
]
