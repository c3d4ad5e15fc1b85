"""Mid-path strategy deployment (§8: "Where to Deploy?").

The paper notes the strategies "could be deployed at any point in the
path between the censor and the server" — a reverse proxy or CDN, a
hosting platform, or a TapDance-style middlebox manipulating packets in
flight. :class:`StrategyMiddlebox` is that deployment: a path element
that applies a Geneva strategy to server-to-client packets as they pass.

It must sit between the censor and the server (the transformation has to
be in place before the censor sees the packets); the evaluation topology
places it at a configurable hop.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core import Strategy
from ..netsim import DIRECTION_S2C, Middlebox, PathContext
from ..packets import Packet

__all__ = ["StrategyMiddlebox"]


class StrategyMiddlebox(Middlebox):
    """Applies a server-side strategy to in-flight traffic.

    Attributes:
        strategy: The Geneva strategy to enforce.
        packets_rewritten: Count of packets the strategy transformed.
    """

    name = "strategy-proxy"

    def __init__(self, strategy: Strategy, rng: Optional[random.Random] = None) -> None:
        self._installed = strategy
        self._stateful = strategy.is_stateful()
        self.rng = rng if rng is not None else random.Random(0)
        self.reset()

    def process(self, packet: Packet, direction: str, ctx: PathContext) -> List[Packet]:
        if direction != DIRECTION_S2C:
            # Client-to-server traffic passes untouched; the strategies
            # only manipulate what the server (appears to) send.
            return [packet]
        out = self.strategy.apply_outbound(packet, self.rng)
        if len(out) != 1 or out[0] is not packet:
            self.packets_rewritten += 1
        return out

    def reset(self) -> None:
        """Restart the strategy's state and zero the rewrite count.

        A stateful strategy (``stall``) runs on a private copy, as in
        :class:`~repro.core.engine.StrategyEngine`, so each run starts
        from fresh state and a shared parsed instance is never written.
        """
        strategy = self._installed
        self.strategy = strategy.copy() if self._stateful else strategy
        self.packets_rewritten = 0
