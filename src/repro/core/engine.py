"""The strategy engine: applies a Geneva strategy at a host's wire boundary.

This plays the role NetfilterQueue plays for the real tool — it intercepts
every packet between a host's TCP stack and the network and rewrites it
according to the strategy. Installing the engine on the *server* host is
precisely the paper's contribution: server-side evasion with a completely
unmodified client.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional

from ..obs import spans as _spans
from ..obs.metrics import Counter
from ..packets import Packet
from ..tcpstack import Host
from .dsl import Strategy

__all__ = ["StrategyEngine", "install_strategy"]

#: Strategy-engine interventions: outbound packets a trigger actually
#: rewrote (forwarded-unchanged traffic is not counted).
_STRATEGY_INTERCEPTS = Counter(
    "repro_strategy_intercepts_total",
    "Outbound packets modified by an installed strategy",
    ("direction",),
)


class StrategyEngine:
    """Applies one :class:`~repro.core.dsl.Strategy` to a host's traffic.

    Attributes:
        strategy: The strategy being enforced.
        rng: Randomness source for ``corrupt`` tampers (seeded per trial).
        packets_intercepted: Outbound packets that matched a trigger.
    """

    def __init__(self, strategy: Strategy, rng: Optional[random.Random] = None) -> None:
        self._installed = strategy
        self._stateful = strategy.is_stateful()
        self.rng = rng if rng is not None else random.Random(0)
        self.reset()

    def reset(self) -> None:
        """Restart the strategy's state and zero the interception count.

        Stateful strategies (e.g. ``stall``) mutate as they apply; each
        run takes a private copy, so instances shared by the runtime's
        parse cache are never written to and every run starts fresh.
        """
        strategy = self._installed
        self.strategy = strategy.copy() if self._stateful else strategy
        self.packets_intercepted = 0

    def _timed_apply(self, apply, packet: Packet) -> List[Packet]:
        """Run one strategy direction, span-timed only when profiling is on."""
        if _spans.ENABLED:
            t0 = time.perf_counter()
            result = apply(packet, self.rng)
            _spans.add("simulate/strategy", time.perf_counter() - t0)
            return result
        return apply(packet, self.rng)

    def outbound_filter(self, packet: Packet) -> List[Packet]:
        """Filter suitable for :attr:`Host.outbound_filters`."""
        result = self._timed_apply(self.strategy.apply_outbound, packet)
        if len(result) != 1 or result[0] is not packet:
            self.packets_intercepted += 1
            _STRATEGY_INTERCEPTS.inc(direction="outbound")
        return result

    def inbound_filter(self, packet: Packet) -> List[Packet]:
        """Filter suitable for :attr:`Host.inbound_filters`."""
        return self._timed_apply(self.strategy.apply_inbound, packet)


def install_strategy(
    host: Host, strategy: Strategy, rng: Optional[random.Random] = None
) -> StrategyEngine:
    """Attach ``strategy`` to ``host``; returns the engine.

    The engine filters a direction only when that direction's forest has
    an action tree: an empty forest forwards every packet unchanged, so
    its filter would do nothing but cost a call per packet.
    """
    engine = StrategyEngine(strategy, rng)
    if strategy.outbound:
        host.outbound_filters.append(engine.outbound_filter)
    if strategy.inbound:
        host.inbound_filters.append(engine.inbound_filter)
    return engine
