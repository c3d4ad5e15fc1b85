"""Middlebox interface for on-path and in-path network elements.

Censors, cellular carrier boxes, and any other path elements implement
:class:`Middlebox`. The network walks each packet through the middleboxes
between its source and destination; a middlebox may forward, drop, modify,
or inject additional packets via the :class:`PathContext` it is handed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List

from ..packets import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .events import Scheduler
    from .network import Network
    from .trace import Trace

__all__ = ["Middlebox", "PathContext", "DIRECTION_C2S", "DIRECTION_S2C"]

DIRECTION_C2S = "c2s"
DIRECTION_S2C = "s2c"


class PathContext:
    """Capabilities the network grants a middlebox while it processes a packet.

    Provides the virtual clock, timer scheduling, packet injection from the
    middlebox's position on the path, and trace recording.
    """

    def __init__(self, network: "Network", position: int, name: str) -> None:
        self._network = network
        self._position = position
        self.name = name

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._network.scheduler.now

    def schedule(self, delay: float, callback: Callable[[], None]):
        """Schedule a callback on the trial's scheduler."""
        return self._network.scheduler.schedule(delay, callback)

    def inject(self, packet: Packet, toward: str) -> None:
        """Inject ``packet`` from this middlebox's position.

        Args:
            packet: The packet to emit (will be copied).
            toward: ``"client"`` or ``"server"``.
        """
        self._network.inject_from(self._position, packet.copy(), toward, self.name)

    def record(self, kind: str, packet: Packet = None, detail: str = "") -> None:
        """Record an event in the trial's trace."""
        self._network.trace.record(self.now, kind, self.name, packet, detail)


class Middlebox:
    """Base class for path elements.

    Subclasses override :meth:`process`. The default implementation forwards
    every packet unmodified, which is what a plain router does.

    Attributes:
        name: Label used in traces.
    """

    name = "middlebox"

    def process(self, packet: Packet, direction: str, ctx: PathContext) -> Iterable[Packet]:
        """Inspect ``packet`` travelling in ``direction``.

        Returns the packets to forward onward; returning an empty list drops
        the packet (in-path behaviour). On-path elements return
        ``[packet]`` and use ``ctx.inject`` for any responses.
        """
        return [packet]

    def reset(self) -> None:
        """Clear per-run state; called when a middlebox is reused.

        A subclass with per-run state sets it here, and its ``__init__``
        calls this once the configuration is in place.
        """


class TransparentTap(Middlebox):
    """A middlebox that records packets but never interferes.

    Useful in tests to observe what crosses a particular hop.
    """

    name = "tap"

    def __init__(self) -> None:
        self.reset()

    def process(self, packet: Packet, direction: str, ctx: PathContext) -> Iterable[Packet]:
        """Record a copy of ``packet`` and forward it unchanged."""
        self.seen.append(packet.copy())
        return [packet]

    def reset(self) -> None:
        """Forget the recorded packets."""
        self.seen: List[Packet] = []
