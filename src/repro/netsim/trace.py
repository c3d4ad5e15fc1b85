"""Packet traces for experiments and waterfall rendering.

A :class:`Trace` collects every observable event in a trial — packets sent
and received by the endpoints, censor injections, and drops — with virtual
timestamps. The waterfall renderer in :mod:`repro.eval.waterfall` consumes
these to regenerate the paper's Figure 1 / Figure 2 diagrams.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional

from ..packets import Packet

__all__ = ["Trace", "TraceEvent", "NullTrace", "RingTrace"]


@dataclass
class TraceEvent:
    """One observable event in a trial.

    Attributes:
        time: Virtual timestamp of the event.
        kind: ``"send"``, ``"recv"``, ``"inject"``, ``"drop"``,
            ``"censor"``, or one of the impairment kinds ``"loss"``,
            ``"dup"``, ``"reorder"``, ``"corrupt"`` (see
            :mod:`repro.netsim.impairment`).
        location: Where it happened (host, middlebox, or link name).
        packet: The packet involved, if any (a defensive copy).
        detail: Free-form annotation (drop reason, censor verdict, ...).
    """

    time: float
    kind: str
    location: str
    packet: Optional[Packet] = None
    detail: str = ""

    def summary(self) -> str:
        """One-line human-readable rendering of this event."""
        packet = f" {self.packet!r}" if self.packet is not None else ""
        detail = f" ({self.detail})" if self.detail else ""
        return f"[{self.time:9.4f}] {self.kind:>6} @{self.location}{packet}{detail}"


@dataclass
class Trace:
    """An append-only log of :class:`TraceEvent` items.

    ``recording`` (a class attribute) says whether :meth:`record` keeps
    anything; per-packet call sites test it and skip the call, and the
    building of its arguments, when it is false.
    """

    events: List[TraceEvent] = field(default_factory=list)
    recording: ClassVar[bool] = True

    def record(
        self,
        time: float,
        kind: str,
        location: str,
        packet: Optional[Packet] = None,
        detail: str = "",
    ) -> None:
        """Append an event, defensively copying the packet."""
        copied = packet.copy() if packet is not None else None
        self.events.append(TraceEvent(time, kind, location, copied, detail))

    def filter(self, kind: Optional[str] = None, location: Optional[str] = None) -> List[TraceEvent]:
        """Return events matching the given kind and/or location."""
        result = self.events
        if kind is not None:
            result = [event for event in result if event.kind == kind]
        if location is not None:
            result = [event for event in result if event.location == location]
        return list(result)

    def digest(self) -> str:
        """SHA-256 over the full event stream (bit-identity comparisons).

        Covers timestamps, kinds, locations, details, and exact packet
        wire bytes, so two traces share a digest only when every
        observable detail of the two trials matched.
        """
        hasher = hashlib.sha256()
        for event in self.events:
            wire = event.packet.serialize().hex() if event.packet is not None else "-"
            line = f"{event.time:.9f}|{event.kind}|{event.location}|{event.detail}|{wire}\n"
            hasher.update(line.encode("utf-8"))
        return hasher.hexdigest()

    def __len__(self) -> int:
        return len(self.events)

    def dump(self) -> str:
        """Render the whole trace as text, one event per line."""
        return "\n".join(event.summary() for event in self.events)


class NullTrace(Trace):
    """A trace that records nothing.

    Used by rate-only trials (``Trial(capture_trace=False)``): every
    :meth:`record` call — and in particular its per-event defensive
    packet copy — becomes a no-op, and because nothing retains packet
    references the trial's run recycles packets through the arena
    (:mod:`repro.packets.pool`). ``events`` stays an empty list, so all
    read-side methods (filter/digest/dump) work and report emptiness.
    """

    recording: ClassVar[bool] = False

    def record(
        self,
        time: float,
        kind: str,
        location: str,
        packet: Optional[Packet] = None,
        detail: str = "",
    ) -> None:
        """Discard the event."""


class RingTrace(Trace):
    """A bounded trace retaining only the most recent events.

    Fleet mode hosts thousands of flows in one world; a full
    :class:`Trace` per flow would accumulate unbounded packet copies.
    The ring keeps the last ``capacity`` events — enough tail to debug a
    verdict — and discards the rest. Because it *does* retain (copied)
    packets, a ring-traced flow is not eligible for arena pooling, same
    rule as a full trace.

    ``digest()`` covers only the retained window, so it is a diagnostic
    fingerprint, not the bit-identity digest of the whole flow; use a
    full :class:`Trace` (fleet ``trace="full"``) for equivalence checks.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.events = deque(maxlen=capacity)  # type: ignore[assignment]
        self.dropped = 0

    def record(
        self,
        time: float,
        kind: str,
        location: str,
        packet: Optional[Packet] = None,
        detail: str = "",
    ) -> None:
        """Append an event, evicting the oldest once at capacity."""
        if len(self.events) == self.capacity:
            self.dropped += 1
        copied = packet.copy() if packet is not None else None
        self.events.append(TraceEvent(time, kind, location, copied, detail))

    def filter(self, kind: Optional[str] = None, location: Optional[str] = None) -> List[TraceEvent]:
        """Return retained events matching the given kind/location."""
        result = list(self.events)
        if kind is not None:
            result = [event for event in result if event.kind == kind]
        if location is not None:
            result = [event for event in result if event.location == location]
        return result
