"""The simulated client–path–server network.

Every experiment in the paper uses the same topology: one client (inside
the censoring country), one server (outside), and censoring middleboxes on
the path between them. :class:`Network` models that path as an ordered
middlebox chain with a constant per-hop delay, TTL decrementing (so
TTL-limited insertion packets and censor-localization probes behave
faithfully), and full packet tracing.
"""

from __future__ import annotations

import random
import time
from typing import Optional, Protocol, Sequence, Tuple

from ..obs import spans as _spans
from ..obs.metrics import Counter
from ..packets import Packet
from .events import Scheduler
from .impairment import Impairment, corrupt_payload
from .middlebox import DIRECTION_C2S, DIRECTION_S2C, Middlebox, PathContext
from .trace import Trace

__all__ = ["Network", "NetworkNode"]

#: Wire-level packet events. Prebound per event kind: these fire once
#: per packet, so each increment must stay a single dict operation.
_NET_PACKETS = Counter(
    "repro_net_packets_total",
    "Packets handled by the network path, by event",
    ("event",),  # send | inject | recv | drop
)
_PKT_SEND = _NET_PACKETS.labels(event="send")
_PKT_INJECT = _NET_PACKETS.labels(event="inject")
_PKT_RECV = _NET_PACKETS.labels(event="recv")
_PKT_DROP = _NET_PACKETS.labels(event="drop")

#: Impairment actions actually applied, per kind and direction.
#: Deterministic: draws come from the trial's seeded net RNG.
_IMPAIRMENT_EVENTS = Counter(
    "repro_impairment_events_total",
    "Impairment actions applied on the path, by kind and direction",
    ("kind", "direction"),  # kind: loss | corrupt | reorder | dup
)


class NetworkNode(Protocol):
    """Anything attachable to an end of the network path."""

    ip: str
    name: str

    def receive(self, packet: Packet) -> None:
        """Handle a packet delivered off the wire."""


class Network:
    """A two-endpoint network path with middleboxes.

    Hop numbering: middlebox ``i`` (0-indexed from the client side) sits at
    hop ``i + 1`` from the client; the server is at hop
    ``len(middleboxes) + 1``. A packet with TTL ``t`` sent by the client is
    observed by middleboxes ``0 .. t-1`` and reaches the server only when
    ``t`` exceeds the number of middleboxes — exactly the arithmetic needed
    for TTL-limited insertion packets and §6's censor localization probes.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        client: NetworkNode,
        server: NetworkNode,
        middleboxes: Sequence[Middlebox] = (),
        hop_delay: float = 0.005,
        trace: Optional[Trace] = None,
        impairment: Optional[Impairment] = None,
        net_rng: Optional[random.Random] = None,
    ) -> None:
        self.scheduler = scheduler
        self.client = client
        self.server = server
        #: Fixed at construction: the skip tables below index into it.
        self.middleboxes: Tuple[Middlebox, ...] = tuple(middleboxes)
        self.hop_delay = hop_delay
        self.trace = trace if trace is not None else Trace()
        # A null policy is normalized to None so the hot path stays the
        # exact pre-impairment code (no draws, byte-identical traces).
        if impairment is not None and impairment.is_null():
            impairment = None
        self.impairment = impairment
        self._net_rng = (
            net_rng if net_rng is not None else random.Random(0)
        ) if impairment is not None else None
        self._contexts = [
            PathContext(self, index, getattr(box, "name", f"mb{index}"))
            for index, box in enumerate(self.middleboxes)
        ]
        # Span name per box, precomputed so the per-packet path never
        # re-classifies. Censors are recognized structurally (they all
        # carry a censorship_events counter) to avoid importing the
        # censors package from netsim.
        self._box_spans = [
            "simulate/censor" if hasattr(box, "censorship_events")
            else "simulate/middlebox"
            for box in self.middleboxes
        ]
        # Hop coalescing: inert chain-padding middleboxes are plain
        # base-class instances that forward every packet unchanged, so
        # the walk can jump straight to the next *active* box with one
        # scheduled event instead of one per hop. Impaired paths always
        # walk per-link, because each link draws from the net RNG.
        self._coalesce = impairment is None
        self._build_skip_tables()

    def _build_skip_tables(self) -> None:
        """Precompute the next-active-box index in each direction.

        ``_next_c2s[i]`` is the first active index ``>= i`` (or ``n`` for
        server delivery); ``_next_s2c[i + 1]`` the first active index
        ``<= i`` (or ``-1`` for client delivery). Inert means exactly the
        base :class:`Middlebox` — any subclass is assumed interesting.
        """
        boxes = self.middleboxes
        n = len(boxes)
        active = [type(box) is not Middlebox for box in boxes]
        self._next_c2s = [n] * (n + 1)
        nxt = n
        for i in range(n - 1, -1, -1):
            if active[i]:
                nxt = i
            self._next_c2s[i] = nxt
        self._next_s2c = [-1] * (n + 1)
        prev = -1
        for i in range(n):
            if active[i]:
                prev = i
            self._next_s2c[i + 1] = prev

    # ------------------------------------------------------------------
    # Entry points

    def send_from(self, node: NetworkNode, packet: Packet) -> None:
        """Transmit ``packet`` originating at endpoint ``node``."""
        if node is self.client:
            direction = DIRECTION_C2S
            start = 0
        elif node is self.server:
            direction = DIRECTION_S2C
            start = len(self.middleboxes) - 1
        else:
            raise ValueError(f"unknown endpoint {node!r}")
        _PKT_SEND.inc()
        self.trace.record(self.scheduler.now, "send", node.name, packet)
        self._schedule_hop(packet, direction, start, packet.ip.ttl)

    def inject_from(self, position: int, packet: Packet, toward: str, name: str) -> None:
        """Inject ``packet`` at middlebox ``position`` heading ``toward`` an end."""
        _PKT_INJECT.inc()
        self.trace.record(self.scheduler.now, "inject", name, packet, f"toward {toward}")
        if toward == "server":
            direction = DIRECTION_C2S
            start = position + 1
        elif toward == "client":
            direction = DIRECTION_S2C
            start = position - 1
        else:
            raise ValueError(f"toward must be 'client' or 'server', not {toward!r}")
        self._schedule_hop(packet, direction, start, packet.ip.ttl)

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Advance the simulation (delegates to the scheduler)."""
        return self.scheduler.run(until=until, max_events=max_events)

    # ------------------------------------------------------------------
    # Path walking

    def _schedule_hop(self, packet: Packet, direction: str, index: int, ttl: int) -> None:
        """Schedule ``packet``'s arrival at middlebox ``index`` (or an end).

        An unimpaired path with coalescing on crosses the whole run of
        inert hops from ``index`` with one ``schedule_at`` call, replaying
        the per-hop walk exactly: the arrival time is built by the same
        iterated ``now + hop_delay`` float additions the per-hop recursion
        would perform (timestamps are digest material), TTL is decremented
        once per skipped link, and an expiry *inside* the skipped run
        becomes a drop event at the hop where the per-hop walk would have
        recorded it. Otherwise each link is its own event.
        """
        imp = self.impairment
        if imp is not None and imp.applies(direction):
            self._schedule_impaired_hop(imp, packet, direction, index, ttl)
            return
        if not self._coalesce:
            self.scheduler.schedule(
                self.hop_delay, lambda: self._hop(packet, direction, index, ttl)
            )
            return
        n = len(self.middleboxes)
        if direction == DIRECTION_C2S:
            target = self._next_c2s[index] if index < n else n
            if index + ttl < target:
                steps = ttl + 1
                label = f"hop{index + ttl}"
                target = -2  # sentinel: drop, never reaches a box
            else:
                steps = target - index + 1
        else:
            target = self._next_s2c[index + 1] if index >= 0 else -1
            if index - ttl > target:
                steps = ttl + 1
                label = f"hop{index - ttl}"
                target = -2
            else:
                steps = index - target + 1
        scheduler = self.scheduler
        when = scheduler.now
        delay = self.hop_delay
        for _ in range(steps):
            when += delay
        if target == -2:
            scheduler.schedule_at(when, self._drop_expired, (packet, label))
        else:
            scheduler.schedule_at(
                when, self._hop, (packet, direction, target, ttl - (steps - 1))
            )

    def _drop_expired(self, packet: Packet, label: str) -> None:
        """Record a TTL-expiry drop inside a coalesced run of inert hops."""
        _PKT_DROP.inc()
        self.trace.record(self.scheduler.now, "drop", label, packet, "ttl expired")

    def _schedule_impaired_hop(
        self, imp: Impairment, packet: Packet, direction: str, index: int, ttl: int
    ) -> None:
        """One link traversal under the impairment policy.

        Draw order is fixed (loss, corrupt, jitter, reorder, dup) and
        each knob only consumes a draw when non-zero, so a given policy
        and net seed always replay the same impaired trace.
        """
        rng = self._net_rng
        now = self.scheduler.now
        label = f"link{index}"
        if imp.loss and rng.random() < imp.loss:
            _IMPAIRMENT_EVENTS.inc(kind="loss", direction=direction)
            self.trace.record(now, "loss", label, packet, "impairment: lost")
            return
        if imp.corrupt and packet.load and rng.random() < imp.corrupt:
            packet, offset = corrupt_payload(packet, rng)
            _IMPAIRMENT_EVENTS.inc(kind="corrupt", direction=direction)
            self.trace.record(
                now, "corrupt", label, packet,
                f"impairment: payload bit flipped at offset {offset}",
            )
        delay = self.hop_delay
        if imp.jitter:
            delay += rng.random() * imp.jitter
        if imp.reorder and rng.random() < imp.reorder:
            delay += imp.reorder_delay
            _IMPAIRMENT_EVENTS.inc(kind="reorder", direction=direction)
            self.trace.record(
                now, "reorder", label, packet,
                f"impairment: held back {imp.reorder_delay * 1000:.1f}ms",
            )
        if imp.dup and rng.random() < imp.dup:
            duplicate = packet.copy()
            _IMPAIRMENT_EVENTS.inc(kind="dup", direction=direction)
            self.trace.record(now, "dup", label, duplicate, "impairment: duplicated")
            self.scheduler.schedule(
                delay + imp.dup_spacing,
                lambda: self._hop(duplicate, direction, index, ttl),
            )
        self.scheduler.schedule(delay, lambda: self._hop(packet, direction, index, ttl))

    def _hop(self, packet: Packet, direction: str, index: int, ttl: int) -> None:
        if direction == DIRECTION_C2S:
            if index >= len(self.middleboxes):
                self._deliver(packet, direction, ttl)
                return
            next_index = index + 1
        else:
            if index < 0:
                self._deliver(packet, direction, ttl)
                return
            next_index = index - 1
        if ttl < 1:
            _PKT_DROP.inc()
            self.trace.record(
                self.scheduler.now, "drop", f"hop{index}", packet, "ttl expired"
            )
            return
        box = self.middleboxes[index]
        ctx = self._contexts[index]
        if _spans.ENABLED:
            t0 = time.perf_counter()
            forwarded = list(box.process(packet, direction, ctx))
            _spans.add(self._box_spans[index], time.perf_counter() - t0)
        else:
            forwarded = list(box.process(packet, direction, ctx))
        if not forwarded:
            _PKT_DROP.inc()
            self.trace.record(self.scheduler.now, "drop", ctx.name, packet, "dropped in-path")
            return
        for out in forwarded:
            self._schedule_hop(out, direction, next_index, ttl - 1)

    def _deliver(self, packet: Packet, direction: str, ttl: int) -> None:
        node = self.server if direction == DIRECTION_C2S else self.client
        if ttl < 1:
            _PKT_DROP.inc()
            self.trace.record(self.scheduler.now, "drop", node.name, packet, "ttl expired")
            return
        _PKT_RECV.inc()
        self.trace.record(self.scheduler.now, "recv", node.name, packet)
        if _spans.ENABLED:
            t0 = time.perf_counter()
            node.receive(packet)
            _spans.add("simulate/endpoint", time.perf_counter() - t0)
        else:
            node.receive(packet)
