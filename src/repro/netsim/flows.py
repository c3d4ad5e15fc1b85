"""Multi-flow plumbing for fleet-mode worlds.

A classic :class:`~repro.eval.runner.Trial` builds one world per
connection: one scheduler, one two-endpoint network, one censor. Fleet
mode (:mod:`repro.fleet`) keeps a *single* long-lived world in which one
deployed server handles thousands of concurrent client flows. Three
pieces make that possible without touching single-flow semantics:

- :class:`FlowHandle` — per-flow bookkeeping: the flow's trace, its
  optional packet-arena lease, and a count of the flow's events that can
  still run (queued and not cancelled).
- :class:`FlowScheduler` — a :class:`~repro.netsim.events.Scheduler`
  whose heap entries carry the flow that scheduled them. Event ordering
  is byte-identical to the base scheduler (same ``(when, counter)``
  keys); the tag only adds per-flow accounting, per-flow packet-arena
  activation around each callback, and the ability to *retire* a flow —
  once a handle is closed its remaining events are skipped, exactly as a
  ``Trial``'s post-``max_time`` events never run. Cancelling a flow's
  timer uncounts it at once, and whenever a flow's count reaches zero
  the scheduler's single :attr:`~FlowScheduler.on_drain` hook is told:
  nothing of that flow can run any more, so its owner may finalize and
  recycle it without waiting for its horizon.
- :class:`FlowRouter` — stands in as the deployed server host's
  ``network``: outbound server packets are routed to the per-flow
  :class:`~repro.netsim.network.Network` owning the destination client,
  and trace records are demultiplexed to that flow's trace, so each
  flow's trace reads exactly like a single-flow trial's.

The single-flow-equivalence suite (``tests/fleet``) pins the guarantee
this module is built around: a fleet world containing exactly one flow
produces bit-identical verdicts and trace digests to today's
per-connection path.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Optional

from ..packets import Packet
from ..packets import pool as _pool
from .events import Scheduler, Timer
from .network import Network, NetworkNode
from .trace import NullTrace, Trace

__all__ = ["FlowHandle", "FlowRouter", "FlowScheduler"]


class FlowHandle:
    """Book-keeping for one flow living inside a shared world.

    Attributes:
        index: The flow's global index in the arrival stream.
        client_ip: The flow's client address (routing/demux key).
        trace: The flow's trace (``NullTrace`` / ``RingTrace`` / ``Trace``).
        arena: Packet-arena lease active during this flow's events, or
            ``None``. Only legal with a :class:`NullTrace` (a recording
            trace would retain recycled packets) — same rule as
            :func:`repro.packets.pool.pooled`.
        pending: Number of this flow's events that can still run: queued
            in the heap and not cancelled. It reaches zero exactly when
            nothing of the flow is left to run.
        closed: Once set, remaining events are skipped (the flow's clock
            has ended, like a trial reaching ``max_time``).
    """

    __slots__ = ("index", "client_ip", "trace", "arena", "pending", "closed")

    def __init__(
        self,
        index: int,
        client_ip: str,
        trace: Optional[Trace] = None,
        arena=None,
    ) -> None:
        self.index = index
        self.client_ip = client_ip
        self.trace = trace if trace is not None else NullTrace()
        self.arena = arena
        self.pending = 0
        self.closed = False

    def __repr__(self) -> str:
        state = "closed" if self.closed else "live"
        return f"FlowHandle(#{self.index} {self.client_ip} {state} pending={self.pending})"


class _FlowTimer(Timer):
    """A flow-tagged timer: cancelling it uncounts it from its flow at once.

    The heap entry holds the timer, which is called in place of the
    callback it holds. Cancelling drops that callback, so a cancelled
    timer (say the 8 s application timer) pins nothing of its flow's
    world until its fire time. ``_flow`` is cleared when the timer pops
    or is cancelled, so an entry is uncounted exactly once however often
    :meth:`cancel` is called.
    """

    __slots__ = ("_scheduler", "_flow", "_callback")

    def __init__(
        self, scheduler: "FlowScheduler", flow: FlowHandle, callback: Callable[[], None]
    ) -> None:
        self.cancelled = False
        self._scheduler = scheduler
        self._flow = flow
        self._callback = callback

    def __call__(self) -> None:
        self._callback()

    def cancel(self) -> None:
        """Prevent the callback from firing and stop counting it as live."""
        self.cancelled = True
        self._callback = None
        flow = self._flow
        if flow is not None:
            self._flow = None
            self._scheduler._uncount(flow)


class FlowScheduler(Scheduler):
    """A scheduler whose events know which flow scheduled them.

    Every entry is a 6-tuple ``(when, counter, timer, callback, args,
    flow)``; ``flow`` is whatever :attr:`current` was when the entry was
    pushed (``None`` for world-level events), and a flow-tagged timer
    stands in its own callback slot. Ordering is identical to
    the base scheduler — the same ``(when, counter)`` sort keys drive the
    heap — so a world with one flow replays the exact event sequence of a
    single-flow trial.

    Around each flow-tagged callback the scheduler binds the flow: it
    becomes :attr:`current` (so events it schedules inherit the tag) and
    its arena lease, if any, becomes the active packet arena. Closed
    flows' events are skipped without executing.

    Attributes:
        current: The flow whose event is running, or ``None``.
        on_drain: Called with a flow's handle whenever its
            :attr:`FlowHandle.pending` count reaches zero — after the
            flow's current event returns, or at once when a timer is
            cancelled from outside the flow's own events.
    """

    def __init__(self) -> None:
        super().__init__()
        self.on_drain: Optional[Callable[[FlowHandle], None]] = None

    def reset(self) -> None:
        """Empty the queue, rewind the clock and unbind the current flow."""
        super().reset()
        self.current: Optional[FlowHandle] = None

    # ------------------------------------------------------------------
    # Scheduling (tagging variants of the base API)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` after ``delay``, tagged with the current flow."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        flow = self.current
        if flow is None:
            timer = Timer()
        else:
            timer = callback = _FlowTimer(self, flow, callback)
            flow.pending += 1
        heapq.heappush(
            self._queue,
            (self.now + delay, self._counter, timer, callback, (), flow),
        )
        self._counter += 1
        return timer

    def schedule_at(self, when: float, callback: Callable, args: tuple = ()) -> None:
        """Schedule at absolute ``when``, tagged with the current flow."""
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        flow = self.current
        heapq.heappush(
            self._queue, (when, self._counter, None, callback, args, flow)
        )
        self._counter += 1
        if flow is not None:
            flow.pending += 1

    def schedule_at_in(
        self,
        flow: Optional[FlowHandle],
        when: float,
        callback: Callable,
        args: tuple = (),
    ) -> None:
        """Schedule an event explicitly tagged for ``flow``.

        Used for flow admission: the arrival event must already belong
        to the flow so the entire causal chain it starts — connect
        timers, packet hops, retransmissions — inherits the tag. With
        ``flow=None`` the event is world-level even when queued from
        inside a flow's event, and no flow counts it.
        """
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(
            self._queue, (when, self._counter, None, callback, args, flow)
        )
        self._counter += 1
        if flow is not None:
            flow.pending += 1

    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Drain the queue with per-flow binding (base semantics otherwise)."""
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        while queue and executed < max_events:
            entry = queue[0]
            when = entry[0]
            if until is not None and when > until:
                break
            pop(queue)
            timer = entry[2]
            if timer is not None and timer.cancelled:
                # A cancelled timer was uncounted when it was cancelled.
                continue
            flow = entry[5]
            if flow is not None:
                if timer is not None:
                    timer._flow = None
                flow.pending -= 1
                if flow.closed:
                    # The flow's clock has ended: drop the event unrun
                    # (a single-flow trial never runs post-max_time
                    # events either).
                    if flow.pending == 0:
                        self._drained(flow)
                    continue
            if when > self.now:
                self.now = when
            if flow is None:
                entry[3](*entry[4])
            else:
                previous = self.current
                self.current = flow
                previous_arena = _pool._ACTIVE
                _pool._ACTIVE = flow.arena
                try:
                    entry[3](*entry[4])
                finally:
                    self.current = previous
                    _pool._ACTIVE = previous_arena
                if flow.pending == 0:
                    self._drained(flow)
            executed += 1
        if until is not None and (not queue or queue[0][0] > until):
            self.now = max(self.now, until)
        return executed

    def _uncount(self, flow: FlowHandle) -> None:
        """A live entry of ``flow`` was cancelled: lower its count."""
        flow.pending -= 1
        # Inside the flow's own event the check waits until that event
        # returns (``run`` makes it), so the hook never interrupts it.
        if flow.pending == 0 and flow is not self.current:
            self._drained(flow)

    def _drained(self, flow: FlowHandle) -> None:
        if self.on_drain is not None:
            self.on_drain(flow)


class _RouterTrace:
    """Demultiplexes the server host's trace records to per-flow traces.

    The server host records through ``self.network.trace`` (for example
    checksum-validation drops); with a :class:`FlowRouter` as its
    network, those records land on the trace of the flow owning the
    packet's client address, keeping every flow's trace identical to
    what a dedicated single-flow world would have recorded.
    """

    __slots__ = ("_router",)

    def __init__(self, router: "FlowRouter") -> None:
        self._router = router

    def record(
        self,
        time: float,
        kind: str,
        location: str,
        packet: Optional[Packet] = None,
        detail: str = "",
    ) -> None:
        router = self._router
        network = None
        if packet is not None:
            network = router.network_for(packet.src)
            if network is None:
                network = router.network_for(packet.dst)
        trace = network.trace if network is not None else router.world_trace
        trace.record(time, kind, location, packet, detail)


class FlowRouter:
    """The deployed server host's "network": routes by destination flow.

    Duck-types the :class:`~repro.netsim.network.Network` surface a
    :class:`~repro.tcpstack.host.Host` uses (``send_from``, ``trace``,
    ``scheduler``): an outbound server packet is handed to the per-flow
    network registered for its destination address, which walks the
    flow's own middlebox chain (censor included) back to the client.
    Packets for unregistered destinations — stragglers emitted after a
    flow was recycled — are counted and dropped into the world trace.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        server: NetworkNode,
        world_trace: Optional[Trace] = None,
    ) -> None:
        self.scheduler = scheduler
        self.server = server
        self.world_trace = world_trace if world_trace is not None else NullTrace()
        self.trace = _RouterTrace(self)
        self.unrouted = 0
        self._networks: Dict[str, Network] = {}

    def register(self, client_ip: str, network: Network) -> None:
        """Route server packets addressed to ``client_ip`` via ``network``."""
        self._networks[client_ip] = network

    def unregister(self, client_ip: str) -> None:
        """Stop routing to ``client_ip`` (flow recycled)."""
        self._networks.pop(client_ip, None)

    def network_for(self, client_ip: str) -> Optional[Network]:
        """The per-flow network owning ``client_ip``, if registered."""
        return self._networks.get(client_ip)

    def send_from(self, node: Any, packet: Packet) -> None:
        """Transmit a server-originated packet toward its flow's client."""
        network = self._networks.get(packet.dst)
        if network is None:
            self.unrouted += 1
            self.world_trace.record(
                self.scheduler.now, "drop", node.name, packet, "no route to flow"
            )
            return
        network.send_from(node, packet)

    def __len__(self) -> int:
        return len(self._networks)
