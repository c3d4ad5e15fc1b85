"""The long-lived fleet world: one deployed server, many client flows.

A :class:`FleetWorld` holds a single :class:`~repro.netsim.flows.FlowScheduler`
driving one shared, strategy-deploying server host and an arrival stream
of per-flow world slices. Each admitted flow gets the topology a
:class:`~repro.eval.runner.Trial` builds, from the same helpers in
:mod:`repro.eval.runner` — its own RNG streams, client host, censor
instance and padded middlebox chain (its slice), plus a client app and
a per-flow trace — wired to the *shared* server through a
:class:`~repro.netsim.flows.FlowRouter`.

Single-flow equivalence is the design invariant: for a world with one
flow arriving at t=0, every event (timestamps, RNG draws, trace lines)
is bit-identical to ``Trial(...)`` plus ``install_per_client`` on its
server. The pieces that make that hold with *many* flows:

- per-flow RNG streams come from the trial's own seed split
  (:func:`~repro.eval.runner.trial_rngs`), and admission mirrors the
  server host's construction-time ephemeral-port draw, so sharing one
  server host costs no draws;
- the shared server host's passive endpoints draw from the owning
  flow's server stream (``Host.flow_rng_provider``), and the per-client
  strategy engine applies each flow's strategy with that flow's
  strategy stream (``PerClientEngine.rng_provider``);
- every event touching a flow's objects is tagged with that flow, so a
  flow whose last event has drained can change no more: it is
  finalized and recycled on the spot, and its record is the one its
  deadline would have read;
- a flow still busy at ``arrival + max_time`` freezes there via a
  world-level deadline event re-queued behind every already-scheduled
  event at that instant — the exact inclusive-``until`` semantics of
  ``Trial.run`` — after which the flow is closed: its remaining events
  are skipped (a trial would never have run them) and its state
  recycles when the last of them pops. Arrivals never decrease and
  every flow has the spec's ``max_time``, so admission order is
  deadline order: one deadline event stays armed at the oldest open
  flow's deadline, and a flow retired earlier leaves no entry behind.

Recycling on FIN/RST/timeout: endpoints leave the shared server's demux
table as they close (pruning the server apps' connection lists), and
once a finalized flow has drained the router entry, engine decisions,
and packet-arena lease are all returned. Its slice is reset (client
host, every middlebox) and parked under the flow's shape ``(country,
protocol, client_os)``, holding nothing of the flow. A flow of that
shape is admitted into a parked slice when there is one: its streams
are re-seeded in place from the flow's trial seed
(:func:`~repro.eval.runner.reseed_rngs`, as ``Trial.reseed`` does) and
its client host takes the flow's address and resets again, so the
slice draws what a newly built one would. A shape never has more
slices than it had flows in flight at once.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from ..censors.countries import COUNTRIES
from ..deploy import GeoStrategySelector, PerClientEngine
from ..eval.runner import (
    SERVER_IP,
    default_port,
    install_server_app,
    make_censor,
    make_client_app,
    middlebox_chain,
    reseed_rngs,
    trial_rngs,
)
from ..netsim import Network, NullTrace, RingTrace, Trace
from ..netsim.flows import FlowHandle, FlowRouter, FlowScheduler
from ..obs.metrics import Counter
from ..packets.ipv6 import canonical_ip
from ..packets.pool import PacketArena
from ..runtime.seeds import fleet_stream_seed
from ..tcpstack import Host, SERVER_PERSONALITY, personality
from .spec import FleetSpec, FlowPlan

__all__ = ["FleetWorld", "fleet_selector"]

#: Terminal flow verdicts, labelled like the rest of the repro metrics.
_FLEET_FLOWS = Counter(
    "repro_fleet_flows_total",
    "Fleet flows finalized, by country, protocol, and outcome",
    ("country", "protocol", "outcome"),
)
_FLEET_RECYCLED = Counter(
    "repro_fleet_recycled_total",
    "Fleet flows fully recycled (router/engine/lease state returned)",
)


def fleet_selector() -> GeoStrategySelector:
    """The deployed server's geolocation table: each registered country's
    fleet prefix, with the registry's recommended strategies."""
    selector = GeoStrategySelector()
    for country, profile in COUNTRIES.items():
        selector.add_prefix(f"{profile.fleet_prefix}.0.0/16", country)
    return selector


class _Slice:
    """A flow's world slice: its streams, client host, censor and network.

    Built for a flow from the helpers ``Trial.__init__`` calls; between
    flows of one shape it is parked by :meth:`park` and taken again by
    :meth:`admit`.
    """

    __slots__ = ("rngs", "client_host", "censor", "network")

    def __init__(
        self, plan: FlowPlan, scheduler: FlowScheduler, server: Host, trace: Trace
    ) -> None:
        self.rngs = rngs = trial_rngs(plan.seed)
        self.client_host = Host(
            "client", plan.client_ip, scheduler, rngs.client, personality(plan.client_os)
        )
        self.censor = make_censor(plan.country, rngs.censor)
        self.network = Network(
            scheduler, self.client_host, server, middlebox_chain(self.censor), trace=trace
        )
        self.client_host.attach(self.network)

    def park(self) -> None:
        """Drop the last flow's endpoints, per-run middlebox state and trace."""
        self.client_host.reset()
        for box in self.network.middleboxes:
            box.reset()
        self.network.trace = NullTrace()

    def admit(self, plan: FlowPlan, trace: Trace) -> None:
        """Make this parked slice the one ``_Slice(plan, ...)`` would build.

        The client host's reset follows the re-seed: its ephemeral-port
        draw is the first draw on its stream.
        """
        reseed_rngs(self.rngs, plan.seed)
        host = self.client_host
        host.ip = canonical_ip(plan.client_ip)
        host.reset()
        self.network.trace = trace


class _LiveFlow:
    """Mutable state of one admitted, not-yet-recycled flow."""

    __slots__ = (
        "plan",
        "handle",
        "slice",
        "client_app",
        "outcome_time",
        "server_endpoints",
    )

    def __init__(self, plan: FlowPlan, handle: FlowHandle, world_slice: _Slice) -> None:
        self.plan = plan
        self.handle = handle
        self.slice = world_slice
        self.client_app = None
        self.outcome_time: Optional[float] = None
        #: The flow's open server endpoints, in accept order (values unused).
        self.server_endpoints: Dict[object, None] = {}


class FleetWorld:
    """One serving world: shared server + an arrival stream of flows.

    Build with a :class:`FleetSpec` (optionally overriding the plan
    list, e.g. to simulate a shard of a larger run — arrivals keep their
    global times, which is what makes sharding byte-identical), then
    :meth:`run` to completion. Per-flow verdict records come back sorted
    by global flow index, so they are invariant to event interleaving.
    """

    def __init__(
        self,
        spec: FleetSpec,
        plans: Optional[List[FlowPlan]] = None,
        selector: Optional[GeoStrategySelector] = None,
        on_flow_done: Optional[Callable[["FleetWorld", dict], None]] = None,
        keep_traces: bool = False,
    ) -> None:
        self.spec = spec
        self.plans = list(plans) if plans is not None else spec.flow_plans()
        self.on_flow_done = on_flow_done
        self.keep_traces = keep_traces

        self.scheduler = FlowScheduler()
        self.scheduler.on_drain = self._drained
        self.arena = PacketArena(max_free=2048)
        self._use_leases = spec.trace == "none"

        # The deployed server. Its own RNG stream is domain-separated
        # from every flow seed and is only consumed at construction (the
        # ephemeral-port draw); all serving randomness comes from the
        # per-flow streams below.
        self.server_host = Host(
            "server",
            SERVER_IP,
            self.scheduler,
            random.Random(fleet_stream_seed(spec.seed, 2)),
            SERVER_PERSONALITY,
        )
        self.router = FlowRouter(self.scheduler, self.server_host)
        self.server_host.attach(self.router)
        self.server_host.flow_rng_provider = self._server_rng_for
        self.server_host.on_endpoint_closed = self._endpoint_closed
        self.server_host.accept_hooks.append(self._endpoint_accepted)

        self.selector = selector if selector is not None else fleet_selector()
        protocols = spec.protocols()
        port_protocols = {default_port(p): p for p in protocols}
        self.engine = PerClientEngine(
            self.selector,
            protocols[0],
            rng_provider=self._strategy_rng_for,
            port_protocols=port_protocols,
        )
        self.server_host.inbound_filters.append(self.engine.inbound_filter)
        self.server_host.outbound_filters.append(self.engine.outbound_filter)

        self.server_apps = {}
        for protocol in protocols:
            app = install_server_app(self.server_host, protocol)
            self.server_apps[app.port] = app

        self._flows: Dict[str, _LiveFlow] = {}
        # Slices of recycled flows, by FlowPlan.shape().
        self._parked: Dict[tuple, List[_Slice]] = {}
        # Admitted, not yet recycled flows whose deadline has not fired,
        # oldest first (client ip -> deadline), and whether the one
        # deadline event is queued.
        self._open: "OrderedDict[str, float]" = OrderedDict()
        self._deadline_armed = False
        self._next_plan = 0
        self.records: List[dict] = []
        self.traces: Dict[int, Trace] = {}
        self.admitted = 0
        self.recycled = 0

    # ------------------------------------------------------------------
    # Shared-host hooks

    def _server_rng_for(self, key) -> Optional[random.Random]:
        """Per-flow server stream for a passive open (keyed by client ip)."""
        flow = self._flows.get(key[0])
        return flow.slice.rngs.server if flow is not None else None

    def _strategy_rng_for(self, client_ip: str) -> random.Random:
        """Per-flow strategy stream for the per-client engine."""
        flow = self._flows.get(client_ip)
        if flow is not None:
            return flow.slice.rngs.strategy
        return self.engine.rng  # stray packet after recycle; never drawn in practice

    def _endpoint_accepted(self, endpoint) -> None:
        """Index a passive-open server endpoint under its flow."""
        flow = self._flows.get(endpoint.remote_ip)
        if flow is not None:
            flow.server_endpoints[endpoint] = None

    def _endpoint_closed(self, endpoint) -> None:
        """Prune closed connections from the owning server app and flow."""
        app = self.server_apps.get(endpoint.local_port)
        if app is not None:
            forget = getattr(app, "forget_connection", None)
            if forget is not None:
                forget(endpoint)
        flow = self._flows.get(endpoint.remote_ip)
        if flow is not None:
            flow.server_endpoints.pop(endpoint, None)

    # ------------------------------------------------------------------
    # Flow lifecycle

    def _make_trace(self) -> Trace:
        if self.spec.trace == "full":
            return Trace()
        if self.spec.trace == "ring":
            return RingTrace(self.spec.ring_events)
        return NullTrace()

    def _schedule_next_arrival(self) -> None:
        """Queue the next plan's admission (keeps the heap open-ended)."""
        if self._next_plan >= len(self.plans):
            return
        plan = self.plans[self._next_plan]
        self._next_plan += 1
        handle = FlowHandle(
            plan.index,
            plan.client_ip,
            trace=self._make_trace(),
            arena=self.arena.lease() if self._use_leases else None,
        )
        self.scheduler.schedule_at_in(
            handle, plan.arrival, self._admit, (plan, handle)
        )

    def _admit(self, plan: FlowPlan, handle: FlowHandle) -> None:
        """Give the flow a world slice and start it (runs bound to the flow).

        The slice is a parked one of the flow's shape if there is one,
        else a new one.
        """
        self._schedule_next_arrival()

        parked = self._parked.get(plan.shape())
        if parked:
            world_slice = parked.pop()
            world_slice.admit(plan, handle.trace)
        else:
            world_slice = _Slice(plan, self.scheduler, self.server_host, handle.trace)
        self.router.register(plan.client_ip, world_slice.network)
        # Mirror the server-host construction draw a dedicated trial
        # makes: Host.__init__ consumes randrange(1000) for its ephemeral
        # port base. The shared server host was built long ago, so the
        # flow's server stream performs the draw here instead.
        world_slice.rngs.server.randrange(1000)

        flow = _LiveFlow(plan, handle, world_slice)
        self._flows[plan.client_ip] = flow

        client_app = make_client_app(
            world_slice.client_host,
            plan.country,
            plan.protocol,
            SERVER_IP,
            default_port(plan.protocol),
        )
        client_app.on_complete = lambda outcome: self._note_complete(flow)
        flow.client_app = client_app
        self.admitted += 1

        client_app.start()
        # The flow's verdict deadline — identical to Trial.run's
        # ``network.run(until=max_time)`` horizon, relative to arrival.
        self._open[plan.client_ip] = self.scheduler.now + plan.max_time
        if not self._deadline_armed:
            self._arm_deadline()

    def _note_complete(self, flow: _LiveFlow) -> None:
        if flow.outcome_time is None:
            flow.outcome_time = self.scheduler.now

    def _arm_deadline(self) -> None:
        """Queue the deadline event at the oldest open flow's deadline.

        A world-level event holding no flow: it is not one of any flow's
        events, and it pins nothing of a flow retired before it fires.
        """
        self._deadline_armed = True
        self.scheduler.schedule_at_in(None, next(iter(self._open.values())), self._deadline)

    def _deadline(self) -> None:
        """Re-queue each due flow's finalization behind this instant's events.

        ``Trial.run(until=T)`` executes every event at exactly ``T``
        before reading the verdict. The deadline event may sort *before*
        some same-instant events; bouncing once through the queue runs
        after all of them (nothing in the simulator schedules at zero
        delay, so no new same-instant events can appear behind the
        bounce). Due flows bounce in admission order, and a flow that
        already drained was finalized and retired. Then the event
        re-arms for the next open flow.
        """
        now = self.scheduler.now
        while self._open:
            client_ip, deadline = next(iter(self._open.items()))
            if deadline > now:
                break
            del self._open[client_ip]
            handle = self._flows[client_ip].handle
            if not handle.closed:
                self.scheduler.schedule_at(now, self._finalize_open, (handle,))
        self._deadline_armed = False
        if self._open:
            self._arm_deadline()

    def _finalize_open(self, handle: FlowHandle) -> None:
        """Finalize the flow unless it already was (drained or at its deadline)."""
        if not handle.closed:
            self._finalize(self._flows[handle.client_ip])

    def _drained(self, handle: FlowHandle) -> None:
        """The flow has no event left: finalize it if still open, then recycle."""
        self._finalize_open(handle)
        self._recycle(handle)

    def _finalize(self, flow: _LiveFlow) -> None:
        """Freeze the verdict, record the flow, and begin recycling."""
        plan = flow.plan
        app = flow.client_app
        censor = flow.slice.censor
        outcome = app.outcome or "timeout"
        country = plan.country or "none"
        strategy_hit = any(
            decision is not None
            for decision in self.engine.decisions_for(plan.client_ip)
        )
        latency = (
            flow.outcome_time - plan.arrival
            if flow.outcome_time is not None
            else None
        )
        record = {
            "flow": plan.index,
            "client_ip": plan.client_ip,
            "country": country,
            "protocol": plan.protocol,
            "client_os": plan.client_os,
            "arrival": round(plan.arrival, 9),
            "outcome": outcome,
            "succeeded": app.succeeded,
            "censored": (
                censor.censorship_events > 0 if censor is not None else False
            ),
            "strategy": (
                self.selector.table.get((plan.country, plan.protocol))
                if strategy_hit
                else None
            ),
            "latency": round(latency, 9) if latency is not None else None,
            "trace_digest": (
                flow.handle.trace.digest() if self.spec.trace == "full" else None
            ),
        }
        self.records.append(record)
        _FLEET_FLOWS.inc(country=country, protocol=plan.protocol, outcome=outcome)
        if self.keep_traces:
            self.traces[plan.index] = flow.handle.trace

        # Close the flow: its clock has ended. Remaining scheduled events
        # are skipped by the FlowScheduler (a dedicated trial would never
        # have run them), and the drain hook recycles the flow once none
        # is left — here already, if tearing down cancels the last one.
        flow.handle.closed = True
        for endpoint in list(flow.server_endpoints):
            endpoint._teardown()
        if self.on_flow_done is not None:
            self.on_flow_done(self, record)

    def _recycle(self, handle: FlowHandle) -> None:
        """Return all per-flow state once the finalized flow has drained,
        and park the flow's slice for the next flow of its shape."""
        flow = self._flows.pop(handle.client_ip, None)
        self._open.pop(handle.client_ip, None)
        self.router.unregister(handle.client_ip)
        self.engine.forget_client(handle.client_ip)
        if handle.arena is not None:
            handle.arena.reclaim()
            handle.arena = None
        if flow is not None:
            flow.slice.park()
            self._parked.setdefault(flow.plan.shape(), []).append(flow.slice)
            flow.slice = None
            flow.client_app = None
        self.recycled += 1
        _FLEET_RECYCLED.inc()

    # ------------------------------------------------------------------

    @property
    def active_flows(self) -> int:
        """Flows admitted but not yet recycled."""
        return len(self._flows)

    def run(self) -> List[dict]:
        """Drive the world to quiescence; per-flow records by flow index.

        The event cap scales with the plan count (a single trial needs
        at most a few thousand events; the generous per-flow budget only
        guards against a runaway loop).
        """
        self._schedule_next_arrival()
        cap = max(1_000_000, 20_000 * len(self.plans))
        self.scheduler.run(until=None, max_events=cap)
        if len(self.records) != len(self.plans):  # pragma: no cover
            raise RuntimeError(
                f"fleet run incomplete: {len(self.records)} of "
                f"{len(self.plans)} flows finalized (event cap {cap})"
            )
        self.records.sort(key=lambda record: record["flow"])
        return self.records
