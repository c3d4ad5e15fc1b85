"""A simulated host: NIC-level packet handling plus TCP connection demux.

A :class:`Host` owns TCP endpoints, validates checksums on ingress (which
is why checksum-corrupted "insertion packets" are seen by censors but not
by end hosts), and passes traffic through pluggable packet *filters* — the
hook point where a Geneva strategy engine (server- or client-side) or an
experiment instrumentation shim is installed.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from ..netsim import Network, Scheduler
from ..packets import Packet
from .endpoint import TCPEndpoint
from .personality import OSPersonality, SERVER_PERSONALITY

__all__ = ["Host", "PacketFilter"]

#: A packet filter consumes one packet and returns the packets to forward
#: in its place (possibly none, possibly several).
PacketFilter = Callable[[Packet], List[Packet]]

_EPHEMERAL_BASE = 40000


class Host:
    """One end host attached to the simulated network.

    Attributes:
        name: Label used in traces.
        ip: The host's IPv4 address.
        personality: Default TCP personality for endpoints on this host.
        outbound_filters: Filters applied, in order, to every packet the
            TCP stack emits before it reaches the wire (Geneva server-side
            strategies live here on the server).
        inbound_filters: Filters applied to every wire packet after
            checksum validation and before TCP processing.
        accept_hooks: Hooks invoked with each passive-open endpoint
            before the listener sees it (and before the SYN+ACK is
            sent) — where server-side connection migration sets
            :attr:`TCPEndpoint.accept_delay`.
        flow_rng_provider: Optional hook mapping a passive-open demux key
            ``(remote_ip, remote_port, local_port)`` to the RNG the new
            endpoint should draw from (``None`` → the host RNG, the
            historical behaviour). Fleet mode uses this to give every
            client flow on a shared server host its own seeded stream,
            so one flow's ISN/TLS draws never perturb another's.
        on_endpoint_closed: Optional hook invoked with each endpoint as
            it is removed from the demux table — the recycling signal
            fleet mode uses to prune per-connection application state.
    """

    def __init__(
        self,
        name: str,
        ip: str,
        scheduler: Scheduler,
        rng: random.Random,
        personality: OSPersonality = SERVER_PERSONALITY,
    ) -> None:
        from ..packets.ipv6 import canonical_ip

        self.name = name
        self.ip = canonical_ip(ip)
        self.scheduler = scheduler
        self.rng = rng
        self.personality = personality
        self.network: Optional[Network] = None
        self.outbound_filters: List[PacketFilter] = []
        self.inbound_filters: List[PacketFilter] = []
        self.accept_hooks: List[Callable[[TCPEndpoint], None]] = []
        self._listeners: Dict[int, Callable[[TCPEndpoint], None]] = {}
        self._udp_binds: Dict[int, Callable[[Packet], None]] = {}
        self.flow_rng_provider: Optional[
            Callable[[Tuple[str, int, int]], Optional[random.Random]]
        ] = None
        self.on_endpoint_closed: Optional[Callable[[TCPEndpoint], None]] = None
        self.reset()

    def reset(self) -> None:
        """Forget every endpoint and draw a fresh ephemeral-port base.

        The draw is the first one a host makes on its stream, so a host
        reset right after its stream is re-seeded draws what a new host
        would. Listeners, UDP binds, filters and hooks are wiring, not
        per-run state, and stay.
        """
        self._endpoints: Dict[Tuple[str, int, int], TCPEndpoint] = {}
        self._next_ephemeral = _EPHEMERAL_BASE + self.rng.randrange(1000)

    # ------------------------------------------------------------------
    # Wiring

    def attach(self, network: Network) -> None:
        """Connect this host to a network (called by experiment setup)."""
        self.network = network

    def new_port(self) -> int:
        """Allocate a fresh ephemeral port."""
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    # ------------------------------------------------------------------
    # Connection management

    def open_connection(
        self,
        remote_ip: str,
        remote_port: int,
        local_port: Optional[int] = None,
        personality: Optional[OSPersonality] = None,
    ) -> TCPEndpoint:
        """Create an endpoint for an active open (does not send yet).

        Call :meth:`TCPEndpoint.connect` on the result once application
        callbacks are wired.
        """
        from ..packets.ipv6 import canonical_ip

        port = local_port if local_port is not None else self.new_port()
        endpoint = TCPEndpoint(
            host=self,
            local_port=port,
            remote_ip=canonical_ip(remote_ip),
            remote_port=remote_port,
            personality=personality or self.personality,
        )
        self._endpoints[(endpoint.remote_ip, remote_port, port)] = endpoint
        return endpoint

    def listen(self, port: int, on_accept: Callable[[TCPEndpoint], None]) -> None:
        """Accept incoming connections on ``port``.

        ``on_accept`` is invoked with the new endpoint *before* the
        SYN+ACK is sent, so applications can wire callbacks first.
        """
        self._listeners[port] = on_accept

    # ------------------------------------------------------------------
    # UDP

    def udp_bind(self, port: int, callback: Callable[[Packet], None]) -> None:
        """Receive UDP datagrams addressed to ``port``."""
        self._udp_binds[port] = callback

    def send_udp(
        self, dst: str, dport: int, payload: bytes, sport: Optional[int] = None
    ) -> int:
        """Send a UDP datagram; returns the source port used."""
        from ..packets import make_udp_packet

        port = sport if sport is not None else self.new_port()
        self.transmit(make_udp_packet(self.ip, dst, port, dport, load=payload))
        return port

    def forget_endpoint(self, endpoint: TCPEndpoint) -> None:
        """Remove a closed endpoint from the demux table."""
        key = (endpoint.remote_ip, endpoint.remote_port, endpoint.local_port)
        if self._endpoints.get(key) is endpoint:
            del self._endpoints[key]
            if self.on_endpoint_closed is not None:
                self.on_endpoint_closed(endpoint)

    def endpoints(self) -> List[TCPEndpoint]:
        """All currently-tracked endpoints (open connections)."""
        return list(self._endpoints.values())

    # ------------------------------------------------------------------
    # Wire interface

    def transmit(self, packet: Packet) -> None:
        """Send a stack-originated packet through the outbound filters.

        With no filter installed the loop body never runs and the
        network gets ``packet`` itself.
        """
        network = self.network
        if network is None:
            raise RuntimeError(f"host {self.name} is not attached to a network")
        packets = (packet,)
        for flt in self.outbound_filters:
            next_packets: List[Packet] = []
            for item in packets:
                next_packets.extend(flt(item))
            packets = next_packets
        for item in packets:
            network.send_from(self, item)

    def receive(self, packet: Packet) -> None:
        """Handle a packet delivered off the wire.

        With no filter installed the demux gets ``packet`` itself.
        """
        if not packet.checksums_ok():
            # Real stacks silently discard corrupted segments; censors that
            # skip validation still saw this packet on the path.
            if self.network is not None:
                self.network.trace.record(
                    self.scheduler.now, "drop", self.name, packet, "bad checksum"
                )
            return
        packets = (packet,)
        for flt in self.inbound_filters:
            next_packets: List[Packet] = []
            for item in packets:
                next_packets.extend(flt(item))
            packets = next_packets
        for item in packets:
            self._demux(item)

    def _demux(self, packet: Packet) -> None:
        tcp = packet.tcp
        if tcp is None:
            handler = self._udp_binds.get(packet.udp.dport)
            if handler is not None:
                handler(packet)
            return
        src = packet.ip.src
        sport = tcp.sport
        dport = tcp.dport
        key = (src, sport, dport)
        endpoint = self._endpoints.get(key)
        if endpoint is not None:
            endpoint.handle_segment(packet)
            return
        listener = self._listeners.get(dport)
        if listener is not None and tcp.is_syn:
            rng = (
                self.flow_rng_provider(key)
                if self.flow_rng_provider is not None
                else None
            )
            endpoint = TCPEndpoint(
                host=self,
                local_port=dport,
                remote_ip=src,
                remote_port=sport,
                personality=self.personality,
                rng=rng,
            )
            self._endpoints[key] = endpoint
            for hook in self.accept_hooks:
                hook(endpoint)
            listener(endpoint)
            endpoint.accept_syn(packet)
        # Segments for unknown flows are silently ignored (no RST replies;
        # keeps injected censor packets from generating noise storms).

    def __repr__(self) -> str:
        return f"Host({self.name} {self.ip})"
