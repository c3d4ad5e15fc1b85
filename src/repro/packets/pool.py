"""Free-list pooling for the hot TCP/IPv4 packet trio.

A cold trial allocates thousands of short-lived ``Packet``/``IPv4``/``TCP``
trios — one per injected copy, duplicate, and hop-mutated clone — and none
of them outlive the trial when tracing is off. The arena recycles those
trios: :func:`pooled` activates it for the dynamic extent of one trial's
run, during which ``make_tcp_packet`` and ``Packet.copy`` draw from the
free list instead of allocating, and the end of the run returns
everything at once.

Hygiene is by construction, not by scrubbing: every acquire re-initializes
*every* slot of all three objects (the pool-hygiene property test in
``tests/packets/test_pool.py`` enumerates the slots so a newly added field
cannot silently leak state). Reclaim only drops payload/option/wire
references so the free list never pins large buffers.

Safety rules:

- The arena is only active when the trial uses a :class:`NullTrace` — a
  recorded trace would keep references to packets after they are recycled.
  ``Trial.run`` enforces this by construction: it pools exactly when the
  trial was built with ``capture_trace=False``, and a fleet world leases
  the arena only in trace mode ``none``.
- On an exception inside the pooled block the live set is abandoned (never
  reused), since partially-built packets may have escaped to the error
  path.
- Only the TCP-over-IPv4 trio is pooled; UDP and IPv6 packets are rare
  enough that pooling them is not worth the hygiene surface.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from .ip import FLAG_DF, IP_PROTO_TCP, IPv4
from .tcp import TCP

__all__ = ["ArenaLease", "PacketArena", "pooled", "active_arena"]

#: Resolved on first use; packet.py imports this module, so the class
#: cannot be imported at module load without a cycle.
_Packet = None


class PacketArena:
    """A bounded free list of TCP/IPv4 packet trios.

    Attributes:
        created: Trios built because the free list was empty.
        reused: Trios taken from the free list.
    """

    __slots__ = ("max_free", "_free", "_live", "_tally", "created", "reused")

    def __init__(self, max_free: int = 512) -> None:
        self.max_free = max_free
        self._free: List[object] = []
        self._live: List[object] = []
        #: The arena whose ``created``/``reused`` count this one's acquires.
        self._tally = self
        self.created = 0
        self.reused = 0

    # ------------------------------------------------------------------

    def _get(self):
        if self._free:
            packet = self._free.pop()
            self._tally.reused += 1
        else:
            global _Packet
            if _Packet is None:  # deferred: packet.py imports this module
                from .packet import Packet as _P

                _Packet = _P
            packet = _Packet.__new__(_Packet)
            packet.ip = IPv4.__new__(IPv4)
            packet.tcp = TCP.__new__(TCP)
            packet.udp = None
            self._tally.created += 1
        self._live.append(packet)
        return packet

    def acquire_tcp(
        self,
        src: str,
        dst: str,
        sport: int,
        dport: int,
        flags: str = "S",
        seq: int = 0,
        ack: int = 0,
        load: bytes = b"",
        window: int = 65535,
        ttl: int = 64,
        options: Optional[list] = None,
    ):
        """Acquire a trio initialized exactly like ``make_tcp_packet``.

        The parameters are ``make_tcp_packet``'s, in its order, so it
        passes them on positionally.
        """
        packet = self._get()
        ip = packet.ip
        ip.version = 4
        ip.ihl = 5
        ip.tos = 0
        ip.ident = 0
        ip.flags = FLAG_DF
        ip.frag = 0
        ip.ttl = ttl
        ip.proto = IP_PROTO_TCP
        ip.src = src
        ip.dst = dst
        ip.len_override = None
        ip.chksum_override = None
        ip._wire = None
        ip._wire_key = None
        tcp = packet.tcp
        tcp.sport = sport
        tcp.dport = dport
        tcp.seq = seq & 0xFFFFFFFF
        tcp.ack = ack & 0xFFFFFFFF
        tcp.flags = TCP._canonical_flags(flags)
        tcp.window = window
        tcp.urgptr = 0
        tcp.options = list(options or [])
        tcp.load = load
        tcp.chksum_override = None
        tcp.dataofs_override = None
        tcp._wire = None
        tcp._wire_key = None
        return packet

    def acquire_copy(self, source):
        """Acquire a trio carrying a deep copy of ``source`` (TCP/IPv4)."""
        packet = self._get()
        src_ip = source.ip
        ip = packet.ip
        ip.version = src_ip.version
        ip.ihl = src_ip.ihl
        ip.tos = src_ip.tos
        ip.ident = src_ip.ident
        ip.flags = src_ip.flags
        ip.frag = src_ip.frag
        ip.ttl = src_ip.ttl
        ip.proto = src_ip.proto
        ip.src = src_ip.src
        ip.dst = src_ip.dst
        ip.len_override = src_ip.len_override
        ip.chksum_override = src_ip.chksum_override
        ip._wire = src_ip._wire
        ip._wire_key = src_ip._wire_key
        src_tcp = source.tcp
        tcp = packet.tcp
        tcp.sport = src_tcp.sport
        tcp.dport = src_tcp.dport
        tcp.seq = src_tcp.seq
        tcp.ack = src_tcp.ack
        tcp.flags = src_tcp.flags
        tcp.window = src_tcp.window
        tcp.urgptr = src_tcp.urgptr
        tcp.options = list(src_tcp.options)
        tcp.load = src_tcp.load
        tcp.chksum_override = src_tcp.chksum_override
        tcp.dataofs_override = src_tcp.dataofs_override
        tcp._wire = src_tcp._wire
        tcp._wire_key = src_tcp._wire_key
        return packet

    # ------------------------------------------------------------------

    def reclaim(self) -> None:
        """Return live trios to the free list (bounded by ``max_free``).

        Payload/option/wire references are dropped so the free list holds
        only the fixed-size objects, never trial data.
        """
        free = self._free
        for packet in self._live:
            if len(free) >= self.max_free:
                break
            tcp = packet.tcp
            tcp.options = []
            tcp.load = b""
            tcp._wire = None
            tcp._wire_key = None
            ip = packet.ip
            ip._wire = None
            ip._wire_key = None
            free.append(packet)
        self._live.clear()

    def abandon(self) -> None:
        """Forget live trios without reusing them (exception path)."""
        self._live.clear()

    def lease(self) -> "ArenaLease":
        """Split off a lease sharing this arena's free list.

        Fleet mode runs many flows concurrently in one event loop, each
        with its own acquire/reclaim lifetime; a lease gives each flow an
        independent live set while every reclaimed trio lands back on the
        shared free list for any flow to reuse.
        """
        return ArenaLease(self)

    def __len__(self) -> int:
        return len(self._free)


class ArenaLease(PacketArena):
    """A per-flow view of a shared arena: own live set, shared free list.

    ``acquire_*`` behave exactly like the parent's (inherited — the free
    list object is aliased, so pops and reclaim appends hit the shared
    pool), but ``_live`` is private to the lease. A flow reclaims its
    lease when it quiesces, independent of every other in-flight flow,
    and the hygiene guarantee is unchanged: every acquire re-initializes
    every slot, so it cannot matter which flow last touched a trio.

    A lease keeps no tallies of its own: leases are recycled with their
    flow, so its acquires count on the parent's ``created``/``reused``.
    """

    __slots__ = ("parent",)

    def __init__(self, parent: PacketArena) -> None:
        self.parent = parent
        self.max_free = parent.max_free
        self._free = parent._free  # aliased: one shared free list
        self._live = []
        self._tally = parent


#: The process-wide arena; pooling is rare enough to recycle one free list.
_ARENA = PacketArena()

#: The arena call sites should draw from, or ``None`` when pooling is off.
_ACTIVE: Optional[PacketArena] = None


def active_arena() -> Optional[PacketArena]:
    """The arena in effect for the current trial, if any."""
    return _ACTIVE


@contextmanager
def pooled() -> Iterator[PacketArena]:
    """Activate the packet arena for one trial's dynamic extent.

    Nested activations are no-ops (the outermost block owns reclaim).
    """
    global _ACTIVE
    if _ACTIVE is not None:
        yield _ACTIVE
        return
    _ACTIVE = _ARENA
    try:
        yield _ARENA
    except BaseException:
        _ACTIVE = None
        _ARENA.abandon()
        raise
    else:
        _ACTIVE = None
        _ARENA.reclaim()
