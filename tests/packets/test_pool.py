"""Pool hygiene: a re-acquired packet carries no prior state, and the
arena stays bounded no matter how many trials run through it.

``repro.packets.pool`` promises hygiene *by construction*: every acquire
re-initializes every slot of the trio. These tests enumerate the slots
(so a field added to ``Packet``/``IPv4``/``TCP`` without a matching
re-init line fails here, not in a flaky trial), dirty a packet as hard as
the strategy engine can, and check the next acquire is pristine.
"""

import pytest

from repro.packets import IPv4, TCP, make_tcp_packet
from repro.packets.packet import Packet
from repro.packets import pool
from repro.packets.pool import PacketArena, active_arena, pooled


# The slots each acquire must re-initialize. Kept in sync with the
# classes by the enumeration tests below.
IP_SLOTS = {
    "version", "ihl", "tos", "ident", "flags", "frag", "ttl", "proto",
    "src", "dst", "len_override", "chksum_override", "_wire", "_wire_key",
}
TCP_SLOTS = {
    "sport", "dport", "seq", "ack", "flags", "window", "urgptr",
    "options", "load", "chksum_override", "dataofs_override",
    "_wire", "_wire_key",
}


def _dirty(packet):
    """Smear every mutable field the strategy engine can touch."""
    ip = packet.ip
    ip.tos = 0xA5
    ip.ident = 0xBEEF
    ip.flags = 7
    ip.frag = 123
    ip.ttl = 3
    ip.len_override = 9999
    ip.chksum_override = 0x1234
    tcp = packet.tcp
    tcp.seq = 0xDEADBEEF
    tcp.ack = 0xCAFEBABE
    tcp.flags = "FSRPAU"
    tcp.window = 1
    tcp.urgptr = 77
    tcp.options = [("mss", 1460), ("nop", None)]
    tcp.load = b"X" * 1400
    tcp.chksum_override = 0xFFFF
    tcp.dataofs_override = 15
    # Populate the wire caches so stale images could leak.
    tcp.chksum_override = None
    ip.chksum_override = None
    packet.serialize()
    assert tcp._wire is not None and ip._wire is not None


class TestSlotEnumeration:
    """If a slot is added to a pooled class, these fail until the pool's
    acquire paths (and the sets above) learn about it."""

    def test_ipv4_slots_match(self):
        assert set(IPv4.__slots__) == IP_SLOTS

    def test_tcp_slots_match(self):
        assert set(TCP.__slots__) == TCP_SLOTS

    def test_packet_slots_match(self):
        assert set(Packet.__slots__) == {"ip", "tcp", "udp"}


class TestAcquireHygiene:
    def test_reacquired_packet_is_pristine(self):
        arena = PacketArena()
        first = arena.acquire_tcp("10.0.0.1", "10.0.0.2", 1234, 25)
        _dirty(first)
        arena.reclaim()

        packet = arena.acquire_tcp("10.1.1.1", "10.1.1.2", 4321, 80)
        assert arena.reused == 1  # actually recycled, not freshly built
        reference = make_tcp_packet("10.1.1.1", "10.1.1.2", 4321, 80)
        for slot in IP_SLOTS:
            assert getattr(packet.ip, slot) == getattr(reference.ip, slot), slot
        for slot in TCP_SLOTS:
            assert getattr(packet.tcp, slot) == getattr(reference.tcp, slot), slot
        assert packet.udp is None

    def test_reacquired_packet_serializes_identically(self):
        arena = PacketArena()
        dirty = arena.acquire_tcp("10.0.0.1", "10.0.0.2", 1234, 25, load=b"old")
        _dirty(dirty)
        arena.reclaim()
        packet = arena.acquire_tcp("10.0.0.9", "10.0.0.8", 1111, 53, load=b"new")
        fresh = make_tcp_packet("10.0.0.9", "10.0.0.8", 1111, 53, load=b"new")
        assert packet.serialize() == fresh.serialize()

    def test_acquire_copy_matches_slow_copy(self):
        arena = PacketArena()
        source = make_tcp_packet(
            "10.0.0.1", "10.0.0.2", 1234, 25,
            flags="PA", seq=42, ack=43, load=b"MAIL FROM",
            options=[("mss", 1460)],
        )
        source.serialize()
        clone = arena.acquire_copy(source)
        for slot in IP_SLOTS:
            assert getattr(clone.ip, slot) == getattr(source.ip, slot), slot
        for slot in TCP_SLOTS:
            assert getattr(clone.tcp, slot) == getattr(source.tcp, slot), slot
        # Deep where it must be: mutating the clone's options leaves the
        # source untouched.
        clone.tcp.options.append(("nop", None))
        assert len(source.tcp.options) == 1

    def test_options_list_not_shared_between_acquires(self):
        arena = PacketArena()
        shared = [("mss", 1460)]
        first = arena.acquire_tcp("1.1.1.1", "2.2.2.2", 1, 2, options=shared)
        first.tcp.options.append(("nop", None))
        assert shared == [("mss", 1460)]
        arena.reclaim()
        second = arena.acquire_tcp("1.1.1.1", "2.2.2.2", 1, 2)
        assert second.tcp.options == []


class TestReclaimBounds:
    def test_free_list_is_bounded(self):
        arena = PacketArena(max_free=8)
        for _ in range(3):
            for _ in range(50):
                arena.acquire_tcp("10.0.0.1", "10.0.0.2", 1, 2)
            arena.reclaim()
            assert len(arena) <= 8

    def test_reclaim_drops_payload_references(self):
        arena = PacketArena()
        packet = arena.acquire_tcp(
            "10.0.0.1", "10.0.0.2", 1, 2, load=b"Z" * 4096
        )
        packet.serialize()
        arena.reclaim()
        recycled = arena._free[-1]
        assert recycled.tcp.load == b""
        assert recycled.tcp.options == []
        assert recycled.tcp._wire is None
        assert recycled.ip._wire is None

    def test_abandon_discards_live_set(self):
        arena = PacketArena()
        arena.acquire_tcp("10.0.0.1", "10.0.0.2", 1, 2)
        arena.abandon()
        assert len(arena) == 0
        arena.acquire_tcp("10.0.0.1", "10.0.0.2", 1, 2)
        assert arena.reused == 0  # abandoned trio was not recycled

    def test_pool_stays_bounded_over_many_trials(self):
        """10k pooled trials never grow the process-wide free list past
        its bound (the leak test from the issue checklist)."""
        before_free = len(pool._ARENA)
        for _ in range(10_000):
            with pooled() as arena:
                make_tcp_packet("10.0.0.1", "10.0.0.2", 1234, 25)
                make_tcp_packet("10.0.0.1", "10.0.0.2", 1234, 25).copy()
        assert len(pool._ARENA) <= pool._ARENA.max_free
        assert len(pool._ARENA._live) == 0
        assert len(pool._ARENA) >= min(before_free, pool._ARENA.max_free)


class TestMixedIPVersions:
    """Arena reuse cannot leak header fields between flows with differing
    IP versions: IPv6 trios never enter the pool, and an IPv4 trio
    re-acquired after an IPv6 flow ran through the same arena is pristine."""

    def test_ipv6_packets_bypass_active_arena(self):
        from repro.packets.ipv6 import IPv6

        with pooled() as arena:
            before = arena.created + arena.reused
            packet = make_tcp_packet("2001:db8::1", "2001:db8::2", 1, 2)
            assert isinstance(packet.ip, IPv6)
            assert arena.created + arena.reused == before
            assert not arena._live

    def test_ipv6_copy_bypasses_active_arena(self):
        packet = make_tcp_packet("2001:db8::1", "2001:db8::2", 1, 2, load=b"x")
        with pooled() as arena:
            before = arena.created + arena.reused
            clone = packet.copy()
            assert arena.created + arena.reused == before
        assert clone.ip.src == packet.ip.src
        assert clone.tcp.load == b"x"

    def test_ipv4_trio_pristine_after_ipv6_flow(self):
        """An IPv4 flow, then an IPv6 flow, then IPv4 again on leases of
        one shared arena — the recycled trio matches a fresh build
        field-for-field (the fleet mixed-version regression)."""
        parent = PacketArena()

        first = parent.lease()
        dirty = first.acquire_tcp(
            "10.0.0.1", "10.0.0.2", 1234, 80, load=b"GET /"
        )
        _dirty(dirty)
        first.reclaim()
        assert len(parent) == 1

        second = parent.lease()
        v6 = make_tcp_packet("2001:db8::1", "2001:db8::2", 5, 6, load=b"v6")
        v6.copy()
        second.reclaim()
        assert len(parent) == 1  # the IPv6 trio never touched the pool

        third = parent.lease()
        packet = third.acquire_tcp("10.9.9.9", "10.8.8.8", 4321, 443)
        assert parent.reused == 1
        reference = make_tcp_packet("10.9.9.9", "10.8.8.8", 4321, 443)
        assert type(packet.ip) is IPv4
        for slot in IP_SLOTS:
            assert getattr(packet.ip, slot) == getattr(reference.ip, slot), slot
        for slot in TCP_SLOTS:
            assert getattr(packet.tcp, slot) == getattr(reference.tcp, slot), slot
        assert packet.serialize() == reference.serialize()


class TestArenaLease:
    def test_lease_shares_free_list_with_parent(self):
        parent = PacketArena()
        lease = parent.lease()
        lease.acquire_tcp("10.0.0.1", "10.0.0.2", 1, 2)
        lease.reclaim()
        assert len(parent) == 1
        # The parent (or any sibling lease) reuses the reclaimed trio.
        parent.acquire_tcp("10.0.0.3", "10.0.0.4", 3, 4)
        assert parent.reused == 1

    def test_lease_live_sets_are_independent(self):
        parent = PacketArena()
        a, b = parent.lease(), parent.lease()
        a.acquire_tcp("10.0.0.1", "10.0.0.2", 1, 2)
        b.acquire_tcp("10.0.0.5", "10.0.0.6", 5, 6)
        a.reclaim()  # flow A quiesces; flow B's packet stays live
        assert len(a._live) == 0
        assert len(b._live) == 1
        assert len(parent) == 1

    def test_lease_counters_mirror_to_parent(self):
        parent = PacketArena()
        lease = parent.lease()
        lease.acquire_tcp("10.0.0.1", "10.0.0.2", 1, 2)
        assert parent.created == 1
        lease.reclaim()
        other = parent.lease()
        other.acquire_tcp("10.0.0.3", "10.0.0.4", 3, 4)
        assert parent.reused == 1


class TestActivation:
    def test_inactive_by_default(self):
        assert active_arena() is None
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        assert isinstance(packet, Packet)

    def test_pooled_activates_and_deactivates(self):
        with pooled() as arena:
            assert active_arena() is arena
        assert active_arena() is None

    def test_nested_pooled_is_a_noop(self):
        with pooled() as outer:
            created = outer.created
            with pooled() as inner:
                assert inner is outer
                make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
            # Inner exit must not reclaim: the trio is still live.
            assert outer._live
            assert outer.created == created + 1 or outer.reused > 0
        assert active_arena() is None

    def test_exception_abandons_live_packets(self):
        with pytest.raises(RuntimeError):
            with pooled():
                make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
                raise RuntimeError("trial blew up")
        assert active_arena() is None
        assert len(pool._ARENA._live) == 0

    def test_copy_uses_arena_only_when_active(self):
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        with pooled() as arena:
            before = arena.created + arena.reused
            packet.copy()
            assert arena.created + arena.reused == before + 1
        outside = packet.copy()
        assert isinstance(outside, Packet)


class TestTrialPooling:
    """``Trial.run`` pools exactly when the trial records no trace."""

    @staticmethod
    def _draws():
        return pool._ARENA.created + pool._ARENA.reused

    def test_trace_free_trial_draws_from_the_arena(self):
        from repro.eval.runner import Trial

        before = self._draws()
        Trial("china", "http", seed=3, capture_trace=False).run()
        assert self._draws() > before
        assert active_arena() is None
        assert len(pool._ARENA._live) == 0

    def test_traced_trial_leaves_the_arena_untouched(self):
        from repro.eval.runner import Trial

        before = self._draws()
        result = Trial("china", "http", seed=3, capture_trace=True).run()
        assert self._draws() == before
        assert len(result.trace) > 0
