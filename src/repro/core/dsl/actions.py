"""Geneva's five packet-manipulation building blocks.

An action tree is applied to one intercepted packet and yields the list of
packets that go on the wire in its place. The genetic building blocks are
exactly the paper's (Appendix: "Geneva's syntax"):

- ``duplicate(A1, A2)`` — copy the packet, apply ``A1`` to the first copy
  and ``A2`` to the second;
- ``fragment{tcp:offset:inOrder}(A1, A2)`` — split the payload into two
  segments at ``offset`` bytes;
- ``tamper{proto:field:mode[:value]}(A)`` — rewrite one header field
  (``replace``) or randomize it (``corrupt``), then continue with ``A``;
- ``drop`` — discard the packet;
- ``send`` — emit the packet.

Tampering any field other than a checksum/length leaves checksum
computation to serialization time (i.e. checksums are fixed up), matching
the real tool; tampering ``chksum`` itself plants the literal corrupted
value — the mechanism behind insertion packets.

Two SNI-era extensions ride alongside the paper's five:

- ``recordsplit{offset}`` — re-chunk the first TLS record of the payload
  into two records (length-preserving), defeating record-reassembling
  SNI boxes;
- ``stall{n}`` — drop the first ``n`` packets the trigger matches
  (*stateful*), modelling server-initiated connection migration: the
  handshake only completes once the censor's flow-tracking window has
  lapsed.
"""

from __future__ import annotations

import random
from typing import List

from ...apps.tls import RECORD_HANDSHAKE, resplit_first_record
from ...packets import Packet

__all__ = [
    "Action",
    "SendAction",
    "DropAction",
    "DuplicateAction",
    "TamperAction",
    "FragmentAction",
    "RecordSplitAction",
    "StallAction",
]


class Action:
    """Base class for all Geneva actions."""

    def apply(self, packet: Packet, rng: random.Random) -> List[Packet]:
        """Apply this action to ``packet``; return the packets to emit."""
        raise NotImplementedError

    def children(self) -> List["Action"]:
        """Direct child actions (for tree traversal)."""
        return []

    def tree_size(self) -> int:
        """Number of nodes in this subtree (complexity metric for the GA).

        Each class counts its own children directly: the GA sizes every
        genome it mutates or scores.
        """
        raise NotImplementedError

    def copy(self) -> "Action":
        """Deep copy of this subtree."""
        raise NotImplementedError

    def is_stateful(self) -> bool:
        """Whether applying this subtree mutates it (e.g. ``stall``).

        Stateful strategies must not be shared between engines — the
        parse cache hands out one instance per DSL string, so engines
        take a private :meth:`copy` when this is true.
        """
        return any(child.is_stateful() for child in self.children())

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__, str(self)))


class SendAction(Action):
    """Emit the packet unchanged (the implicit default child)."""

    def apply(self, packet: Packet, rng: random.Random) -> List[Packet]:
        return [packet]

    def tree_size(self) -> int:
        return 1

    def copy(self) -> "SendAction":
        return SendAction()

    def __str__(self) -> str:
        return "send"


class DropAction(Action):
    """Discard the packet."""

    def apply(self, packet: Packet, rng: random.Random) -> List[Packet]:
        return []

    def tree_size(self) -> int:
        return 1

    def copy(self) -> "DropAction":
        return DropAction()

    def __str__(self) -> str:
        return "drop"


def _is_send(action: Action) -> bool:
    return isinstance(action, SendAction)


class DuplicateAction(Action):
    """Duplicate the packet, applying one subtree to each copy."""

    def __init__(self, first: Action = None, second: Action = None) -> None:
        self.first = first if first is not None else SendAction()
        self.second = second if second is not None else SendAction()

    def apply(self, packet: Packet, rng: random.Random) -> List[Packet]:
        copy1 = packet
        copy2 = packet.copy()
        return self.first.apply(copy1, rng) + self.second.apply(copy2, rng)

    def children(self) -> List[Action]:
        return [self.first, self.second]

    def tree_size(self) -> int:
        return 1 + self.first.tree_size() + self.second.tree_size()

    def copy(self) -> "DuplicateAction":
        return DuplicateAction(self.first.copy(), self.second.copy())

    def __str__(self) -> str:
        if _is_send(self.first) and _is_send(self.second):
            return "duplicate"
        left = "" if _is_send(self.first) else str(self.first)
        right = "" if _is_send(self.second) else str(self.second)
        return f"duplicate({left},{right})"


class TamperAction(Action):
    """Rewrite one header field, then continue with a single subtree."""

    def __init__(
        self,
        protocol: str,
        field: str,
        mode: str,
        value: str = "",
        child: Action = None,
    ) -> None:
        if mode not in ("replace", "corrupt"):
            raise ValueError(f"unknown tamper mode {mode!r}")
        self.protocol = protocol.upper()
        self.field = field
        self.mode = mode
        self.value = value
        self.child = child if child is not None else SendAction()

    def apply(self, packet: Packet, rng: random.Random) -> List[Packet]:
        if self.mode == "replace":
            packet.replace_field(self.protocol, self.field, self.value)
        else:
            packet.corrupt_field(self.protocol, self.field, rng)
        return self.child.apply(packet, rng)

    def children(self) -> List[Action]:
        return [self.child]

    def tree_size(self) -> int:
        return 1 + self.child.tree_size()

    def copy(self) -> "TamperAction":
        return TamperAction(
            self.protocol, self.field, self.mode, self.value, self.child.copy()
        )

    def __str__(self) -> str:
        if self.mode == "replace":
            spec = f"{self.protocol}:{self.field}:replace:{self.value}"
        else:
            spec = f"{self.protocol}:{self.field}:corrupt"
        base = f"tamper{{{spec}}}"
        if _is_send(self.child):
            return base
        return f"{base}({self.child},)"


class FragmentAction(Action):
    """Split the packet's payload into two TCP segments at ``offset``.

    ``in_order=False`` emits the second segment first — exploiting censors
    that cannot reorder. (Only TCP segmentation is meaningful for the
    strategies in this paper; the ``protocol`` tag is kept for syntax
    fidelity.)
    """

    def __init__(
        self,
        protocol: str = "tcp",
        offset: int = 8,
        in_order: bool = True,
        first: Action = None,
        second: Action = None,
    ) -> None:
        self.protocol = protocol.lower()
        self.offset = offset
        self.in_order = in_order
        self.first = first if first is not None else SendAction()
        self.second = second if second is not None else SendAction()

    def apply(self, packet: Packet, rng: random.Random) -> List[Packet]:
        load = packet.load
        if not load or self.offset <= 0 or self.offset >= len(load):
            # Nothing to split: behave like duplicate-free send.
            return self.first.apply(packet, rng)
        seg1 = packet.copy()
        seg2 = packet.copy()
        seg1.tcp.load = load[: self.offset]
        seg2.tcp.load = load[self.offset :]
        seg2.tcp.seq = (packet.tcp.seq + self.offset) % (1 << 32)
        out1 = self.first.apply(seg1, rng)
        out2 = self.second.apply(seg2, rng)
        return out1 + out2 if self.in_order else out2 + out1

    def children(self) -> List[Action]:
        return [self.first, self.second]

    def tree_size(self) -> int:
        return 1 + self.first.tree_size() + self.second.tree_size()

    def copy(self) -> "FragmentAction":
        return FragmentAction(
            self.protocol, self.offset, self.in_order, self.first.copy(), self.second.copy()
        )

    def __str__(self) -> str:
        base = f"fragment{{{self.protocol}:{self.offset}:{self.in_order}}}"
        if _is_send(self.first) and _is_send(self.second):
            return base
        left = "" if _is_send(self.first) else str(self.first)
        right = "" if _is_send(self.second) else str(self.second)
        return f"{base}({left},{right})"


class RecordSplitAction(Action):
    """Split the payload's first TLS record in two, preserving length.

    Applies :func:`repro.apps.tls.resplit_first_record` to handshake
    payloads: the first record is re-chunked into two records at
    ``offset`` body bytes, with the 5-byte overflow trimmed from the
    second record's tail so the TCP stream length — and therefore every
    sequence number already in flight — is unchanged. Record-reassembling
    DPI can no longer complete the handshake message; lenient clients
    (which only need *a* handshake record plus intact application data)
    are unaffected. Packets that do not start with a complete handshake
    record pass through untouched.
    """

    def __init__(self, offset: int = 2, child: Action = None) -> None:
        self.offset = offset
        self.child = child if child is not None else SendAction()

    def apply(self, packet: Packet, rng: random.Random) -> List[Packet]:
        load = packet.load
        if load and load[0] == RECORD_HANDSHAKE:
            split = resplit_first_record(load, self.offset)
            if split is not None:
                packet.tcp.load = split
        return self.child.apply(packet, rng)

    def children(self) -> List[Action]:
        return [self.child]

    def tree_size(self) -> int:
        return 1 + self.child.tree_size()

    def copy(self) -> "RecordSplitAction":
        return RecordSplitAction(self.offset, self.child.copy())

    def __str__(self) -> str:
        base = f"recordsplit{{{self.offset}}}"
        if _is_send(self.child):
            return base
        return f"{base}({self.child},)"


class StallAction(Action):
    """Drop the first ``count`` matching packets, then pass the rest.

    The DSL face of server-initiated connection migration: triggered on
    the SYN+ACK, the server's first ``count`` handshake responses are
    suppressed, so the connection only comes up on a later retransmission
    (0.4 s/0.8 s/1.6 s/... RTO backoff) — after the censor's per-flow
    tracking window, anchored at the client's first SYN, has lapsed.

    Stateful: the drop counter advances across :meth:`apply` calls.
    :meth:`copy` resets it, and engines copy stateful strategies at
    install time, so each trial/flow stalls independently.
    """

    def __init__(self, count: int = 1, child: Action = None) -> None:
        self.count = count
        self.child = child if child is not None else SendAction()
        self.dropped = 0

    def apply(self, packet: Packet, rng: random.Random) -> List[Packet]:
        if self.dropped < self.count:
            self.dropped += 1
            return []
        return self.child.apply(packet, rng)

    def children(self) -> List[Action]:
        return [self.child]

    def tree_size(self) -> int:
        return 1 + self.child.tree_size()

    def copy(self) -> "StallAction":
        return StallAction(self.count, self.child.copy())

    def is_stateful(self) -> bool:
        return True

    def __str__(self) -> str:
        base = f"stall{{{self.count}}}"
        if _is_send(self.child):
            return base
        return f"{base}({self.child},)"
