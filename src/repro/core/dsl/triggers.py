"""Geneva triggers: ``[protocol:field:value]``.

A trigger gates an action tree. Geneva's trigger matching is an *exact*
match on the named field — ``[TCP:flags:S]`` does not match SYN+ACK
packets (Appendix of the paper).
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Optional

from ...packets import Packet

__all__ = ["Trigger"]


@dataclasses.dataclass(frozen=True)
class Trigger:
    """An exact-match packet predicate.

    :meth:`Packet.matches` defines what matches. A ``TCP:flags`` trigger
    fixes its letter set when it is built and compares each segment's
    flag letters with it, which is the answer ``Packet.matches`` gives
    without resolving the field per packet.

    Attributes:
        protocol: ``"TCP"`` or ``"IP"``.
        field: Field name within the protocol (Geneva namespace).
        value: Textual value the field must equal exactly.
    """

    protocol: str
    field: str
    value: str
    _flags: Optional[FrozenSet[str]] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.field == "flags" and self.protocol.upper() == "TCP":
            object.__setattr__(self, "_flags", frozenset(self.value.upper()))

    def matches(self, packet: Packet) -> bool:
        """Whether ``packet`` satisfies this trigger."""
        flags = self._flags
        if flags is not None:
            tcp = packet.tcp
            return tcp is not None and flags == set(tcp.flags)
        try:
            return packet.matches(self.protocol, self.field, self.value)
        except ValueError:
            return False

    @classmethod
    def parse(cls, text: str) -> "Trigger":
        """Parse ``proto:field:value`` (without the surrounding brackets)."""
        parts = text.split(":", 2)
        if len(parts) != 3:
            raise ValueError(f"malformed trigger {text!r}")
        protocol, field, value = parts
        return cls(protocol.upper(), field, value)

    def __str__(self) -> str:
        return f"[{self.protocol}:{self.field}:{self.value}]"
