"""Parser and container for Geneva strategy strings.

The concrete syntax is the paper's (Appendix):

    [<trigger>]-<action tree>-| ... \\/ [<trigger>]-<action tree>-| ...

with the ``\\/`` separating the outbound forest from the inbound forest.
``Strategy.parse(str(strategy))`` round-trips for every strategy in the
library, and every strategy string printed in the paper parses.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from ...packets import Packet, field_registries, parse_replace_value
from .actions import (
    Action,
    DropAction,
    DuplicateAction,
    FragmentAction,
    RecordSplitAction,
    SendAction,
    StallAction,
    TamperAction,
)
from .triggers import Trigger

__all__ = ["Strategy", "parse_strategy", "parse_action"]

ActionTree = Tuple[Trigger, Action]


class Strategy:
    """A full Geneva strategy: outbound and inbound trigger/action forests.

    Applying the strategy to a packet finds the first action tree whose
    trigger matches and runs it; unmatched packets pass through unchanged.
    """

    def __init__(
        self,
        outbound: Optional[List[ActionTree]] = None,
        inbound: Optional[List[ActionTree]] = None,
        name: str = "",
    ) -> None:
        self.outbound = list(outbound or [])
        self.inbound = list(inbound or [])
        self.name = name

    # ------------------------------------------------------------------

    def apply_outbound(self, packet: Packet, rng: random.Random) -> List[Packet]:
        """Transform one outbound packet into the packets to send."""
        return self._apply(self.outbound, packet, rng)

    def apply_inbound(self, packet: Packet, rng: random.Random) -> List[Packet]:
        """Transform one inbound packet into the packets to deliver."""
        return self._apply(self.inbound, packet, rng)

    @staticmethod
    def _apply(forest: List[ActionTree], packet: Packet, rng: random.Random) -> List[Packet]:
        for trigger, action in forest:
            if trigger.matches(packet):
                return action.apply(packet.copy(), rng)
        return [packet]

    # ------------------------------------------------------------------

    def tree_size(self) -> int:
        """Total node count across all action trees (complexity metric)."""
        return sum(action.tree_size() for _, action in self.outbound + self.inbound)

    def copy(self) -> "Strategy":
        """Deep copy (stateful actions come back with fresh state)."""
        return Strategy(
            [(trigger, action.copy()) for trigger, action in self.outbound],
            [(trigger, action.copy()) for trigger, action in self.inbound],
            name=self.name,
        )

    def is_stateful(self) -> bool:
        """Whether applying the strategy mutates it (any stateful action).

        Stateful strategies must be private to one engine: the runtime's
        parse cache shares instances across trials, so engines copy them
        at install time when this is true.
        """
        return any(
            action.is_stateful() for _, action in self.outbound + self.inbound
        )

    def is_noop(self) -> bool:
        """Whether this strategy has no action trees at all."""
        return not self.outbound and not self.inbound

    def tampers(self) -> Iterator[TamperAction]:
        """Every tamper action in both forests."""
        for _, action in self.outbound + self.inbound:
            yield from _tampers(action)

    def canonical(self) -> "Strategy":
        """Semantic normal form (see :mod:`repro.core.dsl.canonical`)."""
        from .canonical import canonical_strategy

        return canonical_strategy(self)

    def canonical_key(self) -> str:
        """Canonical DSL text; equal for behaviourally-equivalent strategies."""
        return str(self.canonical())

    @classmethod
    def parse(cls, text: str, name: str = "") -> "Strategy":
        """Parse a strategy string (see module docstring for syntax)."""
        return parse_strategy(text, name=name)

    def __str__(self) -> str:
        out = " ".join(f"{trigger}-{action}-|" for trigger, action in self.outbound)
        inb = " ".join(f"{trigger}-{action}-|" for trigger, action in self.inbound)
        return f"{out} \\/ {inb}".strip()

    def __repr__(self) -> str:
        return f"Strategy({self!s})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Strategy) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))


# ----------------------------------------------------------------------
# Parsing

class _Cursor:
    """A tiny scanning cursor over the strategy text."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise ValueError(
                f"expected {literal!r} at position {self.pos} in {self.text!r}"
            )
        self.pos += len(literal)

    def take_until(self, terminator: str) -> str:
        end = self.text.find(terminator, self.pos)
        if end < 0:
            raise ValueError(f"missing {terminator!r} in {self.text!r}")
        value = self.text[self.pos : end]
        self.pos = end + len(terminator)
        return value

    def done(self) -> bool:
        return self.pos >= len(self.text)


def parse_strategy(text: str, name: str = "") -> Strategy:
    """Parse a full strategy string into a :class:`Strategy`."""
    if "\\/" in text:
        out_text, _, in_text = text.partition("\\/")
    else:
        out_text, in_text = text, ""
    return Strategy(_parse_forest(out_text), _parse_forest(in_text), name=name)


def _parse_forest(text: str) -> List[ActionTree]:
    cursor = _Cursor(text)
    forest: List[ActionTree] = []
    while True:
        cursor.skip_ws()
        if cursor.done():
            return forest
        cursor.expect("[")
        trigger = Trigger.parse(cursor.take_until("]"))
        cursor.expect("-")
        action = _parse_action(cursor)
        cursor.skip_ws()
        cursor.expect("-|")
        _check_transport(trigger, action)
        forest.append((trigger, action))


def _tampers(action: Action) -> Iterator[TamperAction]:
    """Every tamper action in one action tree."""
    stack = [action]
    while stack:
        node = stack.pop()
        if isinstance(node, TamperAction):
            yield node
        stack.extend(node.children())


def _check_transport(trigger: Trigger, action: Action) -> None:
    """Reject a ``UDP:`` tamper under a ``[TCP:...]`` trigger, or vice versa.

    Every action works on the triggered packet or its copies and
    fragments, so such a tamper could only raise when it fires. An
    ``[IP:...]`` trigger matches either transport.
    """
    other = {"TCP": "UDP", "UDP": "TCP"}.get(trigger.protocol)
    for tamper in _tampers(action):
        if tamper.protocol == other:
            raise ValueError(
                f"{tamper} under {trigger}: the trigger's packets carry no {other} layer"
            )


def parse_action(text: str) -> Action:
    """Parse a standalone action tree (without trigger or terminator)."""
    cursor = _Cursor(text)
    action = _parse_action(cursor)
    cursor.skip_ws()
    if not cursor.done():
        raise ValueError(f"trailing input at position {cursor.pos} in {text!r}")
    return action


def _parse_action(cursor: _Cursor) -> Action:
    cursor.skip_ws()
    name_start = cursor.pos
    while cursor.peek().isalpha():
        cursor.pos += 1
    name = cursor.text[name_start : cursor.pos]
    if not name:
        raise ValueError(f"expected action name at position {cursor.pos}")

    args = ""
    if cursor.peek() == "{":
        cursor.pos += 1
        args = cursor.take_until("}")

    first: Optional[Action] = None
    second: Optional[Action] = None
    if cursor.peek() == "(":
        cursor.pos += 1
        cursor.skip_ws()
        if cursor.peek() not in (",", ")"):
            first = _parse_action(cursor)
        cursor.skip_ws()
        if cursor.peek() == ",":
            cursor.pos += 1
            cursor.skip_ws()
            if cursor.peek() != ")":
                second = _parse_action(cursor)
        cursor.skip_ws()
        cursor.expect(")")

    return _build_action(name, args, first, second)


def _build_action(
    name: str, args: str, first: Optional[Action], second: Optional[Action]
) -> Action:
    if name == "send":
        _require_leaf(name, args, first, second)
        return SendAction()
    if name == "drop":
        _require_leaf(name, args, first, second)
        return DropAction()
    if name == "duplicate":
        if args:
            raise ValueError("duplicate takes no arguments")
        return DuplicateAction(first, second)
    if name == "tamper":
        parts = args.split(":", 3)
        if len(parts) < 3:
            raise ValueError(f"malformed tamper arguments {args!r}")
        protocol, field, mode = parts[0], parts[1], parts[2]
        value = parts[3] if len(parts) > 3 else ""
        if second is not None:
            raise ValueError("tamper takes a single child")
        action = TamperAction(protocol, field, mode, value, first)
        _check_tamper(action)
        return action
    if name == "fragment":
        parts = args.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed fragment arguments {args!r}")
        protocol, offset, in_order = parts
        return FragmentAction(
            protocol, int(offset), in_order.strip().lower() == "true", first, second
        )
    if name == "recordsplit":
        if second is not None:
            raise ValueError("recordsplit takes a single child")
        if not args:
            raise ValueError("recordsplit requires an offset argument")
        return RecordSplitAction(int(args), first)
    if name == "stall":
        if second is not None:
            raise ValueError("stall takes a single child")
        if not args:
            raise ValueError("stall requires a count argument")
        return StallAction(int(args), first)
    raise ValueError(f"unknown action {name!r}")


def _check_tamper(action: TamperAction) -> None:
    """Reject an unknown protocol or field, or an unparseable replace value, now.

    Otherwise the error would surface mid-simulation, when the action
    first fires on a packet.
    """
    field = action.field
    specs = [
        registry[field]
        for registry in field_registries(action.protocol)
        if field in registry
    ]
    if not specs:
        raise ValueError(f"unknown tamper field {action.protocol}:{field}")
    if action.mode == "replace":
        for spec in specs:
            try:
                parse_replace_value(spec, action.value)
            except ValueError as exc:
                raise ValueError(
                    f"bad {action.protocol}:{field} replace value {action.value!r}: {exc}"
                ) from None


def _require_leaf(
    name: str, args: str, first: Optional[Action], second: Optional[Action]
) -> None:
    if args or first is not None or second is not None:
        raise ValueError(f"{name} takes no arguments or children")
