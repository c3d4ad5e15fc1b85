"""Semantic canonicalization of Geneva strategies.

Evolution produces heaps of *textually distinct but behaviourally
identical* genomes: a mutated second tree behind the same trigger can
never fire (first match wins), ``duplicate`` with a ``drop`` branch is
just its other branch, ``stall{0}`` stalls nothing, and trigger values
like ``SA`` vs ``AS`` or ``10`` vs ``010`` denote the same predicate
(flags match as sets, ints by value). :func:`canonical_strategy` rewrites
a strategy into a normal form with all of that folded away, so the GA's
fitness memo — and the content-addressed result cache underneath it —
collapse every such duplicate onto one evaluation.

Every rule here is *semantics-preserving in the strict sense the runtime
needs*: the canonical strategy produces byte-identical packet traces for
every trial, which also requires preserving the RNG draw sequence —
``corrupt`` tampers draw from the trial RNG, so no rule may remove or
reorder one. The property suite in ``tests/core/test_canonical_property``
checks trace equality for random genomes against every censor.

The rules:

**Action trees** (applied bottom-up)

- ``duplicate(A, drop)`` → ``A``; ``duplicate(drop, A)`` → ``A`` (a
  dropped copy contributes nothing, and ``drop`` draws no randomness).
- ``fragment{p:offset:order}(A, B)`` → ``A`` when ``offset <= 0`` (the
  guard in :meth:`FragmentAction.apply` always takes the first branch;
  the second branch never runs).
- ``stall{n}(C)`` → ``C`` when ``n <= 0`` (never drops anything).
- ``recordsplit{o}(C)`` → ``C`` when ``o <= 0``
  (:func:`~repro.apps.tls.resplit_first_record` refuses the split).
- ``tamper{P:F:replace:v1}(tamper{P:F:replace:v2}(C))`` → the inner
  tamper: the outer write is dead-stored by its direct child. Only
  ``replace`` children qualify (``corrupt`` of a bytes field depends on
  the *current* value's length), and only when ``v1`` itself parses for
  the field (an unparseable value raises at apply time, which removal
  would suppress).
- ``replace`` values are normalized per field kind the same way trigger
  values are (``010`` → ``10`` for ints, case/order/duplicates folded
  for flag sets) — the parsed value, hence the wire, is unchanged.

**Forests** (after trigger normalization)

- Trigger values are normalized per field kind: flag sets are rewritten
  into canonical wire order (``AS`` → ``SA``), integer values to
  ``str(int(v))``. A trigger that can never match any packet — unknown
  protocol/field, invalid flag letter, unparseable integer — marks its
  whole tree dead, and dead trees are removed.
- A tree whose (normalized) trigger repeats an earlier tree's is
  unreachable and removed.
- Trailing trees whose action is a plain ``send`` are removed: a match
  emits the packet unchanged, exactly what falling off the forest does.
- When every trigger in the forest tests the *same* field (so the
  predicates are mutually exclusive once values are distinct), ``send``
  trees anywhere are identity and removed, and the surviving trees are
  sorted by trigger text — trigger order is commutative for exclusive
  predicates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...packets import TCP, UDP, IPv4, IPv6, TCP_FLAG_LETTERS
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
from .parser import Strategy
from .triggers import Trigger

__all__ = ["canonical_strategy", "canonical_key", "normalize_trigger"]

_FLAG_ORDER = {letter: index for index, letter in enumerate(TCP_FLAG_LETTERS)}

#: Memos of the two pure lookups every canonicalized tree repeats, keyed
#: on their arguments and holding only immutable values. Cleared when
#: full, like the runtime's strategy parse cache.
_KINDS: Dict[Tuple[str, str], Tuple[str, ...]] = {}
_TRIGGERS: Dict[Trigger, Optional[Tuple[Trigger, Optional[str]]]] = {}
_MEMO_MAX = 512


def _field_kinds(protocol: str, field: str) -> Tuple[str, ...]:
    """Field kinds a ``protocol:field`` name can resolve to at match time.

    ``IP`` consults both the v4 and v6 registries (a packet's version
    picks one); unknown protocols or fields resolve to nothing.
    """
    key = (protocol, field)
    kinds = _KINDS.get(key)
    if kinds is None:
        protocol = protocol.upper()
        if protocol == "TCP":
            registries = (TCP.FIELDS,)
        elif protocol == "UDP":
            registries = (UDP.FIELDS,)
        elif protocol == "IP":
            registries = (IPv4.FIELDS, IPv6.FIELDS)
        else:
            registries = ()
        kinds = tuple(sorted({r[field].kind for r in registries if field in r}))
        if len(_KINDS) >= _MEMO_MAX:
            _KINDS.clear()
        _KINDS[key] = kinds
    return kinds


def normalize_trigger(trigger: Trigger) -> Optional[Tuple[Trigger, Optional[str]]]:
    """Normalize a trigger's value; ``None`` if it can never match.

    Returns ``(canonical_trigger, kind)`` where ``kind`` is the field
    kind when it is unambiguous (used to reason about mutual exclusion)
    or ``None`` when it is not.
    """
    try:
        return _TRIGGERS[trigger]
    except KeyError:
        pass
    normalized = _normalize_trigger(trigger)
    if len(_TRIGGERS) >= _MEMO_MAX:
        _TRIGGERS.clear()
    _TRIGGERS[trigger] = normalized
    return normalized


def _normalize_trigger(trigger: Trigger) -> Optional[Tuple[Trigger, Optional[str]]]:
    kinds = _field_kinds(trigger.protocol, trigger.field)
    if not kinds:
        return None  # unknown protocol or field: matches no packet, ever
    if len(kinds) > 1:
        # Same field name, different kinds across IP versions: keep the
        # trigger verbatim and treat its semantics as opaque.
        return Trigger(trigger.protocol.upper(), trigger.field, trigger.value), None
    kind = kinds[0]
    value = trigger.value
    if kind == "flags":
        letters = set(value.upper())
        if letters - set(TCP_FLAG_LETTERS):
            return None  # stacks only ever set canonical letters
        value = "".join(sorted(letters, key=_FLAG_ORDER.__getitem__))
    elif kind == "int":
        try:
            value = str(int(value))
        except ValueError:
            return None  # int(current) == int(value) can never hold
    return Trigger(trigger.protocol.upper(), trigger.field, value), kind


def _replace_value_parses(protocol: str, field: str, value: str) -> bool:
    """Whether ``tamper{...:replace:value}`` parses its value cleanly.

    The dead-store rule must not remove a tamper that would *raise* at
    apply time (removal would turn a broken trial into a working one).
    """
    from ...packets.fields import parse_replace_value

    kinds = _field_kinds(protocol, field)
    if len(kinds) != 1:
        return False
    spec_kind = kinds[0]
    if spec_kind in ("ip",):
        # v6 setters eagerly expand the text; validity is packet-shaped.
        return False

    class _Probe:
        kind = spec_kind

    try:
        parse_replace_value(_Probe, value)  # type: ignore[arg-type]
    except ValueError:
        return False
    return True


def _canonical_replace_value(protocol: str, field: str, value: str) -> str:
    """Normalize a ``replace`` value to its canonical spelling.

    Only rewrites values whose parsed form — what actually reaches the
    packet setter — is provably unchanged: integer respellings and flag
    sets (the setter canonicalizes order and duplicates anyway).
    Anything unparseable is left verbatim so apply-time errors survive.
    """
    kinds = _field_kinds(protocol, field)
    if len(kinds) != 1:
        return value
    kind = kinds[0]
    if kind == "int":
        try:
            return str(int(value)) if value.strip() else "0"
        except ValueError:
            return value
    if kind == "flags":
        letters = set(value.strip().upper())
        if letters - set(TCP_FLAG_LETTERS):
            return value
        return "".join(sorted(letters, key=_FLAG_ORDER.__getitem__))
    return value


def _canonical_action(action: Action) -> Action:
    """Rewrite one action tree bottom-up into canonical form."""
    if isinstance(action, DuplicateAction):
        first = _canonical_action(action.first)
        second = _canonical_action(action.second)
        if isinstance(second, DropAction):
            return first
        if isinstance(first, DropAction):
            return second
        return DuplicateAction(first, second)
    if isinstance(action, FragmentAction):
        first = _canonical_action(action.first)
        if action.offset <= 0:
            return first
        return FragmentAction(
            action.protocol,
            action.offset,
            action.in_order,
            first,
            _canonical_action(action.second),
        )
    if isinstance(action, TamperAction):
        child = _canonical_action(action.child)
        if (
            action.mode == "replace"
            and isinstance(child, TamperAction)
            and child.mode == "replace"
            and child.protocol == action.protocol
            and child.field == action.field
            and _replace_value_parses(action.protocol, action.field, action.value)
        ):
            return child
        value = action.value
        if action.mode == "replace":
            value = _canonical_replace_value(action.protocol, action.field, value)
        return TamperAction(action.protocol, action.field, action.mode, value, child)
    if isinstance(action, StallAction):
        child = _canonical_action(action.child)
        if action.count <= 0:
            return child
        return StallAction(action.count, child)
    if isinstance(action, RecordSplitAction):
        child = _canonical_action(action.child)
        if action.offset <= 0:
            return child
        return RecordSplitAction(action.offset, child)
    return action.copy()  # send / drop leaves


def _canonical_forest(
    forest: List[Tuple[Trigger, Action]]
) -> List[Tuple[Trigger, Action]]:
    trees: List[Tuple[Trigger, Action, Optional[str]]] = []
    seen = set()
    for trigger, action in forest:
        normalized = normalize_trigger(trigger)
        if normalized is None:
            continue  # dead tree: the trigger matches no packet
        canon_trigger, kind = normalized
        key = (canon_trigger.protocol, canon_trigger.field, canon_trigger.value)
        if key in seen:
            continue  # unreachable: an earlier tree owns this predicate
        seen.add(key)
        trees.append((canon_trigger, _canonical_action(action), kind))

    # A trailing send-tree is identity: matching emits the packet as-is,
    # which is exactly what falling off the end of the forest does.
    while trees and isinstance(trees[-1][1], SendAction):
        trees.pop()

    exclusive = (
        len(trees) > 1
        and len({(t.protocol, t.field) for t, _, _ in trees}) == 1
        and all(kind is not None for _, _, kind in trees)
    )
    if exclusive:
        # Distinct values on one field are mutually exclusive predicates:
        # send-trees are identity anywhere, and order is commutative.
        trees = [t for t in trees if not isinstance(t[1], SendAction)]
        trees.sort(key=lambda item: str(item[0]))
    return [(trigger, action) for trigger, action, _ in trees]


def canonical_strategy(strategy: Strategy) -> Strategy:
    """The canonical form of ``strategy`` (a new, behaviour-identical object)."""
    return Strategy(
        _canonical_forest(strategy.outbound),
        _canonical_forest(strategy.inbound),
        name=strategy.name,
    )


def canonical_key(strategy: Strategy) -> str:
    """Canonical DSL text: equal for all behaviourally-equivalent genomes."""
    return str(canonical_strategy(strategy))
