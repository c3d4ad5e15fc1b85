"""Crossover operator: exchange genetic material between two strategies."""

from __future__ import annotations

import random

from ..dsl import Strategy
from .mutation import all_nodes, replace_node

__all__ = ["crossover"]


def crossover(left: Strategy, right: Strategy, rng: random.Random) -> Strategy:
    """Breed one child: ``left`` with a tree or subtree taken from ``right``.

    The child is a fresh copy of ``left`` that shares no node with
    either parent, so the caller may mutate it in place. With a
    probability of one half the child's chosen tree is replaced whole by
    ``right``'s chosen tree (trigger included); otherwise a random node
    of it is replaced by a copy of a random node of ``right``'s tree. If
    either parent has no action trees, the child is a plain copy of
    ``left``. Neither parent is modified.
    """
    child = left.copy()
    if not child.outbound or not right.outbound:
        return child

    ci = rng.randrange(len(child.outbound))
    ri = rng.randrange(len(right.outbound))
    donor_trigger, donor = right.outbound[ri]

    if rng.random() < 0.5:
        # Whole-tree swap.
        child.outbound[ci] = (donor_trigger, donor.copy())
        return child

    # Subtree swap.
    trigger, action = child.outbound[ci]
    node = rng.choice(all_nodes(action))
    graft = rng.choice(all_nodes(donor))
    child.outbound[ci] = (trigger, replace_node(action, node, graft.copy()))
    return child
