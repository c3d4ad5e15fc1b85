"""Mutation operators over strategy action trees.

Geneva's genetic algorithm mutates individuals by growing, shrinking and
rewriting their action trees. :func:`mutate` changes the strategy it is
given, which the caller owns: the GA hands it a child it has just copied
from its parent or built by :func:`~repro.core.evolution.crossover.crossover`,
so every child is copied exactly once. Callers that must keep the input
pass ``strategy.copy()``. Below the strategy, no operator edits a node it
was given: subtree rewrites build new nodes (:func:`replace_node`) and
copy what they graft.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..dsl import (
    Action,
    DuplicateAction,
    FragmentAction,
    SendAction,
    Strategy,
    TamperAction,
)
from .genes import GenePool

__all__ = ["mutate", "all_nodes", "replace_node"]


def all_nodes(action: Action) -> List[Action]:
    """Every node of an action subtree, root first."""
    nodes = [action]
    for child in action.children():
        nodes.extend(all_nodes(child))
    return nodes


def replace_node(root: Action, target: Action, replacement: Action) -> Action:
    """Return a copy of ``root`` with ``target`` (by identity) replaced."""
    if root is target:
        return replacement
    clone = root
    if isinstance(root, DuplicateAction):
        clone = DuplicateAction(
            replace_node(root.first, target, replacement),
            replace_node(root.second, target, replacement),
        )
    elif isinstance(root, FragmentAction):
        clone = FragmentAction(
            root.protocol,
            root.offset,
            root.in_order,
            replace_node(root.first, target, replacement),
            replace_node(root.second, target, replacement),
        )
    elif isinstance(root, TamperAction):
        clone = TamperAction(
            root.protocol,
            root.field,
            root.mode,
            root.value,
            replace_node(root.child, target, replacement),
        )
    return clone


def mutate(strategy: Strategy, pool: GenePool, rng: random.Random) -> Strategy:
    """Mutate ``strategy`` in place and return it."""
    operations = [_add_tree, _mutate_tree, _mutate_tree, _mutate_tree, _drop_tree]
    rng.choice(operations)(strategy, pool, rng)
    return strategy


# ----------------------------------------------------------------------
# Tree-level operations


def _add_tree(strategy: Strategy, pool: GenePool, rng: random.Random) -> None:
    if len(strategy.outbound) >= pool.max_trees:
        _mutate_tree(strategy, pool, rng)
        return
    trigger = pool.random_trigger(rng)
    strategy.outbound.append((trigger, pool.random_action(rng)))


def _drop_tree(strategy: Strategy, pool: GenePool, rng: random.Random) -> None:
    if len(strategy.outbound) <= 1:
        # Never leave an individual with no genetic material at all.
        _mutate_tree(strategy, pool, rng)
        return
    index = rng.randrange(len(strategy.outbound))
    del strategy.outbound[index]


def _mutate_tree(strategy: Strategy, pool: GenePool, rng: random.Random) -> None:
    if not strategy.outbound:
        _add_tree(strategy, pool, rng)
        return
    index = rng.randrange(len(strategy.outbound))
    trigger, action = strategy.outbound[index]
    strategy.outbound[index] = (trigger, _mutate_action(action, pool, rng))


# ----------------------------------------------------------------------
# Node-level operations


def _mutate_action(action: Action, pool: GenePool, rng: random.Random) -> Action:
    operators = [_wrap_duplicate, _wrap_tamper, _replace_subtree, _tweak_tamper, _prune]
    mutated = rng.choice(operators)(action, pool, rng)
    if mutated.tree_size() > pool.max_tree_size:
        return action
    return mutated


def _pick(action: Action, rng: random.Random) -> Action:
    return rng.choice(all_nodes(action))


def _wrap_duplicate(action: Action, pool: GenePool, rng: random.Random) -> Action:
    target = _pick(action, rng)
    wrapped = DuplicateAction(target.copy(), SendAction())
    if rng.random() < 0.5:
        wrapped = DuplicateAction(SendAction(), target.copy())
    return replace_node(action, target, wrapped)


def _wrap_tamper(action: Action, pool: GenePool, rng: random.Random) -> Action:
    target = _pick(action, rng)
    tamper = pool.random_tamper(rng)
    tamper.child = target.copy()
    return replace_node(action, target, tamper)


def _replace_subtree(action: Action, pool: GenePool, rng: random.Random) -> Action:
    target = _pick(action, rng)
    return replace_node(action, target, pool.random_action(rng))


def _tweak_tamper(action: Action, pool: GenePool, rng: random.Random) -> Action:
    tampers = [node for node in all_nodes(action) if isinstance(node, TamperAction)]
    if not tampers:
        return _wrap_tamper(action, pool, rng)
    target = rng.choice(tampers)
    fresh = pool.random_tamper(rng)
    fresh.child = target.child.copy()
    return replace_node(action, target, fresh)


def _prune(action: Action, pool: GenePool, rng: random.Random) -> Action:
    target = _pick(action, rng)
    children = target.children()
    promoted: Optional[Action] = None
    if isinstance(target, TamperAction):
        promoted = target.child.copy()
    elif children:
        promoted = rng.choice(children).copy()
    else:
        promoted = SendAction()
    return replace_node(action, target, promoted)
