"""Property-based tests: every generatable strategy round-trips through
its string form, and action application never corrupts unrelated packets."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Strategy, parse_strategy
from repro.core.evolution import GenePool, server_side_pool
from repro.packets import make_tcp_packet


def random_strategy(seed: int) -> Strategy:
    pool = server_side_pool()
    rng = random.Random(seed)
    trees = [
        (pool.random_trigger(rng), pool.random_action(rng))
        for _ in range(rng.randint(1, 2))
    ]
    return Strategy(trees)


@given(st.integers(0, 10_000))
@settings(max_examples=200)
def test_random_strategy_string_round_trip(seed):
    strategy = random_strategy(seed)
    text = str(strategy)
    reparsed = parse_strategy(text)
    assert str(reparsed) == text


@given(st.integers(0, 10_000))
@settings(max_examples=100)
def test_random_strategy_application_is_safe(seed):
    """Applying any generatable strategy to a SYN+ACK never raises and
    never mutates the input packet."""
    strategy = random_strategy(seed)
    packet = make_tcp_packet(
        "10.0.0.2", "10.0.0.1", 80, 4000, flags="SA", seq=1, ack=2,
        options=[("mss", 1460), ("wscale", 7)],
    )
    out = strategy.apply_outbound(packet, random.Random(seed))
    assert isinstance(out, list)
    assert packet.flags == "SA"
    assert packet.tcp.seq == 1
    for item in out:
        item.serialize()  # must always be serializable


@given(st.integers(0, 10_000))
@settings(max_examples=100)
def test_mutation_preserves_parseability(seed):
    from repro.core.evolution import mutate

    pool = server_side_pool()
    rng = random.Random(seed)
    strategy = random_strategy(seed)
    for _ in range(5):
        strategy = mutate(strategy, pool, rng)
        assert str(parse_strategy(str(strategy))) == str(strategy)
        for _, action in strategy.outbound:
            assert action.tree_size() <= pool.max_tree_size + 4


@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=60)
def test_crossover_children_parse(seed_a, seed_b):
    from repro.core.evolution import crossover

    rng = random.Random(seed_a ^ seed_b)
    a, b = random_strategy(seed_a), random_strategy(seed_b)
    for child in (crossover(a, b, rng), crossover(b, a, rng)):
        assert str(parse_strategy(str(child))) == str(child)


def random_action_tree(rng: random.Random):
    """A random tree over every action class, ``fragment``, ``stall`` and
    ``recordsplit`` included."""
    from repro.core import RecordSplitAction, StallAction

    action = GenePool(allow_fragment=True).random_action(rng)
    wrap = rng.randrange(3)
    if wrap == 1:
        return StallAction(rng.randint(0, 2), action)
    if wrap == 2:
        return RecordSplitAction(rng.randint(0, 4), action)
    return action


@given(st.integers(0, 10_000))
@settings(max_examples=200)
def test_tree_size_counts_every_node_of_both_forests(seed):
    from repro.core.evolution import all_nodes, client_side_pool

    rng = random.Random(seed)
    outbound = [
        (server_side_pool().random_trigger(rng), random_action_tree(rng))
        for _ in range(rng.randint(0, 2))
    ]
    inbound = [
        (client_side_pool().random_trigger(rng), random_action_tree(rng))
        for _ in range(rng.randint(0, 2))
    ]
    strategy = Strategy(outbound, inbound)
    nodes = [node for _, action in outbound + inbound for node in all_nodes(action)]
    assert strategy.tree_size() == len(nodes)
    for _, action in outbound + inbound:
        assert action.tree_size() == len(all_nodes(action))


@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=60)
def test_mutating_a_child_leaves_its_parents_alone(seed_a, seed_b):
    """The GA copies each child once and mutates that copy in place: no
    node of a child made by ``copy`` or ``crossover`` is a parent's."""
    from repro.core.evolution import crossover, mutate

    pool = server_side_pool()
    rng = random.Random(seed_a ^ seed_b)
    a, b = random_strategy(seed_a), random_strategy(seed_b)
    before = (str(a), str(b))
    for _ in range(3):
        for child in (a.copy(), crossover(a, b, rng), crossover(b, a, rng)):
            for _ in range(4):
                mutate(child, pool, rng)
    assert (str(a), str(b)) == before
