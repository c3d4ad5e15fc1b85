"""Tests for the genetic algorithm components."""

import random

import pytest

from repro.core import Strategy, TamperAction
from repro.core.evolution import (
    CensorTrialEvaluator,
    GAConfig,
    GeneticAlgorithm,
    all_nodes,
    client_side_pool,
    crossover,
    mutate,
    replace_node,
    server_side_pool,
)


class TestGenePool:
    def test_server_pool_triggers_synack_only(self):
        pool = server_side_pool()
        assert [str(t) for t in pool.triggers] == ["[TCP:flags:SA]"]

    def test_client_pool_triggers(self):
        pool = client_side_pool()
        assert len(pool.triggers) == 2

    def test_random_actions_within_size_cap(self, rng):
        pool = server_side_pool()
        for _ in range(200):
            action = pool.random_action(rng)
            assert action.tree_size() <= pool.max_tree_size + 4

    def test_random_tamper_valid(self, rng):
        pool = server_side_pool()
        for _ in range(100):
            tamper = pool.random_tamper(rng)
            assert tamper.mode in ("replace", "corrupt")


class TestTreeOps:
    def test_all_nodes_counts(self):
        action = Strategy.parse(
            "[TCP:flags:SA]-duplicate(tamper{TCP:ack:corrupt},)-| \\/"
        ).outbound[0][1]
        assert len(all_nodes(action)) == action.tree_size()

    def test_replace_node_by_identity(self):
        action = Strategy.parse(
            "[TCP:flags:SA]-duplicate(tamper{TCP:ack:corrupt},)-| \\/"
        ).outbound[0][1]
        target = action.first
        replacement = TamperAction("TCP", "seq", "corrupt")
        rebuilt = replace_node(action, target, replacement)
        assert "tamper{TCP:seq:corrupt}" in str(rebuilt)
        assert "tamper{TCP:ack:corrupt}" not in str(rebuilt)

    def test_mutate_changes_the_child_it_is_given(self, rng):
        pool = server_side_pool()
        parent = Strategy.parse("[TCP:flags:SA]-duplicate-| \\/")
        child = parent.copy()
        assert mutate(child, pool, rng) is child
        assert str(parent) == "[TCP:flags:SA]-duplicate-| \\/"  # unchanged

    def test_mutate_never_empties(self, rng):
        pool = server_side_pool()
        strategy = Strategy.parse("[TCP:flags:SA]-send-| \\/")
        for _ in range(100):
            strategy = mutate(strategy, pool, rng)
            assert strategy.outbound

    def test_crossover_swaps_material(self):
        rng = random.Random(0)
        a = Strategy.parse("[TCP:flags:SA]-tamper{TCP:ack:corrupt}-| \\/")
        b = Strategy.parse("[TCP:flags:SA]-tamper{TCP:seq:corrupt}-| \\/")
        seen = set()
        for _ in range(20):
            seen.add(str(crossover(a, b, rng)))
        assert any("seq" in text for text in seen)  # material moved at least once


class TestGA:
    def test_fitness_memoized(self):
        calls = []

        def evaluator(strategy):
            calls.append(str(strategy))
            return 1.0

        ga = GeneticAlgorithm(evaluator, config=GAConfig(population_size=4, generations=1))
        s = Strategy.parse("[TCP:flags:SA]-duplicate-| \\/")
        ga.fitness(s)
        ga.fitness(s.copy())
        assert len(calls) == 1

    def test_run_returns_best_and_history(self):
        def evaluator(strategy):
            # Favour small strategies deterministically.
            return -float(strategy.tree_size())

        ga = GeneticAlgorithm(
            evaluator, config=GAConfig(population_size=8, generations=5, seed=1)
        )
        result = ga.run()
        assert result.generations_run >= 1
        assert result.history
        assert result.best is not None
        assert result.hall_of_fame

    def test_convergence_stops_early(self):
        ga = GeneticAlgorithm(
            lambda s: 0.0,
            config=GAConfig(population_size=6, generations=50, seed=2, convergence_patience=3),
        )
        result = ga.run()
        assert result.generations_run < 50

    @pytest.mark.slow
    def test_rediscovers_kazakhstan_strategy(self):
        """Evolution finds a working server-side strategy against the
        (deterministic) Kazakhstan censor — the paper's core capability."""
        evaluator = CensorTrialEvaluator("kazakhstan", "http", trials=2, seed=5)
        ga = GeneticAlgorithm(
            evaluator,
            config=GAConfig(
                population_size=30, generations=30, seed=3, convergence_patience=12
            ),
        )
        result = ga.run()
        assert result.best_fitness > 50  # evades censorship
        # And the evolved strategy really works end-to-end:
        from repro.eval import run_trial

        wins = sum(
            run_trial("kazakhstan", "http", result.best, seed=100 + i).succeeded
            for i in range(5)
        )
        assert wins >= 4
