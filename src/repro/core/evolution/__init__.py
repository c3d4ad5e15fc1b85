"""Geneva's genetic algorithm: gene pools, operators, fitness, and the loop."""

from .coevolve import (
    CoevolveConfig,
    CoevolveResult,
    CoevolveStats,
    EpochRecord,
    FrontierEntry,
    PairEvaluator,
    PairOutcome,
    paper_strategy_numbers,
    run_coevolution,
)
from .crossover import crossover
from .fitness import CensorTrialEvaluator, EvalStats, FitnessEvaluator
from .ga import EvolutionResult, GAConfig, GAResult, GARunState, GeneticAlgorithm
from .genes import GenePool, client_side_pool, genome_key, server_side_pool
from .islands import IslandConfig, run_islands
from .minimize import candidate_reductions, minimize
from .mutation import all_nodes, mutate, replace_node

__all__ = [
    "CensorTrialEvaluator",
    "CoevolveConfig",
    "CoevolveResult",
    "CoevolveStats",
    "EpochRecord",
    "EvalStats",
    "EvolutionResult",
    "FitnessEvaluator",
    "FrontierEntry",
    "GAConfig",
    "GAResult",
    "GARunState",
    "GenePool",
    "IslandConfig",
    "GeneticAlgorithm",
    "PairEvaluator",
    "PairOutcome",
    "all_nodes",
    "candidate_reductions",
    "client_side_pool",
    "crossover",
    "genome_key",
    "minimize",
    "mutate",
    "paper_strategy_numbers",
    "replace_node",
    "run_coevolution",
    "server_side_pool",
]
