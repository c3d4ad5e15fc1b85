"""The genetic algorithm driving Geneva's strategy discovery.

§4.1 of the paper configures Geneva with a population of 300 individuals
evolved for 50 generations (or until convergence). Those scales are
supported; tests and examples use smaller populations against the
simulated censors, which converge in a handful of generations because the
fitness landscape is the same one the paper's strategies exploit.

Scoring is *generation-batched*: when the evaluator exposes a batch
``evaluate(strategies)`` method (as :class:`CensorTrialEvaluator` does),
every individual the per-run memo cannot answer is scored in one call —
one executor dispatch per generation instead of one per individual. The
evolutionary trajectory (selection, mutation, history, hall of fame) is
bit-identical to per-individual scoring: evaluation order, memo
insertion order, and the GA's own RNG stream are all preserved.

The loop is also exposed stepwise (:meth:`GeneticAlgorithm.start` /
:meth:`~GeneticAlgorithm.step` / :meth:`~GeneticAlgorithm.result`) so
:mod:`repro.core.evolution.islands` can advance several populations in
lockstep and pool their pending genomes into one cross-island batch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from ...obs import spans as _spans
from ...obs.metrics import Counter
from ..dsl import Strategy
from .crossover import crossover
from .fitness import FitnessEvaluator
from .genes import GenePool, server_side_pool
from .mutation import mutate

__all__ = ["GAConfig", "GARunState", "GeneticAlgorithm", "EvolutionResult", "GAResult"]

#: Evolution-loop progress. Deterministic: the GA runs on its own
#: seeded RNG, so generation and evaluation counts replay exactly.
_GA_GENERATIONS = Counter(
    "repro_ga_generations_total",
    "Generations the evolution loop has executed",
)
_GA_FITNESS_EVALS = Counter(
    "repro_ga_fitness_evals_total",
    "Fitness lookups, split by real evaluations vs memo hits",
    ("source",),  # evaluated | memoized
)

_FITNESS = itemgetter(0)


@dataclass
class GAConfig:
    """Hyperparameters for one evolution run.

    The defaults are test-scale; the paper's run used
    ``population_size=300, generations=50``.
    """

    population_size: int = 20
    generations: int = 10
    seed: int = 0
    elite_count: int = 2
    tournament_size: int = 3
    crossover_rate: float = 0.4
    mutation_rate: float = 0.9
    immigration_rate: float = 0.25
    convergence_patience: int = 5


@dataclass
class EvolutionResult:
    """Outcome of an evolution run.

    Attributes:
        best: The fittest strategy found.
        best_fitness: Its fitness.
        history: Best fitness per generation.
        generations_run: How many generations actually executed.
        hall_of_fame: Top distinct strategies (string, fitness).
    """

    best: Strategy
    best_fitness: float
    history: List[float] = field(default_factory=list)
    generations_run: int = 0
    hall_of_fame: List[Tuple[str, float]] = field(default_factory=list)


#: Alias matching the driver-facing name used in docs and CLI output.
GAResult = EvolutionResult


@dataclass
class GARunState:
    """Mutable state of one in-flight evolution loop.

    Produced by :meth:`GeneticAlgorithm.start`, advanced one generation
    at a time by :meth:`GeneticAlgorithm.step`, folded into an
    :class:`EvolutionResult` by :meth:`GeneticAlgorithm.result`.
    """

    population: List[Strategy]
    generation: int = 0
    history: List[float] = field(default_factory=list)
    best: Optional[Strategy] = None
    best_fitness: float = float("-inf")
    stale: int = 0
    done: bool = False


class GeneticAlgorithm:
    """Evolves packet-manipulation strategies against a fitness evaluator."""

    def __init__(
        self,
        evaluator: FitnessEvaluator,
        pool: Optional[GenePool] = None,
        config: Optional[GAConfig] = None,
    ) -> None:
        self.evaluator = evaluator
        self.pool = pool if pool is not None else server_side_pool()
        self.config = config if config is not None else GAConfig()
        self.rng = random.Random(self.config.seed)
        self._cache: Dict[str, float] = {}

    # ------------------------------------------------------------------

    def initial_population(self) -> List[Strategy]:
        """Random individuals, each with one small action tree."""
        population = []
        for _ in range(self.config.population_size):
            trigger = self.pool.random_trigger(self.rng)
            action = self.pool.random_action(self.rng)
            population.append(Strategy([(trigger, action)]))
        return population

    # ------------------------------------------------------------------
    # Scoring

    def _evaluate_batch(self, strategies: List[Strategy]) -> List[float]:
        """Score strategies, batched when the evaluator supports it.

        Plain-callable evaluators see each *raw* individual exactly as
        the per-individual path would hand it over (batch dedup and
        canonicalization live inside batch-capable evaluators only).
        """
        evaluate = getattr(self.evaluator, "evaluate", None)
        if evaluate is not None:
            return list(evaluate(strategies))
        return [self.evaluator(strategy) for strategy in strategies]

    def fitness(self, strategy: Strategy) -> float:
        """Evaluate one individual (memoized on the strategy string)."""
        key = str(strategy)
        if key not in self._cache:
            self._cache[key] = self._evaluate_batch([strategy])[0]
            _GA_FITNESS_EVALS.inc(source="evaluated")
        else:
            _GA_FITNESS_EVALS.inc(source="memoized")
        return self._cache[key]

    def pending_individuals(self, population: List[Strategy]) -> List[Strategy]:
        """Individuals the per-run memo cannot answer (first-spelling only)."""
        pending: List[Strategy] = []
        seen = set()
        for individual in population:
            key = str(individual)
            if key not in self._cache and key not in seen:
                seen.add(key)
                pending.append(individual)
        return pending

    def score_population(
        self, population: List[Strategy]
    ) -> List[Tuple[float, Strategy]]:
        """Score a whole population with one batched dispatch.

        Returns ``(fitness, individual)`` sorted best-first, with the
        same stable tie order (population order) as per-individual
        scoring; memo bookkeeping and the evaluated/memoized metric
        split match the per-individual path count for count. Each
        individual's text is printed once.
        """
        cache = self._cache
        keys = [str(individual) for individual in population]
        pending: List[Strategy] = []
        pending_keys: List[str] = []
        seen = set()
        for key, individual in zip(keys, population):
            if key not in cache and key not in seen:
                seen.add(key)
                pending.append(individual)
                pending_keys.append(key)
        memoized = len(keys) - len(pending)
        if memoized:
            _GA_FITNESS_EVALS.inc(memoized, source="memoized")
        if pending:
            _GA_FITNESS_EVALS.inc(len(pending), source="evaluated")
            for key, score in zip(pending_keys, self._evaluate_batch(pending)):
                cache[key] = score
        return sorted(
            zip([cache[key] for key in keys], population),
            key=_FITNESS,
            reverse=True,
        )

    # ------------------------------------------------------------------
    # Selection and breeding

    def _tournament(self, scored: List[Tuple[float, Strategy]]) -> Strategy:
        contenders = [
            scored[self.rng.randrange(len(scored))]
            for _ in range(self.config.tournament_size)
        ]
        return max(contenders, key=_FITNESS)[1]

    def _next_generation(
        self, scored: List[Tuple[float, Strategy]]
    ) -> List[Strategy]:
        config = self.config
        next_gen: List[Strategy] = [ind.copy() for _, ind in scored[: config.elite_count]]
        # Immigration: keep injecting fresh random individuals so the
        # population never fully collapses onto one local optimum.
        immigrants = int(config.population_size * config.immigration_rate)
        for _ in range(immigrants):
            trigger = self.pool.random_trigger(self.rng)
            next_gen.append(Strategy([(trigger, self.pool.random_action(self.rng))]))
        while len(next_gen) < config.population_size:
            # Each child is copied once, by ``copy`` or by ``crossover``,
            # and ``mutate`` then changes that copy in place.
            parent = self._tournament(scored)
            if self.rng.random() < config.crossover_rate:
                child = crossover(parent, self._tournament(scored), self.rng)
            else:
                child = parent.copy()
            if self.rng.random() < config.mutation_rate:
                mutate(child, self.pool, self.rng)
            next_gen.append(child)
        return next_gen

    # ------------------------------------------------------------------
    # Stepwise loop

    def start(self, population: Optional[List[Strategy]] = None) -> GARunState:
        """Begin a run; returns state for :meth:`step`/:meth:`result`."""
        state = GARunState(
            population if population is not None else self.initial_population()
        )
        if self.config.generations <= 0:
            state.done = True
        return state

    def step(self, state: GARunState) -> GARunState:
        """Advance one generation (score, bookkeep, breed)."""
        if state.done:
            return state
        config = self.config
        _GA_GENERATIONS.inc()
        with _spans.span("ga/generation"):
            scored = self.score_population(state.population)
        top_fitness, top = scored[0]
        state.history.append(top_fitness)
        if top_fitness > state.best_fitness:
            state.best_fitness = top_fitness
            state.best = top
            state.stale = 0
        else:
            state.stale += 1
        state.generation += 1
        if state.stale >= config.convergence_patience:
            state.done = True
            return state
        # Breed even on the final generation — the legacy loop did, and
        # keeping the RNG stream identical keeps trajectories replayable.
        state.population = self._next_generation(scored)
        if state.generation >= config.generations:
            state.done = True
        return state

    def result(self, state: GARunState) -> EvolutionResult:
        """Fold finished (or in-flight) state into an :class:`EvolutionResult`."""
        fame = sorted(self._cache.items(), key=lambda item: item[1], reverse=True)
        return EvolutionResult(
            best=state.best if state.best is not None else state.population[0],
            best_fitness=state.best_fitness,
            history=list(state.history),
            generations_run=len(state.history),
            hall_of_fame=fame[:10],
        )

    def run(self, population: Optional[List[Strategy]] = None) -> EvolutionResult:
        """Execute the evolution loop; returns the best strategy found."""
        state = self.start(population)
        while not state.done:
            self.step(state)
        return self.result(state)
