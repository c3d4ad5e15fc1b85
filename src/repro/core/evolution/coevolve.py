"""Co-evolving censors against Geneva strategy populations.

The paper's evaluation is a snapshot: server-side strategies vs *static*
censor models. This module runs the arms race forward. A population of
:class:`~repro.censors.adaptive.CensorGenome` censor configurations
co-evolves against a population of Geneva strategies in alternating
lockstep epochs:

- **strategies** are scored against the current *censor hall of fame*
  (the strongest adapted censors so far) with the same Geneva-shaped
  fitness the single-censor GA uses;
- **censors** are scored by how many *hall-of-fame strategies* they
  defeat (evasion rate pushed below :data:`DEFEAT_THRESHOLD`).

Execution reuses the batched-dispatch discipline of
:class:`~repro.core.evolution.fitness.CensorTrialEvaluator`: each epoch
collects the full population x population pair grid, dedups it on
*(canonical strategy, canonical censor genome)* against a cross-epoch
memo, and sends everything unseen to the executor as **one**
:meth:`~repro.runtime.TrialExecutor.run_batch` call. Trial seeds derive
from ``trial_seed(seed, index)`` per pair — never from submission order —
so the whole trajectory is bit-identical for any worker count.

The deliverable is a **strategy-robustness frontier**
(:class:`CoevolveResult.frontier`): for every paper strategy applicable
to the country, its evasion rate against the calibrated baseline censor
vs its worst-case rate against the final adapted hall of fame, classified
``survived`` / ``degraded`` / ``collapsed``, plus whatever novel
strategies the arms race surfaced along the way.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ...censors.adaptive import CensorGenome, seeded_censor_population
from ...censors.countries import country_profile
from ...obs.metrics import Counter, Histogram
from ..dsl import Strategy
from ..strategies import SERVER_STRATEGIES
from .fitness import (
    COMPLEXITY_TAX,
    PENALTY_BROKEN,
    PENALTY_CENSORED,
    REWARD_SUCCESS,
)
from .ga import GAConfig, GeneticAlgorithm

__all__ = [
    "CoevolveConfig",
    "CoevolveResult",
    "CoevolveStats",
    "DEFEAT_THRESHOLD",
    "EpochRecord",
    "FrontierEntry",
    "PairEvaluator",
    "PairOutcome",
    "paper_strategy_numbers",
    "run_coevolution",
]

#: A censor "defeats" a strategy when it pushes the strategy's evasion
#: rate strictly below this.
DEFEAT_THRESHOLD = 0.5

#: Frontier classification thresholds: a strategy has *collapsed* when a
#: baseline-effective strategy (static rate >= EFFECTIVE_RATE) drops to
#: COLLAPSE_RATE or below against the adapted hall of fame; it is
#: *degraded* when it loses at least DEGRADED_DROP of absolute evasion
#: rate; otherwise it *survived*.
EFFECTIVE_RATE = 0.5
COLLAPSE_RATE = 0.2
DEGRADED_DROP = 0.25

#: Co-evolution telemetry. All deterministic: dedup and memo decisions
#: happen before dispatch on the engine's own seeded trajectory, so the
#: counts replay exactly regardless of worker count.
_CO_EPOCHS = Counter(
    "repro_coevolve_epochs_total",
    "Co-evolution epochs executed",
)
_CO_BATCHES = Counter(
    "repro_coevolve_batches_total",
    "Pair-grid dispatches sent to the executor",
)
_CO_PAIRS = Counter(
    "repro_coevolve_pairs_total",
    "Strategy x censor pairs submitted, by how each was satisfied",
    ("source",),  # evaluated | memoized | duplicate
)
_CO_GRID = Histogram(
    "repro_coevolve_batch_pairs",
    "Distinct pairs per pair-grid dispatch",
    buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500),
)


def paper_strategy_numbers(country: str) -> List[int]:
    """The paper strategies (1-15) applicable to ``country``, in order."""
    return [
        number
        for number in sorted(SERVER_STRATEGIES)
        if country in SERVER_STRATEGIES[number].countries
    ]


@dataclasses.dataclass
class CoevolveConfig:
    """Hyperparameters for one co-evolution run.

    The defaults are smoke-scale: a three-epoch arms race over a dozen
    strategies and half a dozen censor variants finishes in seconds while
    already degrading resync-dependent paper strategies.

    Attributes:
        epochs: Alternating lockstep epochs to run.
        strategy_population: Geneva strategy population size.
        censor_population: Censor genome population size.
        trials: Trials per (strategy, censor) pair during the search.
        seed: Base seed for the whole trajectory (GA streams, censor
            breeding, and per-pair trial seeds all derive from it).
        strategy_hof_size: Strategy hall-of-fame cap after each epoch
            (the initial hall of fame is every applicable paper
            strategy, even when that exceeds the cap).
        censor_hof_size: Censor hall-of-fame cap.
        generations_per_epoch: Strategy-GA generations per epoch. The
            canonical ``1`` keeps the whole epoch's grid to a single
            executor dispatch.
        frontier_trials: Trials per pair for the final frontier report
            (higher than ``trials`` for a steadier rate estimate).
        censor_elite: Top censors copied unchanged into the next
            generation.
        censor_tournament: Censor tournament-selection size.
        censor_crossover_rate: Probability a bred censor crosses two
            parents instead of cloning one.
        censor_mutation_rate: Probability a bred censor is mutated.
    """

    epochs: int = 3
    strategy_population: int = 12
    censor_population: int = 6
    trials: int = 2
    seed: int = 1
    strategy_hof_size: int = 6
    censor_hof_size: int = 3
    generations_per_epoch: int = 1
    frontier_trials: int = 10
    censor_elite: int = 2
    censor_tournament: int = 2
    censor_crossover_rate: float = 0.4
    censor_mutation_rate: float = 0.9


@dataclasses.dataclass
class CoevolveStats:
    """Dedup/batching counters for one :class:`PairEvaluator`.

    Attributes:
        submitted: Pairs received by :meth:`PairEvaluator.prefetch`.
        evaluated: Distinct pairs actually sent to the executor.
        memo_hits: Pairs answered from the cross-epoch memo.
        duplicates: Pairs that collapsed onto another pair in the same
            grid (canonical-key dedup).
        batches: ``run_batch`` dispatches issued.
        trials: Trial specs dispatched (evaluated pairs x trials).
    """

    submitted: int = 0
    evaluated: int = 0
    memo_hits: int = 0
    duplicates: int = 0
    batches: int = 0
    trials: int = 0

    def format(self) -> str:
        """One ``--stats``-style summary line."""
        return (
            f"coevolve: pairs={self.submitted} evaluated={self.evaluated} "
            f"memo_hits={self.memo_hits} duplicates={self.duplicates} "
            f"batches={self.batches} trials={self.trials}"
        )

    def merged(self, other: "CoevolveStats") -> "CoevolveStats":
        """Field-wise sum of two counter sets."""
        return CoevolveStats(
            *(
                getattr(self, f.name) + getattr(other, f.name)
                for f in dataclasses.fields(CoevolveStats)
            )
        )


@dataclasses.dataclass(frozen=True)
class PairOutcome:
    """Aggregated trial outcomes for one (strategy, censor) pair.

    Attributes:
        successes: Trials meeting the paper's evasion criterion.
        censored: Trials where the censor acted (and evasion failed).
        broken: Trials that failed without censor action.
        trials: Total trials behind the tallies.
    """

    successes: int
    censored: int
    broken: int
    trials: int

    @property
    def evasion_rate(self) -> float:
        """Fraction of trials that evaded censorship."""
        return self.successes / self.trials

    @property
    def score(self) -> float:
        """The Geneva-shaped pre-tax fitness of this pair's trials."""
        return (
            REWARD_SUCCESS * self.successes
            + PENALTY_CENSORED * self.censored
            + PENALTY_BROKEN * self.broken
        ) / self.trials


@dataclasses.dataclass
class PairEvaluator:
    """Batched, memoized trial execution over a strategy x censor grid.

    The co-evolution analogue of
    :class:`~repro.core.evolution.fitness.CensorTrialEvaluator`: pairs
    are deduped on *(canonical strategy text, canonical censor genome)*,
    answered from a cross-epoch memo where possible, and everything
    unseen goes to the executor as a single ``run_batch``. Baseline
    genomes deliberately omit ``censor_params`` from their trial specs,
    so their cache entries are shared with every non-adaptive run of the
    same strategy.

    Attributes:
        country: Censor country.
        protocol: Application protocol for the censored workload.
        trials: Trials per pair (averaged into a :class:`PairOutcome`).
        seed: Base seed; per-trial seeds come from
            :func:`repro.runtime.trial_seed` (shared across pairs —
            common random numbers).
        executor: Prebuilt :class:`~repro.runtime.TrialExecutor`
            (created on first use from ``workers``/``cache`` if absent).
        workers: Worker processes when building an executor internally.
        cache: Result-cache setting when building an executor internally.
    """

    country: str
    protocol: str
    trials: int = 2
    seed: int = 0
    executor: Optional[object] = None
    workers: int = 1
    cache: Optional[object] = None

    def __post_init__(self) -> None:
        self._memo: Dict[Tuple[str, str], PairOutcome] = {}
        self.stats = CoevolveStats()

    # ------------------------------------------------------------------

    @staticmethod
    def _strategy_text(strategy: Union[Strategy, str]) -> str:
        if isinstance(strategy, str):
            return strategy
        return strategy.canonical_key()

    def _pair_key(
        self, strategy: Union[Strategy, str], genome: CensorGenome
    ) -> Tuple[str, str]:
        return (self._strategy_text(strategy), genome.canonical_key())

    def _specs_for(self, text: str, genome: CensorGenome) -> List[object]:
        # Built directly: CellSpec.build would re-parse every new pair's
        # strategy text.
        from ...runtime import CellSpec

        return CellSpec(
            self.country, self.protocol, text, trials=self.trials, seed=self.seed,
            options={} if genome.is_baseline else {"censor_params": genome.params},
        ).trial_specs()

    def prefetch(
        self, pairs: Sequence[Tuple[Union[Strategy, str], CensorGenome]]
    ) -> None:
        """Evaluate every unseen pair in one executor dispatch."""
        from ...runtime import TrialExecutor

        if self.executor is None:
            self.executor = TrialExecutor(workers=self.workers, cache=self.cache)

        pending: List[Tuple[Tuple[str, str], CensorGenome]] = []
        pending_keys = set()
        for strategy, genome in pairs:
            key = self._pair_key(strategy, genome)
            self.stats.submitted += 1
            if key in self._memo:
                self.stats.memo_hits += 1
                _CO_PAIRS.inc(source="memoized")
            elif key in pending_keys:
                self.stats.duplicates += 1
                _CO_PAIRS.inc(source="duplicate")
            else:
                pending.append((key, genome))
                pending_keys.add(key)
                self.stats.evaluated += 1
                _CO_PAIRS.inc(source="evaluated")

        if not pending:
            return
        specs: List[object] = []
        for (text, _), genome in pending:
            specs.extend(self._specs_for(text, genome))
        self.stats.batches += 1
        self.stats.trials += len(specs)
        _CO_BATCHES.inc()
        _CO_GRID.observe(len(pending))
        results = self.executor.run_batch(specs)
        for index, (key, _) in enumerate(pending):
            chunk = results[index * self.trials : (index + 1) * self.trials]
            successes = sum(1 for r in chunk if r.succeeded)
            censored = sum(1 for r in chunk if not r.succeeded and r.censored)
            broken = len(chunk) - successes - censored
            self._memo[key] = PairOutcome(
                successes=successes,
                censored=censored,
                broken=broken,
                trials=len(chunk),
            )

    def outcome(
        self, strategy: Union[Strategy, str], genome: CensorGenome
    ) -> PairOutcome:
        """The (memoized) outcome for one pair, evaluating it if needed."""
        key = self._pair_key(strategy, genome)
        if key not in self._memo:
            self.prefetch([(strategy, genome)])
        return self._memo[key]


class _HallOfFameFitness:
    """GA-facing evaluator: mean pair score against a censor hall of fame.

    Mirrors :class:`CensorTrialEvaluator`'s shape — a batch ``evaluate``
    answered from the shared pair memo, the complexity tax charged on
    each submitted spelling's own tree size — but the opponent is a
    *list* of censor genomes instead of one calibrated censor.
    """

    def __init__(self, pairs: PairEvaluator, hof: Sequence[CensorGenome]) -> None:
        self.pairs = pairs
        self.hof = list(hof)

    def evaluate(self, strategies: Sequence[Strategy]) -> List[float]:
        """Score a population against the hall of fame, batched."""
        self.pairs.prefetch(
            [(strategy, genome) for strategy in strategies for genome in self.hof]
        )
        scores: List[float] = []
        for strategy in strategies:
            pre_tax = sum(
                self.pairs.outcome(strategy, genome).score for genome in self.hof
            ) / len(self.hof)
            scores.append(pre_tax - COMPLEXITY_TAX * strategy.tree_size())
        return scores

    def __call__(self, strategy: Strategy) -> float:
        return self.evaluate([strategy])[0]


@dataclasses.dataclass
class EpochRecord:
    """Summary of one lockstep epoch.

    Attributes:
        epoch: Zero-based epoch index.
        best_strategy_fitness: Best GA fitness against the epoch's
            censor hall of fame.
        best_censor_defeat_rate: Largest fraction of hall-of-fame
            strategies any censor candidate defeated.
        strategy_hof: Canonical texts of the updated strategy hall of
            fame.
        censor_hof: ``as_dict`` forms of the updated censor hall of
            fame.
    """

    epoch: int
    best_strategy_fitness: float
    best_censor_defeat_rate: float
    strategy_hof: List[str]
    censor_hof: List[Dict[str, object]]


@dataclasses.dataclass
class FrontierEntry:
    """One paper strategy's place on the robustness frontier.

    Attributes:
        number: Paper strategy number.
        name: Table 2 / SNI-era strategy name.
        static_rate: Evasion rate against the calibrated baseline censor.
        adapted_rate: Worst-case evasion rate against the final adapted
            censor hall of fame.
        status: ``"survived"``, ``"degraded"``, or ``"collapsed"``.
    """

    number: int
    name: str
    static_rate: float
    adapted_rate: float
    status: str


def _classify(static_rate: float, adapted_rate: float) -> str:
    if static_rate >= EFFECTIVE_RATE and adapted_rate <= COLLAPSE_RATE:
        return "collapsed"
    if static_rate - adapted_rate >= DEGRADED_DROP:
        return "degraded"
    return "survived"


@dataclasses.dataclass
class CoevolveResult:
    """Outcome of a co-evolution run.

    Attributes:
        country: Censor country the arms race ran against.
        protocol: Application protocol evaluated.
        config: The :class:`CoevolveConfig` used.
        epochs: Per-epoch summaries.
        frontier: The strategy-robustness frontier, one entry per
            applicable paper strategy.
        novel_strategies: Hall-of-fame strategies canonically distinct
            from every paper strategy, with their baseline/adapted
            evasion rates.
        final_censor_hof: The final adapted censors with the fraction of
            hall-of-fame strategies each defeats.
        stats: Combined search + frontier pair-evaluator counters.
    """

    country: str
    protocol: str
    config: CoevolveConfig
    epochs: List[EpochRecord]
    frontier: List[FrontierEntry]
    novel_strategies: List[Dict[str, object]]
    final_censor_hof: List[Dict[str, object]]
    stats: CoevolveStats

    def as_dict(self) -> Dict[str, object]:
        """Deterministic JSON-able form (what ``coevolve --json`` emits)."""
        return {
            "country": self.country,
            "protocol": self.protocol,
            "config": dataclasses.asdict(self.config),
            "epochs": [dataclasses.asdict(record) for record in self.epochs],
            "frontier": [dataclasses.asdict(entry) for entry in self.frontier],
            "novel_strategies": list(self.novel_strategies),
            "final_censor_hof": list(self.final_censor_hof),
        }


def _dedup_canonical(strategies: Sequence[Strategy]) -> List[Strategy]:
    """First-spelling-wins dedup on canonical strategy text."""
    out: List[Strategy] = []
    seen = set()
    for strategy in strategies:
        key = strategy.canonical_key()
        if key not in seen:
            seen.add(key)
            out.append(strategy)
    return out


def _censor_scores(
    pairs: PairEvaluator,
    candidates: Sequence[CensorGenome],
    hof: Sequence[Strategy],
) -> List[Tuple[float, float, CensorGenome]]:
    """Rank censors best-first by hall-of-fame defeats.

    Returns ``(defeat_rate, mean_evasion, genome)`` sorted by defeat
    rate descending, then mean evasion ascending (a stronger censor
    allows less evasion), then canonical key — fully deterministic.
    """
    scored = []
    for genome in candidates:
        outcomes = [pairs.outcome(strategy, genome) for strategy in hof]
        defeats = sum(
            1 for outcome in outcomes if outcome.evasion_rate < DEFEAT_THRESHOLD
        )
        mean_evasion = sum(o.evasion_rate for o in outcomes) / len(outcomes)
        scored.append((defeats / len(outcomes), mean_evasion, genome))
    scored.sort(key=lambda item: (-item[0], item[1], item[2].canonical_key()))
    return scored


def _dedup_genomes(genomes: Sequence[CensorGenome]) -> List[CensorGenome]:
    out: List[CensorGenome] = []
    seen = set()
    for genome in genomes:
        key = genome.canonical_key()
        if key not in seen:
            seen.add(key)
            out.append(genome)
    return out


def _breed_censors(
    scored: Sequence[Tuple[float, float, CensorGenome]],
    config: CoevolveConfig,
    rng: random.Random,
) -> List[CensorGenome]:
    """Next censor generation: elites, then tournament offspring."""
    next_gen: List[CensorGenome] = [
        genome for _, _, genome in scored[: config.censor_elite]
    ]

    def tournament() -> CensorGenome:
        contenders = [
            scored[rng.randrange(len(scored))]
            for _ in range(config.censor_tournament)
        ]
        contenders.sort(key=lambda item: (-item[0], item[1], item[2].canonical_key()))
        return contenders[0][2]

    while len(next_gen) < config.censor_population:
        parent = tournament()
        if rng.random() < config.censor_crossover_rate:
            child = parent.crossover(tournament(), rng)
        else:
            child = parent
        if rng.random() < config.censor_mutation_rate:
            child = child.mutate(rng)
        next_gen.append(child)
    return next_gen


def run_coevolution(
    country: str = "china",
    protocol: Optional[str] = None,
    config: Optional[CoevolveConfig] = None,
    executor: Optional[object] = None,
    workers: int = 1,
    cache: Optional[object] = None,
) -> CoevolveResult:
    """Run the censor-vs-strategy arms race and report the frontier.

    Each epoch advances both populations one step in lockstep: the
    epoch's full pair grid — pending strategies x censor hall of fame,
    plus hall-of-fame strategies x censor candidates — is prefetched as
    one executor dispatch, the strategy GA steps (answered entirely from
    the pair memo), censors are scored on hall-of-fame defeats, both
    halls of fame update, and the censor population breeds. A final
    higher-trial pass measures the frontier: every applicable paper
    strategy (and every novel hall-of-fame strategy) against the
    baseline censor and the final adapted hall of fame.
    """
    from ...runtime import TrialExecutor
    from ..strategies import deployed_strategy

    config = config if config is not None else CoevolveConfig()
    if protocol is None:
        protocol = country_profile(country).coevolve_protocol
    if executor is None:
        executor = TrialExecutor(workers=workers, cache=cache)

    pair_eval = PairEvaluator(
        country, protocol, trials=config.trials, seed=config.seed, executor=executor
    )

    numbers = paper_strategy_numbers(country)
    paper: List[Tuple[int, Strategy]] = [
        (number, deployed_strategy(number)) for number in numbers
    ]
    paper_canonical = {strategy.canonical_key() for _, strategy in paper}

    strategy_hof: List[Strategy] = _dedup_canonical(
        [strategy for _, strategy in paper]
    )
    censor_rng = random.Random(f"coevolve-censors/{country}/{config.seed}")
    censor_pop = seeded_censor_population(
        country, config.censor_population, censor_rng
    )
    censor_hof: List[CensorGenome] = [CensorGenome.baseline(country)]

    strategy_pop: Optional[List[Strategy]] = None
    epochs: List[EpochRecord] = []

    for epoch in range(config.epochs):
        _CO_EPOCHS.inc()
        fitness = _HallOfFameFitness(pair_eval, censor_hof)
        ga = GeneticAlgorithm(
            fitness,
            config=GAConfig(
                population_size=config.strategy_population,
                generations=config.generations_per_epoch,
                seed=config.seed + 7919 * epoch,
                convergence_patience=config.generations_per_epoch + 1,
            ),
        )
        if strategy_pop is None:
            strategy_pop = ga.initial_population()
            for index, (_, strategy) in enumerate(paper):
                if index >= len(strategy_pop):
                    break
                strategy_pop[index] = strategy.copy()

        censor_candidates = _dedup_genomes(list(censor_pop) + list(censor_hof))
        # Censors are always scored against the paper strategies *plus*
        # the evolving hall of fame: the frontier question is "which
        # paper strategies survive", so the selection gradient must keep
        # pointing at them even as novel strategies displace them from
        # the hall of fame.
        censor_targets = _dedup_canonical(
            [strategy for _, strategy in paper] + strategy_hof
        )
        state = ga.start(strategy_pop)
        while not state.done:
            pending = ga.pending_individuals(state.population)
            grid: List[Tuple[Union[Strategy, str], CensorGenome]] = [
                (strategy, genome)
                for strategy in pending
                for genome in censor_hof
            ]
            grid.extend(
                (strategy, genome)
                for strategy in censor_targets
                for genome in censor_candidates
            )
            pair_eval.prefetch(grid)
            ga.step(state)
        strategy_pop = state.population  # the already-bred next generation

        # Strategy hall of fame: every spelling this epoch's GA scored,
        # plus the incumbents, ranked by fitness against the epoch's
        # censor hall of fame (answered from the pair memo).
        candidates = _dedup_canonical(
            strategy_hof
            + [Strategy.parse(text) for text in ga._cache]
        )

        def strategy_fitness(strategy: Strategy) -> float:
            pre_tax = sum(
                pair_eval.outcome(strategy, genome).score for genome in censor_hof
            ) / len(censor_hof)
            return pre_tax - COMPLEXITY_TAX * strategy.tree_size()

        ranked = sorted(
            candidates,
            key=lambda s: (-strategy_fitness(s), s.canonical_key()),
        )
        hof_size = max(1, config.strategy_hof_size)
        next_strategy_hof = ranked[:hof_size]

        # Censor hall of fame + breeding, scored against the targets the
        # censors actually faced this epoch (pre-update hall of fame).
        scored_censors = _censor_scores(pair_eval, censor_candidates, censor_targets)
        best_defeat = scored_censors[0][0]
        censor_hof = [
            genome
            for _, _, genome in scored_censors[: max(1, config.censor_hof_size)]
        ]
        censor_pop = _breed_censors(scored_censors, config, censor_rng)
        strategy_hof = next_strategy_hof

        epochs.append(
            EpochRecord(
                epoch=epoch,
                best_strategy_fitness=state.best_fitness,
                best_censor_defeat_rate=best_defeat,
                strategy_hof=[s.canonical_key() for s in strategy_hof],
                censor_hof=[genome.as_dict() for genome in censor_hof],
            )
        )

    # ------------------------------------------------------------------
    # Frontier: paper strategies (and novel hall-of-famers) vs baseline
    # and the final adapted censors, at frontier resolution.
    frontier_eval = PairEvaluator(
        country,
        protocol,
        trials=config.frontier_trials,
        seed=config.seed + 104729,
        executor=executor,
    )
    baseline = CensorGenome.baseline(country)
    novel = [
        strategy
        for strategy in strategy_hof
        if strategy.canonical_key() not in paper_canonical
        and not strategy.canonical().is_noop()
    ]
    targets: List[Strategy] = [strategy for _, strategy in paper] + novel
    opponents = _dedup_genomes([baseline] + censor_hof)
    frontier_eval.prefetch(
        [(strategy, genome) for strategy in targets for genome in opponents]
    )

    def rates(strategy: Strategy) -> Tuple[float, float]:
        static = frontier_eval.outcome(strategy, baseline).evasion_rate
        adapted = min(
            frontier_eval.outcome(strategy, genome).evasion_rate
            for genome in censor_hof
        )
        return static, adapted

    frontier: List[FrontierEntry] = []
    for number, strategy in paper:
        static, adapted = rates(strategy)
        frontier.append(
            FrontierEntry(
                number=number,
                name=SERVER_STRATEGIES[number].name,
                static_rate=static,
                adapted_rate=adapted,
                status=_classify(static, adapted),
            )
        )

    novel_strategies: List[Dict[str, object]] = []
    for strategy in novel:
        static, adapted = rates(strategy)
        novel_strategies.append(
            {
                "strategy": strategy.canonical_key(),
                "static_rate": static,
                "adapted_rate": adapted,
            }
        )

    final_scored = _censor_scores(frontier_eval, censor_hof, [s for _, s in paper])
    final_censor_hof = [
        {"defeat_rate": defeat, "mean_evasion": mean, "genome": genome.as_dict()}
        for defeat, mean, genome in final_scored
    ]

    return CoevolveResult(
        country=country,
        protocol=protocol,
        config=config,
        epochs=epochs,
        frontier=frontier,
        novel_strategies=novel_strategies,
        final_censor_hof=final_censor_hof,
        stats=pair_eval.stats.merged(frontier_eval.stats),
    )
