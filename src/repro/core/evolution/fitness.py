"""Fitness evaluation for evolved strategies.

Fitness mirrors Geneva's shaping: strategies are rewarded for evading
censorship, punished (mildly) for being censored, punished severely for
*breaking the connection* — a strategy that makes the server unreachable
is worse than no strategy at all — and taxed per node to keep solutions
small.

:class:`CensorTrialEvaluator` is *generation-batched*: callers hand it a
whole population via :meth:`~CensorTrialEvaluator.evaluate` and every
unevaluated genome's trials go to the executor in **one**
:meth:`~repro.runtime.TrialExecutor.run_batch` call, so the persistent
worker pool and the sharded cold-path dispatch amortize across the whole
generation instead of being re-paid per individual. Genomes are deduped
on their *canonical* form (:mod:`repro.core.dsl.canonical`) before
dispatch, and trial seeds derive from ``trial_seed(seed, index)`` per
canonical genome — never from submission order — so results are
bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ...obs.metrics import Counter, Histogram
from ..dsl import Strategy

__all__ = ["FitnessEvaluator", "CensorTrialEvaluator", "EvalStats"]

#: Signature every evaluator implements. Batched consumers probe for an
#: optional ``evaluate(strategies) -> List[float]`` method and fall back
#: to per-individual calls when it is absent.
FitnessEvaluator = Callable[[Strategy], float]

REWARD_SUCCESS = 100.0
PENALTY_CENSORED = -50.0
PENALTY_BROKEN = -150.0
COMPLEXITY_TAX = 1.0

#: Batched-evaluator telemetry. All deterministic: dedup and memo
#: decisions happen before dispatch, on the GA's own seeded trajectory,
#: so counts replay exactly regardless of worker count.
_GA_BATCHES = Counter(
    "repro_ga_batches_total",
    "Generation-level fitness dispatches sent to the executor",
)
_GA_DEDUP = Counter(
    "repro_ga_dedup_total",
    "Genomes submitted for evaluation, by how each was satisfied",
    ("source",),  # evaluated | memoized | duplicate
)
_GA_EVALS_AVOIDED = Counter(
    "repro_ga_evals_avoided_total",
    "Full trial evaluations skipped via canonical dedup or the memo",
)
_GA_BATCH_SIZE = Histogram(
    "repro_ga_batch_genomes",
    "Distinct genomes per generation-level fitness dispatch",
    buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500),
)


@dataclass
class EvalStats:
    """Dedup/batching counters for one :class:`CensorTrialEvaluator`.

    Attributes:
        submitted: Genomes received by :meth:`evaluate` / ``__call__``.
        evaluated: Canonical genomes actually sent to the executor.
        memo_hits: Genomes answered from the cross-generation memo.
        duplicates: Genomes that collapsed onto another genome submitted
            in the same batch (canonical-form dedup).
        batches: ``run_batch`` dispatches issued.
        trials: Trial specs dispatched (evaluated genomes x trials).
    """

    submitted: int = 0
    evaluated: int = 0
    memo_hits: int = 0
    duplicates: int = 0
    batches: int = 0
    trials: int = 0

    @property
    def evals_avoided(self) -> int:
        """Genome evaluations saved by dedup + memoization."""
        return self.memo_hits + self.duplicates

    def format(self) -> str:
        """One ``--stats``-style summary line."""
        return (
            f"ga: submitted={self.submitted} evaluated={self.evaluated} "
            f"memo_hits={self.memo_hits} duplicates={self.duplicates} "
            f"evals_avoided={self.evals_avoided} batches={self.batches} "
            f"trials={self.trials}"
        )


@dataclass
class CensorTrialEvaluator:
    """Evaluate strategies by running trials against a simulated censor.

    Attributes:
        country: Censor to train against (e.g. ``"china"``).
        protocol: Application protocol for the censored workload.
        trials: Trials per evaluation (averaged).
        seed: Base seed; per-trial seeds come from
            :func:`repro.runtime.trial_seed`.
        side: ``"server"`` (the paper's contribution) or ``"client"``.
        workers: Worker processes for the trial batch (1 = in-process).
        cache: Result-cache setting (as in ``success_rate``). With a
            disk-backed cache, re-running a whole evolution sweep is
            warm-cache fast — fitness trials are content-addressed on
            the canonical strategy text.
        executor: Prebuilt :class:`~repro.runtime.TrialExecutor` shared
            across evaluations (overrides ``workers``/``cache``).
        impairment: Optional network-impairment policy (an
            :class:`repro.netsim.Impairment` or its dict form) applied to
            every fitness trial — evolving under loss selects for
            strategies that tolerate real paths. ``None`` (the default)
            evaluates on a perfect path; impairment randomness is drawn
            from a stream separate from GA mutation, so enabling it never
            perturbs the evolutionary trajectory itself.
        net_seed: Pin the impairment stream (fanned out per trial).
        canonicalize: Dedup genomes on their canonical form before
            dispatch (default). ``False`` restores spelling-keyed
            evaluation — used by the perf benchmark's legacy arm.
    """

    country: str
    protocol: str
    trials: int = 4
    seed: int = 0
    side: str = "server"
    workers: int = 1
    cache: Optional[object] = None
    executor: Optional[object] = None
    impairment: Optional[object] = None
    net_seed: Optional[int] = None
    canonicalize: bool = True

    def __post_init__(self) -> None:
        #: Pre-tax trial score, memoized per canonical genome text. The
        #: complexity tax is applied to each *submitted* strategy's own
        #: tree size, so a bloated spelling still pays for its bloat
        #: while sharing the trial work of its canonical form.
        self._scores: Dict[str, float] = {}
        self.stats = EvalStats()
        self._template: Optional[tuple] = None

    # ------------------------------------------------------------------

    def _genome_text(self, strategy: Strategy) -> str:
        if self.canonicalize:
            return strategy.canonical_key()
        return str(strategy)

    def _specs_for(self, text: str) -> List[object]:
        # Built directly: CellSpec.build would re-parse every new genome's
        # text, which was printed from a parsed strategy. The specs equal
        # CellSpec(...).trial_specs() field for field, and everything but
        # the text is derived once per evaluator.
        from ...runtime import TrialSpec

        if self._template is None:
            self._template = self._trial_template()
        impairment, trials = self._template
        server, client = (text, None) if self.side == "server" else (None, text)
        return [
            TrialSpec(self.country, self.protocol, server, seed, client, dict(options), impairment)
            for seed, options in trials
        ]

    def _trial_template(self) -> tuple:
        """The canonical impairment and each trial's ``(seed, options)``,
        with the seeds (and pinned net seeds) from :meth:`CellSpec.seeds`."""
        from ...runtime import CellSpec
        from ...runtime.spec import impairment_dict

        cell = CellSpec(
            self.country, self.protocol, trials=self.trials, seed=self.seed,
            net_seed=self.net_seed,
        )
        trials = [
            (seed, {} if net_seed is None else {"net_seed": net_seed})
            for seed, net_seed in cell.seeds()
        ]
        return impairment_dict(self.impairment), trials

    def evaluate(self, strategies: Sequence[Strategy]) -> List[float]:
        """Score a whole population in one executor dispatch.

        Genomes are deduped on canonical text and answered from the
        memo where possible; everything else goes to the executor as a
        single ``run_batch``. Returns fitnesses in submission order.
        """
        from ...runtime import TrialExecutor

        if self.executor is None:
            self.executor = TrialExecutor(workers=self.workers, cache=self.cache)

        keys = [self._genome_text(strategy) for strategy in strategies]
        pending: List[str] = []
        pending_set = set()
        for key in keys:
            self.stats.submitted += 1
            if key in self._scores:
                self.stats.memo_hits += 1
                _GA_DEDUP.inc(source="memoized")
            elif key in pending_set:
                self.stats.duplicates += 1
                _GA_DEDUP.inc(source="duplicate")
            else:
                pending.append(key)
                pending_set.add(key)
                self.stats.evaluated += 1
                _GA_DEDUP.inc(source="evaluated")
        avoided = len(keys) - len(pending)
        if avoided:
            _GA_EVALS_AVOIDED.inc(avoided)

        if pending:
            specs: List[object] = []
            for key in pending:
                specs.extend(self._specs_for(key))
            self.stats.batches += 1
            self.stats.trials += len(specs)
            _GA_BATCHES.inc()
            _GA_BATCH_SIZE.observe(len(pending))
            results = self.executor.run_batch(specs)
            for index, key in enumerate(pending):
                total = 0.0
                for result in results[index * self.trials : (index + 1) * self.trials]:
                    if result.succeeded:
                        total += REWARD_SUCCESS
                    elif result.censored:
                        total += PENALTY_CENSORED
                    else:
                        total += PENALTY_BROKEN
                self._scores[key] = total / self.trials

        return [
            self._scores[key] - COMPLEXITY_TAX * strategy.tree_size()
            for key, strategy in zip(keys, strategies)
        ]

    def __call__(self, strategy: Strategy) -> float:
        return self.evaluate([strategy])[0]
