"""Integration tests for the generation-batched, dedup-aware GA engine.

Covers the invariants the batching refactor must hold:

- the batched evaluator reproduces the legacy per-individual trajectory
  bit-for-bit (fitness memo semantics, complexity tax on the raw
  spelling, tie-breaking, hall of fame);
- islands run in lockstep against one shared memo without perturbing
  the per-island trajectories;
- a persistent :class:`~repro.runtime.ResultCache` makes a *second*
  evolution run executor-warm (zero trials re-executed);
- ``minimize`` takes the same reduction path batched as serial;
- the ``repro_ga_*`` metrics and :class:`EvalStats` counters are
  deterministic and worker-count independent.
"""

import pytest

from repro.core import Strategy
from repro.core.evolution import (
    CensorTrialEvaluator,
    GAConfig,
    GeneticAlgorithm,
    IslandConfig,
    minimize,
    run_islands,
)
from repro.eval.runner import TrialResult
from repro.runtime import CellSpec, ResultCache, TrialExecutor
from repro.runtime.spec import impairment_dict

COUNTRY, PROTOCOL = "kazakhstan", "http"


def make_evaluator(**overrides):
    kwargs = dict(country=COUNTRY, protocol=PROTOCOL, trials=2, seed=7)
    kwargs.update(overrides)
    return CensorTrialEvaluator(**kwargs)


def run_ga(evaluator, *, population_size=14, generations=5, seed=3, **cfg):
    config = GAConfig(
        population_size=population_size, generations=generations, seed=seed, **cfg
    )
    return GeneticAlgorithm(evaluator, config=config).run()


def result_fields(result):
    return (
        str(result.best),
        result.best_fitness,
        result.history,
        result.generations_run,
        [(str(s), f) for s, f in result.hall_of_fame],
    )


class TestBatchedParity:
    def test_batched_matches_legacy_per_individual(self):
        # The legacy arm: a plain callable, so the GA falls back to one
        # evaluator call per individual with no canonical dedup.
        legacy_eval = make_evaluator(canonicalize=False)
        legacy = run_ga(lambda s: legacy_eval(s))
        batched = run_ga(make_evaluator())
        assert result_fields(legacy) == result_fields(batched)

    def test_worker_count_does_not_change_result(self):
        results = [
            run_ga(make_evaluator(executor=TrialExecutor(workers=workers)))
            for workers in (1, 4)
        ]
        assert result_fields(results[0]) == result_fields(results[1])

    def test_dedup_reduces_executor_work(self):
        executor = TrialExecutor()
        evaluator = make_evaluator(executor=executor)
        run_ga(evaluator)
        stats = evaluator.stats
        assert stats.submitted == stats.evaluated + stats.evals_avoided
        assert stats.evals_avoided > 0
        assert stats.trials == stats.evaluated * evaluator.trials
        assert executor.total_stats.requested == stats.trials
        # One dispatch per generation that had anything new to score.
        assert stats.batches <= 5

    def test_stats_format_line(self):
        evaluator = make_evaluator()
        evaluator.evaluate([Strategy.parse(r"\/")])
        line = evaluator.stats.format()
        assert line.startswith("ga: submitted=1 evaluated=1")
        assert "batches=1" in line


class _RecordingExecutor:
    """Keeps every spec the evaluator dispatches; every trial evades."""

    def __init__(self):
        self.specs = []

    def run_batch(self, specs):
        self.specs.extend(specs)
        return [TrialResult("success", True, False) for _ in specs]


class TestSpecParity:
    """The evaluator builds its specs from one template per evaluator;
    they must equal the cell expansion they stand for."""

    @pytest.mark.parametrize(
        "side, impairment, net_seed",
        [
            ("server", None, None),
            ("client", None, None),
            ("server", {"loss": 0.2}, None),
            ("server", {"loss": 0.2}, 7),
        ],
    )
    def test_specs_equal_the_cell_expansion(self, side, impairment, net_seed):
        executor = _RecordingExecutor()
        evaluator = make_evaluator(
            side=side, trials=3, impairment=impairment, net_seed=net_seed,
            executor=executor,
        )
        first, second, third = (
            Strategy.parse(text)
            for text in (
                r"[TCP:flags:SA]-duplicate-| \/",
                r"[TCP:flags:PA]-tamper{TCP:flags:replace:R}-| \/",
                r"[TCP:flags:A]-drop-| \/",
            )
        )
        evaluator.evaluate([first, second])
        evaluator.evaluate([first, third])  # first is a memo hit
        expected = []
        for strategy in (first, second, third):
            expected.extend(
                CellSpec(
                    COUNTRY, PROTOCOL, trials=3, seed=7,
                    impairment=impairment_dict(impairment), net_seed=net_seed,
                    **{f"{side}_strategy": strategy.canonical_key()},
                ).trial_specs()
            )
        assert executor.specs == expected
        options = [id(spec.options) for spec in executor.specs]
        assert len(set(options)) == len(options)  # each spec owns its dict


class TestCrossRunCache:
    def test_second_run_is_executor_warm(self, tmp_path):
        cache = ResultCache(tmp_path / "fitness-cache")

        first_executor = TrialExecutor(cache=cache)
        first = run_ga(make_evaluator(executor=first_executor))
        assert first_executor.total_stats.executed > 0

        # Fresh evaluator + executor, same persistent cache: the entire
        # run is answered content-addressed, nothing re-executes.
        second_executor = TrialExecutor(cache=cache)
        second = run_ga(make_evaluator(executor=second_executor))
        assert second_executor.total_stats.executed == 0
        assert second_executor.total_stats.cache_hits == (
            second_executor.total_stats.requested
        )
        assert result_fields(first) == result_fields(second)

    def test_canonical_spellings_share_evaluation(self):
        executor = TrialExecutor()
        evaluator = make_evaluator(executor=executor)
        plain = Strategy.parse(r"[TCP:flags:SA]-duplicate-| \/")
        bloated = Strategy.parse(r"[TCP:flags:AS]-duplicate(duplicate,drop)-| \/")
        assert plain.canonical_key() == bloated.canonical_key()
        a = evaluator(plain)
        executed_before = executor.total_stats.executed
        b = evaluator(bloated)
        # Different spelling, same canonical text: answered from the
        # evaluator memo without dispatching a single trial.
        assert executor.total_stats.executed == executed_before
        assert evaluator.stats.memo_hits == 1
        # Same pre-tax score; only the complexity tax differs.
        assert a - b == pytest.approx(bloated.tree_size() - plain.tree_size())


class TestIslands:
    @staticmethod
    def _config():
        return IslandConfig(
            islands=3,
            epochs=2,
            generations_per_epoch=3,
            base=GAConfig(population_size=10, seed=5),
        )

    def test_lockstep_matches_serial_evaluator(self):
        # Serial arm: plain-callable evaluator, islands run with no
        # cross-island batching or memo sharing.
        serial_eval = make_evaluator(canonicalize=False)
        serial = run_islands(lambda s: serial_eval(s), config=self._config())
        batched = run_islands(make_evaluator(), config=self._config())
        assert result_fields(serial) == result_fields(batched)

    def test_memo_is_shared_across_islands(self):
        evaluator = make_evaluator()
        run_islands(evaluator, config=self._config())
        stats = evaluator.stats
        # With three islands breeding from one gene pool, a large share
        # of genomes repeat across islands and epochs; the shared memo
        # must absorb them.
        assert stats.memo_hits > stats.evaluated


class TestMinimize:
    def test_batched_matches_serial(self):
        bloated = Strategy.parse(
            r"[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},duplicate)-| \/"
        )
        serial_eval = make_evaluator(canonicalize=False)
        serial = minimize(bloated, lambda s: serial_eval(s))
        batched = minimize(bloated, make_evaluator())
        assert str(serial[0]) == str(batched[0])
        assert serial[1] == batched[1]


class TestMetrics:
    def test_ga_metrics_deterministic_across_workers(self):
        from repro.obs.metrics import collecting

        def collect(workers):
            executor = TrialExecutor(workers=workers, collect_metrics=True)
            with collecting(executor.metrics):
                run_ga(make_evaluator(executor=executor))
            snapshot = executor.metrics_snapshot()
            return {
                name: value
                for name, value in snapshot.items()
                if name.startswith("repro_ga_")
            }

        one, four = collect(1), collect(4)
        assert one == four
        batches = sum(one["repro_ga_batches_total"]["samples"].values())
        dedup = one["repro_ga_dedup_total"]["samples"]
        avoided = sum(one["repro_ga_evals_avoided_total"]["samples"].values())
        assert batches > 0
        assert dedup["source=evaluated"] > 0
        assert avoided == dedup.get("source=memoized", 0) + dedup.get(
            "source=duplicate", 0
        )
        assert "repro_ga_batch_genomes" in one
