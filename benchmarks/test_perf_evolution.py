"""Performance benchmarks for the generation-batched evolution engine.

The headline comparison: the same GA search (identical trajectory,
asserted) run through the legacy per-individual fitness path versus the
generation-batched, canonical-dedup evaluator — plus a cache-warm rerun
through a persistent :class:`~repro.runtime.ResultCache`, which must
execute nothing.

Honest about hardware (the executor precedent): the batched
engine's wall-clock win comes from three multiplicative sources — fewer
genome evaluations (canonical dedup + memo), one executor dispatch per
generation instead of one per individual, and the worker pool across the
whole generation. The regression *gate* times the first two alone: the
batched arm runs on one worker, as the committed baseline was recorded,
so its batched/legacy ratio is comparable on any core count. A third
arm runs the same search on a ``min(4, cores)``-worker pool; its ratio
is recorded ungated, and the absolute >=5x target is asserted on it only
where the cores exist to show it. The three searches are timed
alternately, :data:`ROUNDS` times each, and each ratio divides medians,
so one slow moment of a shared host cannot decide it.
"""

import json
import os
import pathlib
import statistics
import time

from repro.core.evolution import CensorTrialEvaluator, GAConfig, GeneticAlgorithm
from repro.runtime import TrialExecutor

#: Committed baseline (outside ``results/`` so regenerating artifacts
#: cannot move the regression bar). The gated quantity is the
#: batched/legacy wall-time ratio for the reference GA search below.
EVOLUTION_BASELINE = pathlib.Path(__file__).parent / "evolution_baseline.json"

COUNTRY, PROTOCOL = "kazakhstan", "http"
TRIALS = 6
CONFIG = dict(population_size=24, generations=6, seed=3)

#: Alternated legacy/batched/pooled timings behind each ratio.
ROUNDS = 5


def timed(fn):
    """(wall seconds ``fn()`` took, its return value)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def best_of(runs, fn):
    times = []
    result = None
    for _ in range(runs):
        seconds, result = timed(fn)
        times.append(seconds)
    return min(times), result


def _evaluator(**overrides):
    kwargs = dict(country=COUNTRY, protocol=PROTOCOL, trials=TRIALS, seed=9)
    kwargs.update(overrides)
    return CensorTrialEvaluator(**kwargs)


def _run_legacy():
    # The pre-batching shape: a plain callable, so the GA scores one
    # individual per evaluator call, keyed on the genome's spelling.
    evaluator = _evaluator(canonicalize=False, executor=TrialExecutor(workers=1))
    ga = GeneticAlgorithm(lambda s: evaluator(s), config=GAConfig(**CONFIG))
    return ga.run()


def _run_batched(executor):
    ga = GeneticAlgorithm(_evaluator(executor=executor), config=GAConfig(**CONFIG))
    return ga.run()


def result_fields(result):
    return (
        str(result.best),
        result.best_fitness,
        result.history,
        result.generations_run,
        [(str(s), f) for s, f in result.hall_of_fame],
    )


def test_perf_ga_legacy_serial(benchmark):
    result = benchmark(_run_legacy)
    assert result.generations_run > 0


def test_perf_ga_batched(benchmark):
    result = benchmark(lambda: _run_batched(TrialExecutor(workers=1)))
    assert result.generations_run > 0


def test_evolution_speedup_artifact(save_timing, tmp_path):
    cores = os.cpu_count() or 1
    workers = min(4, cores)

    def pooled_run():
        # The pool's start-up and shutdown are part of the pooled arm.
        with TrialExecutor(workers=workers) as executor:
            return _run_batched(executor)

    arms = {
        "legacy": _run_legacy,
        "batched": lambda: _run_batched(TrialExecutor(workers=1)),
        "pooled": pooled_run,
    }
    _run_legacy()  # warm imports and packet pools
    times = {arm: [] for arm in arms}
    results = {}
    for _ in range(ROUNDS):
        for arm, run in arms.items():
            seconds, results[arm] = timed(run)
            times[arm].append(seconds)
    t_legacy, t_batched, t_pooled = (statistics.median(times[arm]) for arm in arms)
    legacy = results["legacy"]
    assert result_fields(results["batched"]) == result_fields(legacy)
    assert result_fields(results["pooled"]) == result_fields(legacy)

    # Cross-run reuse: a fresh GA against a populated persistent cache
    # answers every trial content-addressed on canonical strategy text.
    store = tmp_path / "fitness-cache"
    cold_executor = TrialExecutor(cache=store)
    t_cold, _ = best_of(1, lambda: _run_batched(cold_executor))
    assert cold_executor.total_stats.executed > 0

    warm_executor = TrialExecutor(cache=store)
    t_warm, warm = best_of(3, lambda: _run_batched(warm_executor))
    assert warm_executor.total_stats.executed == 0
    assert result_fields(warm) == result_fields(legacy)

    ratio = t_legacy / t_batched
    pooled_ratio = t_legacy / t_pooled
    warm_ratio = t_legacy / t_warm
    baseline = json.loads(EVOLUTION_BASELINE.read_text())

    def series(times):
        return ", ".join(f"{seconds * 1000:.0f}" for seconds in times)

    save_timing(
        "evolution_speedup.txt",
        "\n".join(
            [
                f"GA search: {COUNTRY}/{PROTOCOL}, population "
                f"{CONFIG['population_size']}, {CONFIG['generations']} "
                f"generations, {TRIALS} trials/genome",
                f"machine: {cores} core(s), batched arm at 1 worker, "
                f"pooled arm at {workers} worker(s)",
                "",
                f"legacy (per-individual, spelling-keyed): "
                f"{t_legacy * 1000:8.1f} ms",
                f"batched (canonical dedup, 1 dispatch/gen): "
                f"{t_batched * 1000:8.1f} ms   speedup {ratio:.2f}x",
                f"pooled (batched on the pool, ungated):     "
                f"{t_pooled * 1000:8.1f} ms   speedup {pooled_ratio:.2f}x",
                f"cache cold (store+run):                   "
                f"{t_cold * 1000:8.1f} ms",
                f"cache warm (0 trials executed):           "
                f"{t_warm * 1000:8.1f} ms   speedup {warm_ratio:.2f}x",
                "",
                f"batched/legacy ratio:  {ratio:.2f}x "
                f"(committed baseline {baseline['ratio']:.2f}x, "
                "gate: >= 0.7x of baseline)",
                f"pooled/legacy ratio:   {pooled_ratio:.2f}x "
                "(ungated; >= 5x asserted on >= 4 cores)",
                f"legacy, batched and pooled: medians of {ROUNDS} alternated "
                f"rounds (legacy ms {series(times['legacy'])}; "
                f"batched ms {series(times['batched'])}; "
                f"pooled ms {series(times['pooled'])})",
                "",
                "trajectories: identical EvolutionResult (best, fitness, "
                "history, hall of fame) across all four arms.",
                "The >=5x headline target needs >=4 cores (worker-pool "
                "parallelism multiplies the dedup win); the gated quantity "
                "is the 1-worker batched/legacy ratio plus the "
                "unconditional cache-warm bound.",
            ]
        ),
    )

    # Regression gate vs the committed same-machine-class baseline.
    assert ratio >= 0.7 * baseline["ratio"], (
        f"evolution batching regressed: measured {ratio:.2f}x, "
        f"committed baseline {baseline['ratio']:.2f}x"
    )
    # Dedup + single-dispatch must pay off even with one worker.
    assert ratio >= 1.1
    # A cache-warm rerun executes nothing; that holds on any hardware.
    assert warm_ratio >= 2.0
    if cores >= 4:
        assert pooled_ratio >= 5.0
