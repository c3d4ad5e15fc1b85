"""Performance benchmarks for the batch trial executor.

The headline numbers for ``repro.runtime``: wall-clock speedup of a
100-trial batch under a 4-worker pool versus the serial path, and the
cost of a cache-warm rerun (which must execute nothing at all). The
measured comparison is recorded in ``benchmarks/results/local/``
(git-ignored: the figures are machine-dependent).

Speedup assertions are honest about hardware: the parallel target
(>= 2x with 4 workers) is only asserted when the machine actually has
the cores to show it; the measured numbers are always recorded. The
cache-warm target holds on any machine — a warm run does no simulation
work — and is asserted unconditionally.
"""

import os
import time

from repro.core import deployed_strategy
from repro.runtime import TrialExecutor, TrialSpec, trial_seed

TRIALS = 100


def batch_specs():
    strategy = deployed_strategy(1)
    return [
        TrialSpec.build("china", "smtp", strategy, seed=trial_seed(0, index))
        for index in range(TRIALS)
    ]


def best_of(runs, fn):
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_perf_batch_serial(benchmark):
    specs = batch_specs()
    executor = TrialExecutor(workers=1)
    results = benchmark(executor.run_batch, specs)
    assert len(results) == TRIALS


def test_perf_batch_parallel_4_workers(benchmark):
    specs = batch_specs()
    with TrialExecutor(workers=4) as executor:
        executor.run_batch(specs[:4])  # create and warm the pool
        results = benchmark(executor.run_batch, specs)
        assert len(results) == TRIALS


def test_executor_speedup_artifact(save_timing, tmp_path):
    specs = batch_specs()
    cores = os.cpu_count() or 1

    serial = TrialExecutor(workers=1)
    serial.run_batch(specs[:4])  # warm imports
    t_serial = best_of(3, lambda: serial.run_batch(specs))
    baseline = [r.outcome for r in serial.run_batch(specs)]

    with TrialExecutor(workers=4) as parallel:
        parallel.run_batch(specs[:4])  # create and warm the pool
        t_parallel = best_of(3, lambda: parallel.run_batch(specs))
        assert [r.outcome for r in parallel.run_batch(specs)] == baseline

    cold = TrialExecutor(cache=tmp_path / "store")
    t_cold = best_of(1, lambda: cold.run_batch(specs))
    assert cold.last_stats.executed == TRIALS

    warm = TrialExecutor(cache=tmp_path / "store")
    t_warm = best_of(3, lambda: warm.run_batch(specs))
    assert warm.last_stats.executed == 0
    assert warm.last_stats.cache_hits == TRIALS
    assert [r.outcome for r in warm.run_batch(specs)] == baseline

    parallel_speedup = t_serial / t_parallel
    cache_speedup = t_serial / t_warm

    save_timing(
        "executor_speedup.txt",
        "\n".join(
            [
                f"batch: {TRIALS} trials, china/smtp, deployed strategy 1",
                f"machine: {cores} core(s)",
                "",
                f"serial (workers=1):        {t_serial * 1000:8.1f} ms",
                f"parallel (workers=4):      {t_parallel * 1000:8.1f} ms"
                f"   speedup {parallel_speedup:.2f}x",
                f"cache cold (store+run):    {t_cold * 1000:8.1f} ms",
                f"cache warm (0 executions): {t_warm * 1000:8.1f} ms"
                f"   speedup {cache_speedup:.2f}x",
                "",
                "parallel target (>=2x with 4 workers) asserted on >=4 cores; "
                "measured values above are from this machine.",
            ]
        ),
    )

    # A warm cache does no simulation work at all — this must hold on
    # any hardware.
    assert cache_speedup >= 2.0
    if cores >= 4:
        assert parallel_speedup >= 2.0
    elif cores >= 2:
        assert parallel_speedup >= 1.2


def test_perf_coldpath_trials(benchmark):
    """pytest-benchmark view of the uncached (cold) trial path."""
    strategy = deployed_strategy(1)
    specs = [
        TrialSpec.build("china", "smtp", strategy, seed=trial_seed(0, i))
        for i in range(TRIALS)
    ]

    def run_all():
        return [spec.run() for spec in specs]

    results = benchmark(run_all)
    assert len(results) == TRIALS
