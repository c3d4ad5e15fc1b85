"""Performance benchmarks for the network-impairment layer.

Two costs matter:

- **Zero when off.** The null policy is normalized away, so unimpaired
  batches must run at pre-impairment speed (the layer adds no per-hop
  work). Asserted with a generous 15% tolerance against timer noise.
- **Bounded when on.** Impairment adds RNG draws per hop plus the TCP
  retransmissions it provokes; the measured overhead is recorded in
  ``benchmarks/results/local/`` (git-ignored; machine-dependent).
"""

import time

from repro.core import deployed_strategy
from repro.eval.sweeps import DEFAULT_LOSS_GRID, impairment_robustness_sweep
from repro.runtime import TrialExecutor, TrialSpec, trial_seed

TRIALS = 100
POLICY = {"loss": 0.05, "reorder": 0.05, "jitter": 0.002}


def batch_specs(impairment=None):
    strategy = deployed_strategy(1)
    specs = []
    for index in range(TRIALS):
        extra = {}
        if impairment is not None:
            # Fan the net stream out per trial, as the batch APIs do — a
            # shared net_seed would correlate the loss draws across trials.
            extra = {"impairment": impairment, "net_seed": trial_seed(1, index)}
        specs.append(
            TrialSpec.build(
                "china", "http", strategy, seed=trial_seed(0, index), **extra
            )
        )
    return specs


def best_of(runs, fn):
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_perf_batch_unimpaired(benchmark):
    executor = TrialExecutor(workers=1)
    results = benchmark(executor.run_batch, batch_specs())
    assert len(results) == TRIALS


def test_perf_batch_impaired(benchmark):
    specs = batch_specs(impairment=POLICY)
    executor = TrialExecutor(workers=1)
    results = benchmark(executor.run_batch, specs)
    assert len(results) == TRIALS


def test_impairment_overhead_artifact(save_timing):
    executor = TrialExecutor(workers=1)

    bare = batch_specs()
    null = batch_specs(impairment={})
    impaired = batch_specs(impairment=POLICY)
    executor.run_batch(bare)  # warm imports before timing anything

    t_bare = best_of(3, lambda: executor.run_batch(bare))
    t_null = best_of(3, lambda: executor.run_batch(null))
    t_impaired = best_of(3, lambda: executor.run_batch(impaired))

    # The null policy must cost (statistically) nothing.
    assert t_null <= t_bare * 1.15

    succeeded = sum(r.succeeded for r in executor.run_batch(impaired))
    curves = impairment_robustness_sweep(trials=10, net_seed=1)

    lines = [
        "Impairment overhead "
        f"({TRIALS} china/http trials, strategy 1, workers=1)",
        "",
        f"  unimpaired:   {t_bare * 1000:7.1f} ms",
        f"  null policy:  {t_null * 1000:7.1f} ms "
        f"({t_null / t_bare:.2f}x — must be ~1x)",
        f"  impaired:     {t_impaired * 1000:7.1f} ms "
        f"({t_impaired / t_bare:.2f}x at loss=5% reorder=5%)",
        "",
        f"  impaired success: {succeeded}/{TRIALS}",
        "",
        "Success vs per-link loss (10 trials/point, net_seed=1):",
    ]
    header = "  country      " + "".join(
        f"{rate:>7g}" for rate in DEFAULT_LOSS_GRID
    )
    lines.append(header)
    for country, curve in sorted(curves.items()):
        row = "".join(f"{curve[rate]:>7.2f}" for rate in DEFAULT_LOSS_GRID)
        lines.append(f"  {country:<13}{row}")

    save_timing("perf_impairment.txt", "\n".join(lines))
