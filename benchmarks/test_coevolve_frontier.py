"""Regenerate the strategy-robustness frontier and gate its batching.

The co-evolution engine's whole performance story is dedup: each epoch's
population x population grid collapses onto the cross-epoch pair memo
before anything is dispatched, and what survives goes out as exactly one
``run_batch``. This benchmark regenerates the China frontier artifact at
the acceptance scale (seed 1, 3 epochs), asserts the batching discipline
(epochs + 1 dispatches, memo hit rate), and checks worker-count
trajectory identity the same way the executor benchmarks do. The
committed artifact holds only deterministic lines; the wall times go to
the git-ignored ``results/local/``.
"""

import json
import time

from repro.core.evolution import CoevolveConfig, run_coevolution
from repro.runtime import TrialExecutor

CONFIG = CoevolveConfig(epochs=3, seed=1)


def test_coevolve_frontier_artifact(save_artifact, save_timing):
    start = time.perf_counter()
    serial = run_coevolution("china", config=CONFIG, workers=1)
    t_serial = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_coevolution(
        "china", config=CONFIG, executor=TrialExecutor(workers=2)
    )
    t_parallel = time.perf_counter() - start
    assert json.dumps(parallel.as_dict(), sort_keys=True) == json.dumps(
        serial.as_dict(), sort_keys=True
    )

    stats = serial.stats
    # One dispatch per epoch plus the frontier pass — the lockstep grid
    # never degenerates into per-pair dispatches.
    assert stats.batches == CONFIG.epochs + 1
    assert stats.memo_hits > 0
    avoided = stats.memo_hits + stats.duplicates
    lines = [
        f"co-evolution arms race: china/http, {CONFIG.epochs} epochs, "
        f"{CONFIG.strategy_population} strategies x "
        f"{CONFIG.censor_population} censors, seed {CONFIG.seed}",
        "",
        f"{'#':>3} {'strategy':<30} {'static':>7} {'adapted':>8}  status",
    ]
    for entry in serial.frontier:
        lines.append(
            f"{entry.number:>3} {entry.name[:30]:<30} "
            f"{entry.static_rate:>7.2f} {entry.adapted_rate:>8.2f}  "
            f"{entry.status}"
        )
    top = serial.final_censor_hof[0]
    lines += [
        "",
        f"strongest adapted censor (defeats {top['defeat_rate']:.0%} of "
        f"paper strategies): {top['genome']['params']}",
        "",
        f"pair grid: {stats.submitted} pairs submitted, "
        f"{stats.evaluated} evaluated, {avoided} avoided "
        f"({avoided / stats.submitted:.0%}) in {stats.batches} dispatches "
        f"({stats.trials} trials)",
    ]
    save_artifact("coevolve_frontier.txt", "\n".join(lines))
    save_timing(
        "coevolve_frontier_wall.txt",
        f"wall: {t_serial * 1000:.0f} ms serial, "
        f"{t_parallel * 1000:.0f} ms at 2 workers "
        "(byte-identical frontier JSON)",
    )

    # The acceptance property: censor adaptation must actually move the
    # frontier — at least one paper strategy degrades.
    assert any(
        entry.status in ("degraded", "collapsed") for entry in serial.frontier
    )
