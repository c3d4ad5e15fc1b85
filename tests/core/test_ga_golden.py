"""Golden GA trajectories: a seeded search replays exactly.

A china/http search and an island-model run are pinned in
``tests/golden/``: the best strategy and its fitness, the per-generation
history, the generation count and the hall of fame. Selection, breeding,
mutation and crossover all draw from the GA's one seeded stream, so any
change to the draw order, to what an operator builds, or to how the
evaluator scores a genome moves these files.

Regenerate deliberately with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/core/test_ga_golden.py

and review the diff like any other code change.
"""

import json
import os
import pathlib

import pytest

from repro.core.evolution import (
    CensorTrialEvaluator,
    GAConfig,
    GeneticAlgorithm,
    IslandConfig,
    run_islands,
)

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"


def summarize(result) -> dict:
    """The JSON-able fields of an :class:`EvolutionResult`."""
    return {
        "best": str(result.best),
        "best_fitness": result.best_fitness,
        "history": list(result.history),
        "generations_run": result.generations_run,
        "hall_of_fame": [[text, fitness] for text, fitness in result.hall_of_fame],
    }


def search():
    # Patience above the generation count: every generation runs.
    evaluator = CensorTrialEvaluator("china", "http", trials=2, seed=1)
    config = GAConfig(population_size=24, generations=8, seed=1, convergence_patience=9)
    return GeneticAlgorithm(evaluator, config=config).run()


def islands():
    evaluator = CensorTrialEvaluator("china", "http", trials=2, seed=1)
    config = IslandConfig(
        islands=2, epochs=2, generations_per_epoch=3,
        base=GAConfig(population_size=12, seed=1),
    )
    return run_islands(evaluator, config=config)


CASES = {"ga_china_http_search": search, "ga_china_http_islands": islands}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_ga_trajectory(name):
    summary = summarize(CASES[name]())
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    assert summary == json.loads(path.read_text()), (
        f"the {name} trajectory changed; if intentional, regenerate with "
        f"REPRO_UPDATE_GOLDENS=1 and review the diff"
    )
