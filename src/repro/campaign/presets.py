"""Canned campaign specs for the repo's standard experiments.

A driver preset is an evaluation driver's cells function (Table 1's
``matrix_cells``, Table 2's ``table2_cells``, the loss sweep's
``robustness_cells``, the SNI matrix's ``sni_cells``) plus a name, a
default shard size and a description. It runs the very cells its driver
measures, so it reproduces the driver's numbers bit-for-bit while
gaining sharding, checkpointing, and resume.

The :data:`PRESETS` registry maps CLI-facing names to factories; every
factory accepts ``trials``/``seed``/``shard_size`` keyword overrides.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from ..censors.countries import COUNTRIES
from ..eval.matrix import matrix_cells
from ..eval.sni_matrix import sni_cells
from ..eval.sweeps import robustness_cells
from ..eval.table2 import table2_cells
from .spec import CampaignSpec, CellSpec

__all__ = ["PRESETS", "coevolve_campaign", "evolution_campaign"]


def _driver_preset(
    name: str, cells: Callable[..., List[CellSpec]], shard_size: int,
    description: str, **fixed: Any,
) -> Callable[..., CampaignSpec]:
    """A preset over a driver's cells function: keyword overrides
    (``trials``, ``seed``, ...) go to ``cells`` with ``fixed``."""

    def preset(shard_size: int = shard_size, **overrides: Any) -> CampaignSpec:
        return CampaignSpec(name, cells(**fixed, **overrides), shard_size, description)

    return preset


def evolution_campaign(
    strategies: Sequence[object],
    country: str,
    protocol: str,
    trials: int = 50,
    seed: int = 0,
    shard_size: int = 50,
) -> CampaignSpec:
    """Validate GA-discovered strategies at campaign scale.

    Takes the strategies an evolution run surfaced — e.g. the
    ``hall_of_fame`` texts of a :class:`~repro.core.evolution.GAResult` —
    and builds one cell per strategy against the censor it was trained
    on, with the same ``trial_seed`` fan-out the fitness evaluator uses.
    Duplicate behaviours are collapsed on canonical strategy text, so a
    hall of fame full of respellings validates each behaviour once.

    Unlike the :data:`PRESETS` entries this factory needs arguments (the
    strategies under test), so it is called from code — see
    ``docs/evolution.md`` — rather than from ``campaign run``.
    """
    from ..core import Strategy

    cells: List[CellSpec] = []
    seen = set()
    for strategy in strategies:
        parsed = (
            strategy if isinstance(strategy, Strategy) else Strategy.parse(str(strategy))
        )
        canonical = parsed.canonical()
        text = None if canonical.is_noop() else str(canonical)
        if text in seen:
            continue
        seen.add(text)
        cells.append(
            CellSpec.build(
                country, protocol, text, trials=trials, seed=seed,
                label=f"evolved-{len(cells)}",
            )
        )
    return CampaignSpec(
        name="evolution",
        cells=cells,
        shard_size=shard_size,
        description=f"GA-discovered strategies vs {country}/{protocol}",
    )


def coevolve_campaign(
    trials: int = 20,
    seed: int = 1,
    shard_size: int = 20,
    country: str = "china",
    epochs: int = 2,
) -> CampaignSpec:
    """Frontier validation for a co-evolution run, at campaign scale.

    Replays a small deterministic arms race
    (:func:`~repro.core.evolution.run_coevolution`) at spec-build time,
    then emits one cell per (paper strategy, censor) pair: every
    applicable paper strategy against the calibrated baseline and
    against each censor in the final adapted hall of fame (the adapted
    genomes ride in the cell's ``censor_params`` option). Because the
    search is seeded, rebuilding the spec — including ``--resume`` after
    an interruption — regenerates the identical cell list.
    """
    from ..core.evolution import CoevolveConfig, run_coevolution

    config = CoevolveConfig(
        epochs=epochs,
        strategy_population=8,
        censor_population=4,
        trials=1,
        frontier_trials=1,
        seed=seed,
    )
    result = run_coevolution(country, config=config)
    protocol = COUNTRIES[country].coevolve_protocol
    opponents = [("baseline", None)] + [
        (f"adapted-{index}", entry["genome"]["params"])
        for index, entry in enumerate(result.final_censor_hof)
    ]
    cells: List[CellSpec] = []
    for entry in result.frontier:
        for name, params in opponents:
            options = {} if params is None else {"censor_params": params}
            cells.append(
                CellSpec.build(
                    country, protocol, entry.number, trials=trials,
                    seed=seed + len(cells) * 1_000_003, options=options,
                    label=f"s{entry.number}-{name}",
                )
            )
    return CampaignSpec(
        name="coevolve", cells=cells, shard_size=shard_size,
        description=f"Robustness frontier validation vs adapted {country} censors",
    )


#: CLI-facing preset registry: name -> CampaignSpec factory.
PRESETS: Dict[str, Callable[..., CampaignSpec]] = {
    "coevolve": coevolve_campaign,
    "matrix": _driver_preset(
        "matrix", matrix_cells, 25, "Table 1 censorship matrix (no-evasion probes)"
    ),
    "robustness": _driver_preset(
        "robustness", robustness_cells, 20, "Success-vs-loss robustness sweep"
    ),
    "sni": _driver_preset(
        "sni", sni_cells, 30, "SNI-era matrix: record-level strategies vs SNI censors"
    ),
    "table2": _driver_preset("table2", table2_cells, 50, "Table 2, all countries"),
    "table2-china": _driver_preset(
        "table2-china", table2_cells, 50,
        "Table 2, China column: strategies 0-8 x protocols", countries=("china",),
    ),
}
