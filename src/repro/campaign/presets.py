"""Canned campaign specs for the repo's standard experiments.

Each preset is a ~10-line factory that expresses an existing evaluation
driver — the Table 1 censorship matrix, Table 2's success-rate grid, the
impairment robustness sweep — as a :class:`CampaignSpec`, with the exact
seed derivations those drivers use. Running the preset therefore
reproduces the driver's numbers bit-for-bit while gaining sharding,
checkpointing, and resume.

The :data:`PRESETS` registry maps CLI-facing names to factories; every
factory accepts ``trials``/``seed``/``shard_size`` keyword overrides.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..censors.countries import COUNTRIES, countries_with
from ..eval.reference import CHINA_PROTOCOLS
from ..eval.sweeps import DEFAULT_LOSS_GRID, robustness_case
from ..eval.table2 import CHINA_STRATEGY_NUMBERS, OTHER_CELLS
from .spec import CampaignSpec, CellSpec

__all__ = [
    "PRESETS",
    "coevolve_campaign",
    "evolution_campaign",
    "matrix_campaign",
    "robustness_campaign",
    "sni_campaign",
    "table2_campaign",
    "table2_china_campaign",
]


def table2_china_campaign(
    trials: int = 150,
    seed: int = 0,
    shard_size: int = 50,
    protocols: Sequence[str] = CHINA_PROTOCOLS,
) -> CampaignSpec:
    """Table 2's China block: strategies 0-8 across the five protocols.

    Cell seeds follow :func:`repro.eval.table2.generate_table2` exactly
    (``seed + number * 1_000_003``), so each cell's rate equals the
    direct ``success_rate`` measurement for the same arguments.
    """
    cells = [
        CellSpec.build(
            "china", protocol, number, trials=trials,
            seed=seed + number * 1_000_003, label=f"strategy-{number}",
        )
        for number in CHINA_STRATEGY_NUMBERS
        for protocol in protocols
    ]
    return CampaignSpec(
        name="table2-china", cells=cells, shard_size=shard_size,
        description="Table 2, China column: strategies 0-8 x protocols",
    )


def table2_campaign(trials: int = 150, seed: int = 0, shard_size: int = 50) -> CampaignSpec:
    """All of Table 2: the China block plus the deterministic-censor rows."""
    base = table2_china_campaign(trials=trials, seed=seed, shard_size=shard_size)
    cells = list(base.cells) + [
        CellSpec.build(
            country, protocol, number, trials=max(10, trials // 5),
            seed=seed + number * 31, label=f"strategy-{number}",
        )
        for country, number, protocol in OTHER_CELLS
    ]
    return CampaignSpec(
        name="table2", cells=cells, shard_size=shard_size,
        description="Table 2, all countries",
    )


def matrix_campaign(trials: int = 5, seed: int = 0, shard_size: int = 25) -> CampaignSpec:
    """Table 1's censorship matrix: no-evasion probes per (country, protocol).

    ``trials`` plays the matrix driver's ``probes`` role; a cell is
    "censored" when any of its trials was censored or failed.
    """
    from ..eval.runner import PROTOCOLS, censored_workload

    cells: List[CellSpec] = []
    for country, profile in COUNTRIES.items():
        for protocol in PROTOCOLS:
            source = country if protocol in profile.workloads else "china"
            cells.append(
                CellSpec.build(
                    country, protocol, None, trials=trials, seed=seed,
                    options={"workload": censored_workload(source, protocol)},
                )
            )
    return CampaignSpec(
        name="matrix", cells=cells, shard_size=shard_size,
        description="Table 1 censorship matrix (no-evasion probes)",
    )


def robustness_campaign(
    trials: int = 20,
    seed: int = 0,
    shard_size: int = 20,
    net_seed: Optional[int] = None,
    loss_rates: Sequence[float] = DEFAULT_LOSS_GRID,
) -> CampaignSpec:
    """The impairment robustness sweep: flagship strategy per country
    measured at each per-link loss rate (mirrors
    :func:`repro.eval.sweeps.impairment_robustness_sweep`)."""
    cells = [
        CellSpec.build(
            country, *robustness_case(country),
            trials=trials, seed=seed,
            impairment={"loss": loss} if loss else None,
            net_seed=net_seed if loss else None,
            label=f"loss-{loss:g}",
        )
        for country in sorted(COUNTRIES)
        for loss in loss_rates
    ]
    return CampaignSpec(
        name="robustness", cells=cells, shard_size=shard_size,
        description="Success-vs-loss robustness sweep",
    )


def sni_campaign(trials: int = 30, seed: int = 0, shard_size: int = 30) -> CampaignSpec:
    """The SNI-era matrix: record-level strategies vs TLS-metadata censors.

    Cell seeds follow :func:`repro.eval.sni_matrix.sni_matrix` exactly
    (``seed + column_index * 1_000_003``), so each cell's rate equals
    the direct grid measurement for the same arguments.
    """
    from ..eval.sni_matrix import SNI_COLUMNS, esni_workload

    cells: List[CellSpec] = []
    for country in countries_with("sni"):
        for index, column in enumerate(SNI_COLUMNS):
            number = None
            options = {}
            if column == "esni":
                options["workload"] = esni_workload(country)
            elif column != "baseline":
                number = int(column)
            cells.append(
                CellSpec.build(
                    country, "https", number, trials=trials,
                    seed=seed + index * 1_000_003, options=options,
                    label=f"sni-{column}",
                )
            )
    return CampaignSpec(
        name="sni", cells=cells, shard_size=shard_size,
        description="SNI-era matrix: record-level strategies vs SNI censors",
    )


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
    "matrix": matrix_campaign,
    "robustness": robustness_campaign,
    "sni": sni_campaign,
    "table2": table2_campaign,
    "table2-china": table2_china_campaign,
}
