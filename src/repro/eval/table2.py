"""Table 2 regeneration: success rates of all strategies, all countries.

Runs every (country, protocol, strategy) cell of Table 2 with ``trials``
independent seeded trials and reports measured success percentages next
to the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..censors.countries import countries_with
from ..core import SERVER_STRATEGIES
from ..runtime import CellSpec
from .reference import CHINA_PROTOCOLS, TABLE2_OTHER, paper_rate

__all__ = [
    "Table2Cell", "table2_cells", "generate_table2", "format_table2",
    "CHINA_STRATEGY_NUMBERS",
]

#: Strategy numbers evaluated against China (Table 2's China block).
CHINA_STRATEGY_NUMBERS = (0, 1, 2, 3, 4, 5, 6, 7, 8)

#: Other-country cells (country, strategy number, protocol), from Table 2.
OTHER_CELLS: Tuple[Tuple[str, int, str], ...] = tuple(sorted(TABLE2_OTHER))


@dataclass
class Table2Cell:
    """One measured cell of Table 2."""

    country: str
    strategy_number: int
    protocol: str
    measured: float
    paper: Optional[int]

    @property
    def measured_pct(self) -> int:
        """Measured success rate as a rounded percentage."""
        return round(self.measured * 100)

    @property
    def delta(self) -> Optional[int]:
        """Measured minus paper, in percentage points."""
        if self.paper is None:
            return None
        return self.measured_pct - self.paper


def _table2_keys(
    countries: Optional[Sequence[str]], china_protocols: Sequence[str]
) -> List[Tuple[str, int, str]]:
    """The (country, strategy number, protocol) of every cell, in table order."""
    wanted = countries if countries is not None else countries_with("paper")
    china = [("china", n, p) for n in CHINA_STRATEGY_NUMBERS for p in china_protocols]
    return (china if "china" in wanted else []) + [
        key for key in OTHER_CELLS if key[0] in wanted
    ]


def table2_cells(
    trials: int = 150,
    seed: int = 0,
    countries: Optional[Sequence[str]] = None,
    china_protocols: Sequence[str] = CHINA_PROTOCOLS,
) -> List[CellSpec]:
    """Table 2's grid: one cell per (country, protocol, strategy), in table order.

    China's cells run ``trials`` trials from base seed
    ``seed + number * 1_000_003``; the deterministic censors need fewer,
    ``max(10, trials // 5)`` from ``seed + number * 31``.
    """
    cells: List[CellSpec] = []
    for country, number, protocol in _table2_keys(countries, china_protocols):
        if country == "china":
            count, base = trials, seed + number * 1_000_003
        else:  # deterministic censors need few trials
            count, base = max(10, trials // 5), seed + number * 31
        cells.append(
            CellSpec.build(
                country, protocol, number, trials=count, seed=base,
                label=f"strategy-{number}",
            )
        )
    return cells


def generate_table2(
    trials: int = 150,
    seed: int = 0,
    countries: Optional[List[str]] = None,
    china_protocols: Tuple[str, ...] = CHINA_PROTOCOLS,
    workers: int = 1,
    cache=None,
    executor=None,
) -> List[Table2Cell]:
    """Measure every Table 2 cell; returns cells in table order.

    The grid of :func:`table2_cells` runs as one batch through one
    :class:`~repro.runtime.TrialExecutor`, so the result cache and run
    counters span the whole table (``workers``/``cache``/``executor`` as
    in :func:`~repro.eval.runner.success_rate`).
    """
    from ..runtime import TrialExecutor

    if executor is None:
        executor = TrialExecutor(workers=workers, cache=cache)
    keys = _table2_keys(countries, china_protocols)
    grid = executor.run_cells(table2_cells(trials, seed, countries, china_protocols))
    return [
        Table2Cell(
            country, number, protocol, sum(r.succeeded for r in results) / len(results),
            paper_rate(country, number, protocol),
        )
        for (country, number, protocol), results in zip(keys, grid)
    ]


def format_table2(cells: List[Table2Cell]) -> str:
    """Render measured-vs-paper cells as the paper's Table 2 layout."""
    lines = ["Table 2 — server-side strategy success rates (measured% / paper%)"]
    china = [c for c in cells if c.country == "china"]
    if china:
        protocols = sorted({c.protocol for c in china}, key=CHINA_PROTOCOLS.index)
        header = "  ".join(f"{p.upper():>12}" for p in protocols)
        lines.append(f"{'China':<32}{header}")
        numbers = sorted({c.strategy_number for c in china})
        by_key: Dict[Tuple[int, str], Table2Cell] = {
            (c.strategy_number, c.protocol): c for c in china
        }
        for number in numbers:
            name = (
                "No evasion"
                if number == 0
                else SERVER_STRATEGIES[number].name
            )
            row = []
            for protocol in protocols:
                cell = by_key[(number, protocol)]
                row.append(f"{cell.measured_pct:>4}/{cell.paper if cell.paper is not None else '--':>3}    ")
            lines.append(f"{number:>2} {name:<29}" + "  ".join(row))
    for country in countries_with("paper"):
        rows = [c for c in cells if c.country == country]
        if country == "china" or not rows:
            continue
        lines.append(country.capitalize())
        for cell in rows:
            name = (
                "No evasion"
                if cell.strategy_number == 0
                else SERVER_STRATEGIES[cell.strategy_number].name
            )
            lines.append(
                f"{cell.strategy_number:>2} {name:<29}{cell.protocol:>6}: "
                f"{cell.measured_pct}/{cell.paper}"
            )
    return "\n".join(lines)
