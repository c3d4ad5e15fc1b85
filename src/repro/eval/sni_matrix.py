"""SNI-era evaluation matrix: record-level strategies vs SNI censors.

The Table-2-style grid for the post-paper boxes in
:mod:`repro.censors.sni` — every country whose registry profile is
flagged ``sni`` (:data:`~repro.censors.countries.COUNTRIES`) against
every column in :data:`SNI_COLUMNS`:

- ``baseline`` — no evasion (both boxes must block it);
- ``12``–``15`` — the record-level server-side strategies
  (:mod:`repro.strategies.tlsrecord`);
- ``esni`` — the same censored name carried in an encrypted SNI
  extension, no strategy installed (the ECH/ESNI-tolerant serving path:
  South Korea's box finds no plaintext SNI and passes; Russia's strict
  box drops the SNI-less hello on sight).

The expected shape: South Korea blocked only at baseline; Russia blocked
everywhere except deep connection migration (#15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..censors.countries import countries_with
from ..core import SERVER_STRATEGIES
from ..runtime import CellSpec
from .runner import censored_workload

__all__ = [
    "SNI_COLUMNS",
    "SNIMatrixCell",
    "esni_workload",
    "sni_cells",
    "sni_matrix",
    "format_sni_matrix",
]

#: Matrix columns: baseline, each SNI-era strategy number, ESNI serving.
SNI_COLUMNS: Tuple[str, ...] = ("baseline", "12", "13", "14", "15", "esni")

_PROTOCOL = "https"


def esni_workload(country: str) -> dict:
    """The country's censored HTTPS workload, with the SNI encrypted."""
    workload = censored_workload(country, _PROTOCOL)
    workload["encrypted_sni"] = True
    return workload


@dataclass
class SNIMatrixCell:
    """One measured cell of the SNI matrix."""

    country: str
    column: str
    measured: float

    @property
    def measured_pct(self) -> int:
        """Measured success rate as a rounded percentage."""
        return round(self.measured * 100)


def _sni_keys(countries: Optional[Sequence[str]]) -> List[Tuple[str, str]]:
    """The (country, column) of every cell, in table order."""
    return [
        (country, column)
        for country in countries_with("sni")
        if countries is None or country in countries
        for column in SNI_COLUMNS
    ]


def sni_cells(
    trials: int = 30,
    seed: int = 0,
    countries: Optional[Sequence[str]] = None,
) -> List[CellSpec]:
    """The SNI grid: one HTTPS cell per (country, column), in table order.

    Column ``i`` runs from base seed ``seed + i * 1_000_003`` in every
    country. ``esni`` installs no strategy and sends the country's
    censored name in an encrypted SNI (:func:`esni_workload`).
    """
    return [
        CellSpec.build(
            country, _PROTOCOL, int(column) if column.isdigit() else None,
            trials=trials, seed=seed + SNI_COLUMNS.index(column) * 1_000_003,
            options={"workload": esni_workload(country)} if column == "esni" else None,
            label=f"sni-{column}",
        )
        for country, column in _sni_keys(countries)
    ]


def sni_matrix(
    trials: int = 30,
    seed: int = 0,
    countries: Optional[List[str]] = None,
    workers: int = 1,
    cache=None,
    executor=None,
) -> List[SNIMatrixCell]:
    """Measure every cell of the SNI matrix; returns cells in table order.

    The grid of :func:`sni_cells` runs as one batch through one executor
    (``workers``/``cache``/``executor`` as in
    :func:`~repro.eval.runner.success_rate`), so the grid is
    byte-identical across worker counts.
    """
    from ..runtime import TrialExecutor

    if executor is None:
        executor = TrialExecutor(workers=workers, cache=cache)
    grid = executor.run_cells(sni_cells(trials, seed, countries))
    return [
        SNIMatrixCell(country, column, sum(r.succeeded for r in results) / len(results))
        for (country, column), results in zip(_sni_keys(countries), grid)
    ]


def _column_label(column: str) -> str:
    if column == "baseline":
        return "No evasion"
    if column == "esni":
        return "Encrypted SNI (no strategy)"
    return SERVER_STRATEGIES[int(column)].name


def format_sni_matrix(cells: List[SNIMatrixCell]) -> str:
    """Render the grid: countries across, strategies down (success %)."""
    by_key: Dict[Tuple[str, str], SNIMatrixCell] = {
        (c.country, c.column): c for c in cells
    }
    countries = [c for c in countries_with("sni") if any(k[0] == c for k in by_key)]
    lines = ["SNI-era matrix — success rates (%) against TLS-metadata censors"]
    header = "".join(f"{c:>12}" for c in countries)
    lines.append(f"{'Strategy':<32}{header}")
    for column in SNI_COLUMNS:
        row = [f"{_column_label(column):<32}"]
        present = False
        for country in countries:
            cell = by_key.get((country, column))
            if cell is None:
                row.append(f"{'--':>12}")
            else:
                row.append(f"{cell.measured_pct:>12}")
                present = True
        if present:
            lines.append("".join(row))
    return "\n".join(lines)
