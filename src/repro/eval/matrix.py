"""Table 1 regeneration: which protocols trigger censorship where.

The paper's Table 1 lists client vantage points and censored protocols
per country. In the reproduction the vantage points are configuration
(the paper found "no significant difference in strategy effectiveness
across the different vantage points"), and the protocol matrix is
*measured*: for each (country, protocol) we issue a forbidden request
with no evasion and record whether censorship triggers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..censors.countries import COUNTRIES
from ..runtime import CellSpec, TrialExecutor
from .runner import PROTOCOLS, censored_workload

__all__ = ["MatrixEntry", "matrix_cells", "measure_censorship_matrix", "format_matrix"]


@dataclass
class MatrixEntry:
    """Measured censorship status for one (country, protocol)."""

    country: str
    protocol: str
    censored: bool
    expected: bool


def matrix_cells(
    trials: int = 5,
    seed: int = 0,
    impairment=None,
    net_seed: Optional[int] = None,
) -> List[CellSpec]:
    """Table 1's grid: one no-evasion cell per (country, protocol).

    Protocols a country censors use that country's censored workload;
    other protocols use China's workloads (any forbidden content) to show
    the censor does not react at all. Every cell has ``trials`` probes
    from base seed ``seed``; ``impairment`` and ``net_seed`` apply to all.
    """
    cells: List[CellSpec] = []
    for country, profile in COUNTRIES.items():
        for protocol in PROTOCOLS:
            source = country if protocol in profile.workloads else "china"
            cells.append(
                CellSpec.build(
                    country, protocol, trials=trials, seed=seed,
                    impairment=impairment, net_seed=net_seed,
                    options={"workload": censored_workload(source, protocol)},
                )
            )
    return cells


def measure_censorship_matrix(
    seed: int = 0,
    probes: int = 5,
    workers: int = 1,
    cache=None,
    executor: TrialExecutor = None,
    impairment=None,
    net_seed: int = None,
) -> List[MatrixEntry]:
    """Probe every (country, protocol) pair with forbidden requests.

    Each pair of :func:`matrix_cells` is probed ``probes`` times because
    some censorship (the GFW's SMTP box) is itself flaky — a pair counts
    as censored when *any* probe is.

    The whole grid runs as one batch through a
    :class:`~repro.runtime.TrialExecutor` (``workers``/``cache`` as in
    :func:`~repro.eval.runner.success_rate`; pass ``executor`` to share
    one and read its :class:`~repro.runtime.RunStats`). ``impairment``
    applies a network-impairment policy to every probe (the matrix should
    be stable under mild loss — retransmission recovers the trigger);
    ``net_seed`` pins the impairment stream per probe.
    """
    if executor is None:
        executor = TrialExecutor(workers=workers, cache=cache)
    cells = matrix_cells(probes, seed, impairment, net_seed)
    return [
        MatrixEntry(
            country=cell.country,
            protocol=cell.protocol,
            censored=any(r.censored or not r.succeeded for r in results),
            expected=cell.protocol in COUNTRIES[cell.country].workloads,
        )
        for cell, results in zip(cells, executor.run_cells(cells))
    ]


def format_matrix(entries: List[MatrixEntry]) -> str:
    """Render the measured matrix next to Table 1's expectations."""
    lines = ["Table 1 — protocols censored per country (measured vs paper)"]
    by_country: Dict[str, List[MatrixEntry]] = {}
    for entry in entries:
        by_country.setdefault(entry.country, []).append(entry)
    for country, rows in by_country.items():
        vantage = ", ".join(COUNTRIES[country].vantage_points)
        censored = [r.protocol.upper() for r in rows if r.censored]
        expected = [r.protocol.upper() for r in rows if r.expected]
        lines.append(
            f"{country:<12} vantage: {vantage:<40} measured: {','.join(censored) or '-'}"
            f"  paper: {','.join(expected)}"
        )
    return "\n".join(lines)
