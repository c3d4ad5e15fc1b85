"""Vantage-point sensitivity (§4.2).

The paper ran clients from multiple vantage points per country and
servers in six external countries and found "no significant difference in
strategy effectiveness across the different vantage points or external
servers". In the reproduction a vantage point is a topology variation —
censor hop distance, total path length, and base RTT — and this module
measures a strategy's success rate across a set of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..runtime import CellSpec, TrialExecutor

__all__ = [
    "VantagePoint", "VANTAGE_POINTS", "vantage_cells", "measure_across_vantages",
    "format_vantages",
]


@dataclass(frozen=True)
class VantagePoint:
    """One client location / external server pairing.

    Attributes:
        name: Label, e.g. ``"beijing->us"``.
        censor_hop: Hops from the client to the censor.
        server_hop: Hops from the client to the server.
    """

    name: str
    censor_hop: int
    server_hop: int


#: China's four vantage points paired with representative external
#: servers (Table 1 lists Beijing/Shanghai/Shenzen/Zhengzhou and servers
#: in six countries; hop counts vary per pairing).
VANTAGE_POINTS: Tuple[VantagePoint, ...] = (
    VantagePoint("beijing->us", censor_hop=3, server_hop=10),
    VantagePoint("shanghai->germany", censor_hop=2, server_hop=12),
    VantagePoint("shenzen->japan", censor_hop=4, server_hop=8),
    VantagePoint("zhengzhou->australia", censor_hop=5, server_hop=14),
)


def vantage_cells(
    strategy_number: int = 1,
    protocol: str = "http",
    country: str = "china",
    trials: int = 100,
    seed: int = 0,
    vantages: Tuple[VantagePoint, ...] = VANTAGE_POINTS,
) -> List[CellSpec]:
    """One cell per vantage point, in order; vantage ``i`` runs from base
    seed ``seed + i * 1_000_003`` with its censor and server hops."""
    return [
        CellSpec.build(
            country, protocol, strategy_number, trials=trials,
            seed=seed + index * 1_000_003, label=vantage.name,
            options={"censor_hop": vantage.censor_hop, "server_hop": vantage.server_hop},
        )
        for index, vantage in enumerate(vantages)
    ]


def measure_across_vantages(
    strategy_number: int = 1,
    protocol: str = "http",
    country: str = "china",
    trials: int = 100,
    seed: int = 0,
    vantages: Tuple[VantagePoint, ...] = VANTAGE_POINTS,
) -> Dict[str, float]:
    """Success rate of one strategy from each vantage point."""
    grid = TrialExecutor().run_cells(
        vantage_cells(strategy_number, protocol, country, trials, seed, vantages)
    )
    return {
        vantage.name: sum(result.succeeded for result in results) / trials
        for vantage, results in zip(vantages, grid)
    }


def format_vantages(rates: Dict[str, float], paper_note: str = "") -> str:
    """Render per-vantage rates with the spread."""
    lines = ["§4.2 — strategy effectiveness across vantage points"]
    for name, rate in rates.items():
        lines.append(f"{name:<24} {rate * 100:5.1f}%")
    spread = max(rates.values()) - min(rates.values())
    lines.append(f"spread: {spread * 100:.1f} points")
    lines.append(
        paper_note
        or "paper: no significant difference across vantage points or servers"
    )
    return "\n".join(lines)
