"""§3 regeneration: client-side strategies do not generalize server-side.

Reproduces the paper's experiment: take working client-side strategies
(TCB-teardown species sending insertion packets), verify they work from
the client, derive the two server-side analogs (insertion packet before /
after the SYN+ACK), and show none of them work — including the variant
where the client delays its query until the insertion packets arrive, and
the reversed-direction variant the paper used to show the GFW processes
client and server packets differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core import CLIENT_SIDE_STRATEGIES, client_side_strategy, server_side_analogs
from .runner import run_trial, success_rate

__all__ = ["GeneralizationResult", "run_generalization", "format_generalization"]

#: A server-side analog "works" if it beats this success rate (well above
#: the ~3% baseline DPI miss).
WORKS_THRESHOLD = 0.25


@dataclass
class GeneralizationResult:
    """Outcome of the §3 experiment."""

    client_side_working: Dict[str, bool] = field(default_factory=dict)
    analog_rates: Dict[str, float] = field(default_factory=dict)

    @property
    def client_working_count(self) -> int:
        """How many client-side strategies evade censorship."""
        return sum(self.client_side_working.values())

    @property
    def analogs_working_count(self) -> int:
        """How many server-side analogs evade censorship."""
        return sum(rate > WORKS_THRESHOLD for rate in self.analog_rates.values())


def run_generalization(
    protocol: str = "http",
    trials: int = 20,
    seed: int = 0,
) -> GeneralizationResult:
    """Run the full §3 experiment against China."""
    result = GeneralizationResult()
    for name in sorted(CLIENT_SIDE_STRATEGIES):
        trial = run_trial(
            "china",
            protocol,
            None,
            client_strategy=client_side_strategy(name),
            seed=seed,
            capture_trace=False,
        )
        result.client_side_working[name] = trial.succeeded
        for analog in server_side_analogs(name):
            rate = success_rate(
                "china", protocol, analog, trials=trials, seed=seed + 17
            )
            result.analog_rates[analog.name] = rate
    return result


def format_generalization(result: GeneralizationResult) -> str:
    """Render the §3 summary."""
    lines = ["§3 — client-side strategies do not generalize to server-side"]
    total_client = len(result.client_side_working)
    lines.append(
        f"client-side strategies working: {result.client_working_count}/{total_client}"
        " (paper: all working species work client-side)"
    )
    lines.append(
        f"server-side analogs working: {result.analogs_working_count}/"
        f"{len(result.analog_rates)} (paper: 0 of 50)"
    )
    for name, rate in sorted(result.analog_rates.items()):
        lines.append(f"  {name:<42} success={rate * 100:5.1f}%")
    return "\n".join(lines)
