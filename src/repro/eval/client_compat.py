"""§7 regeneration: client compatibility across 17 OSes and networks.

Mirrors the paper's private-network methodology: each strategy is run
against each client OS *without a censor* (an Ubuntu 18.04 server running
each server-side strategy), and a strategy is compatible with a client if
the exchange still completes with correct data. The paper found all but
Strategies 5, 9 and 10 work everywhere; those three fail on every Windows
and macOS version (their stacks consume SYN+ACK payloads) and are fixed
by the checksum-corrupted insertion-packet variant.

The network-compatibility anecdote (Android 10 over wifi / T-Mobile /
AT&T) is reproduced with carrier middlebox models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..censors.carrier import att_box, tmobile_box, wifi_box
from ..core import (
    PAPER_STRATEGY_NUMBERS,
    SERVER_STRATEGIES,
    compat_strategy,
    deployed_strategy,
)
from ..tcpstack import PERSONALITIES, all_personality_names
from .runner import run_trial

__all__ = [
    "CompatMatrix",
    "run_os_matrix",
    "run_network_matrix",
    "format_os_matrix",
    "EXPECTED_OS_FAILURES",
]

#: (strategy number, OS family) pairs the paper reports as incompatible.
EXPECTED_OS_FAILURES = {
    (5, "windows"),
    (5, "macos"),
    (9, "windows"),
    (9, "macos"),
    (10, "windows"),
    (10, "macos"),
}

# The §7 compatibility study covers the paper's Table 2 strategies only;
# the SNI-era additions (12+) are evaluated by eval/sni_matrix.py.
ALL_STRATEGY_NUMBERS = PAPER_STRATEGY_NUMBERS


@dataclass
class CompatMatrix:
    """Strategy-by-OS compatibility results.

    ``works[(strategy_number, os_name)]`` is True when the exchange
    completed correctly with the strategy installed server-side.
    """

    works: Dict[Tuple[int, str], bool] = field(default_factory=dict)
    compat_works: Dict[Tuple[int, str], bool] = field(default_factory=dict)

    def failures(self) -> List[Tuple[int, str]]:
        """(strategy, os) pairs where the plain strategy broke the client."""
        return sorted(key for key, ok in self.works.items() if not ok)


def run_os_matrix(
    strategy_numbers: Tuple[int, ...] = ALL_STRATEGY_NUMBERS,
    protocol: str = "http",
    seed: int = 0,
    include_compat: bool = True,
) -> CompatMatrix:
    """Run every strategy against every §7 client OS (no censor)."""
    matrix = CompatMatrix()
    for number in strategy_numbers:
        plain = deployed_strategy(number)
        fixed = compat_strategy(number) if include_compat else None
        for os_name in all_personality_names():
            result = run_trial(
                None, protocol, plain, seed=seed, client_os=os_name, capture_trace=False
            )
            matrix.works[(number, os_name)] = result.succeeded
            if fixed is not None:
                result = run_trial(
                    None, protocol, fixed, seed=seed, client_os=os_name,
                    capture_trace=False,
                )
                matrix.compat_works[(number, os_name)] = result.succeeded
    return matrix


def run_network_matrix(
    strategy_numbers: Tuple[int, ...] = (1, 2, 3, 4, 6, 7, 8, 11),
    protocol: str = "http",
    client_os: str = "android-10",
    seed: int = 0,
) -> Dict[str, Dict[int, bool]]:
    """The Pixel-3-on-cellular anecdote: wifi vs T-Mobile vs AT&T."""
    results: Dict[str, Dict[int, bool]] = {}
    for factory in (wifi_box, tmobile_box, att_box):
        box = factory()
        row: Dict[int, bool] = {}
        for number in strategy_numbers:
            result = run_trial(
                None,
                protocol,
                deployed_strategy(number),
                seed=seed,
                client_os=client_os,
                client_side_boxes=[box],
                capture_trace=False,
            )
            row[number] = result.succeeded
            box.reset()
        results[box.name] = row
    return results


def format_os_matrix(matrix: CompatMatrix) -> str:
    """Render the OS-compatibility results grouped by family."""
    lines = ["§7 — client OS compatibility (x = strategy breaks the client)"]
    numbers = sorted({number for number, _ in matrix.works})
    header = "".join(f"{n:>4}" for n in numbers)
    lines.append(f"{'OS':<34}{header}")
    for os_name in all_personality_names():
        cells = []
        for number in numbers:
            ok = matrix.works.get((number, os_name), True)
            fixed = matrix.compat_works.get((number, os_name))
            mark = "." if ok else ("x*" if fixed else "x")
            cells.append(f"{mark:>4}")
        lines.append(f"{os_name:<34}{''.join(cells)}")
    lines.append("legend: . works   x fails   x* fails but compat variant works")
    return "\n".join(lines)
