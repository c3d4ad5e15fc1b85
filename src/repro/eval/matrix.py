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
from typing import Dict, List

from ..censors.countries import COUNTRIES
from ..runtime import TrialExecutor, TrialSpec, trial_seed
from .runner import PROTOCOLS, censored_workload

__all__ = ["MatrixEntry", "measure_censorship_matrix", "format_matrix"]


@dataclass
class MatrixEntry:
    """Measured censorship status for one (country, protocol)."""

    country: str
    protocol: str
    censored: bool
    expected: bool


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

    Protocols a country censors use that country's censored workload;
    other protocols use China's workloads (any forbidden content) to show
    the censor does not react at all. Each pair is probed ``probes`` times
    because some censorship (the GFW's SMTP box) is itself flaky — a pair
    counts as censored when *any* probe is.

    All probes of all pairs are submitted as one batch through a
    :class:`~repro.runtime.TrialExecutor` (``workers``/``cache`` as in
    :func:`~repro.eval.runner.success_rate`; pass ``executor`` to share
    one and read its :class:`~repro.runtime.RunStats`). ``impairment``
    applies a network-impairment policy to every probe (the matrix should
    be stable under mild loss — retransmission recovers the trigger);
    ``net_seed`` pins the impairment stream per probe.
    """
    if executor is None:
        executor = TrialExecutor(workers=workers, cache=cache)

    pairs = []
    specs: List[TrialSpec] = []
    for country, profile in COUNTRIES.items():
        for protocol in PROTOCOLS:
            expected = protocol in profile.workloads
            # Forbidden content for some censor (China's), when this
            # country does not inspect this protocol.
            workload = censored_workload(country if expected else "china", protocol)
            pairs.append((country, protocol, expected))
            for probe in range(probes):
                extra = {}
                if net_seed is not None:
                    extra["net_seed"] = trial_seed(net_seed, probe)
                specs.append(
                    TrialSpec.build(
                        country,
                        protocol,
                        None,
                        seed=trial_seed(seed, probe),
                        workload=dict(workload),
                        impairment=impairment,
                        **extra,
                    )
                )

    results = executor.run_batch(specs)
    entries: List[MatrixEntry] = []
    for index, (country, protocol, expected) in enumerate(pairs):
        probe_results = results[index * probes : (index + 1) * probes]
        censored = any(
            result.censored or not result.succeeded for result in probe_results
        )
        entries.append(
            MatrixEntry(
                country=country,
                protocol=protocol,
                censored=censored,
                expected=expected,
            )
        )
    return entries


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
