"""``repro profile`` — where does a trial actually spend its time?

Runs a small batch of trials in-process with span timing enabled and
prints a per-phase wall-time breakdown. The top-level phases
(``trial/spec_decode`` → ``trial/build`` → ``trial/simulate`` →
``trial/finalize``) are contiguous brackets of each trial, so their sum
covers essentially all of the trial wall time — the report prints the
exact coverage percentage. Inner spans (censor decisions, endpoint
stepping, strategy application) are shown separately; they nest inside
``simulate`` and are not added to the coverage sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import metrics, spans

__all__ = ["ProfileResult", "profile_run", "format_profile"]

#: Top-level trial phases, in execution order. These partition the
#: ``trial`` span; coverage = their sum / the ``trial`` span's total.
TRIAL_PHASES = (
    "trial/spec_decode",
    "trial/build",
    "trial/simulate",
    "trial/finalize",
)

#: Inner spans worth surfacing (nested inside simulate; inclusive times).
INNER_SPANS = (
    ("simulate/censor", "censor decision"),
    ("simulate/middlebox", "middlebox transit"),
    ("simulate/endpoint", "endpoint stepping"),
    ("simulate/strategy", "strategy application"),
)


@dataclass
class ProfileResult:
    """Per-phase timing for one profiled batch."""

    country: Optional[str]
    protocol: str
    strategy: Optional[str]
    trials: int
    snapshot: Dict[str, Any] = field(default_factory=dict)

    def _span(self, name: str) -> Tuple[float, float, int]:
        """(wall seconds, virtual seconds, calls) for one span."""
        key = f"span={name}"

        def sample(family: str) -> float:
            entry = self.snapshot.get(family)
            if not entry:
                return 0.0
            return entry["samples"].get(key, 0.0)

        return (
            sample("repro_span_seconds_total"),
            sample("repro_span_vtime_seconds_total"),
            int(sample("repro_span_calls_total")),
        )

    @property
    def trial_wall(self) -> float:
        """Total wall seconds spent inside the ``trial`` span."""
        return self._span("trial")[0]

    @property
    def coverage(self) -> float:
        """Fraction of trial wall time the top-level phases account for."""
        total = self.trial_wall
        if total <= 0.0:
            return 0.0
        return sum(self._span(name)[0] for name in TRIAL_PHASES) / total


def profile_run(
    country: Optional[str],
    protocol: str,
    strategy: Any = None,
    trials: int = 5,
    seed: int = 0,
    **options: Any,
) -> ProfileResult:
    """Run one cell's ``trials`` spec executions in-process with spans enabled.

    The cell runs as one serial, uncached executor batch, so its trials
    share their shard's world exactly as they do in every other driver.
    A bad country, protocol, strategy or trial count raises
    :class:`~repro.runtime.CampaignError` before anything runs. Metrics
    are collected into an isolated registry so repeated profile
    runs in one process do not contaminate each other (or the global
    telemetry view).
    """
    from ..runtime import CellSpec, TrialExecutor

    cell = CellSpec.build(
        country, protocol, strategy, trials=trials, seed=seed,
        client_strategy=options.pop("client_strategy", None),
        impairment=options.pop("impairment", None), options=options,
    )
    registry = metrics.MetricsRegistry()
    with metrics.collecting(registry), spans.profiling():
        TrialExecutor().run_cells([cell])
    return ProfileResult(
        country=country,
        protocol=protocol,
        strategy=str(strategy) if strategy is not None else None,
        trials=trials,
        snapshot=registry.snapshot(),
    )


def format_profile(result: ProfileResult) -> str:
    """Human-readable per-phase breakdown table."""
    total = result.trial_wall
    target = result.country if result.country is not None else "none"
    label = result.strategy if result.strategy else "no evasion"
    lines = [
        f"Profile: {target}/{result.protocol} strategy={label} "
        f"trials={result.trials}",
        "",
        f"{'phase':<24} {'wall':>10} {'% trial':>8} {'calls':>7} {'vtime':>10}",
    ]

    def row(label: str, name: str) -> str:
        wall, vtime, calls = result._span(name)
        share = (wall / total * 100.0) if total > 0 else 0.0
        return (
            f"{label:<24} {wall:>9.4f}s {share:>7.1f}% {calls:>7d} "
            f"{vtime:>9.3f}s"
        )

    for name in TRIAL_PHASES:
        lines.append(row(name.split("/", 1)[1], name))
    lines.append("-" * 64)
    lines.append(
        f"{'trial total':<24} {total:>9.4f}s {100.0:>7.1f}% "
        f"{result._span('trial')[2]:>7d} {result._span('trial')[1]:>9.3f}s"
    )
    lines.append(
        f"phase coverage: {result.coverage * 100.0:.1f}% of trial wall time"
    )

    inner = [
        (label, result._span(name))
        for name, label in INNER_SPANS
        if result._span(name)[2] > 0
    ]
    if inner:
        lines.append("")
        lines.append("within simulate (inclusive, nested):")
        for label, (wall, vtime, calls) in inner:
            share = (wall / total * 100.0) if total > 0 else 0.0
            lines.append(
                f"  {label:<22} {wall:>9.4f}s {share:>7.1f}% {calls:>7d} "
                f"{vtime:>9.3f}s"
            )
    return "\n".join(lines)
