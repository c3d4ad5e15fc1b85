"""Fleet-run statistics: throughput, latency percentiles, evasion rates.

:class:`FleetStats` reduces the per-flow verdict records a
:class:`~repro.fleet.world.FleetWorld` produces into the serving-side
report the paper's deployment story needs: how many flows per virtual
second the deployed server handled, how long clients waited for their
verdicts, and — per country and per (country, protocol) pair — how often
the SYN-time strategy selection fired and how often it evaded.

Everything here is a pure function of the records, which are themselves
sorted by global flow index, so the JSON artifact
(:meth:`FleetStats.to_json`) is byte-identical across repeats and worker
counts — the property the ``fleet-smoke`` CI job diffs for. Wall-clock
numbers never enter the artifact.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence

from .spec import FleetSpec

__all__ = ["FleetStats", "percentile"]


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (q in 0..1) of ``values``; None if empty."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def _rate(numerator: int, denominator: int) -> Optional[float]:
    return round(numerator / denominator, 6) if denominator else None


class FleetStats:
    """Aggregated report over one fleet run's per-flow records."""

    def __init__(self, spec: FleetSpec, records: List[dict]) -> None:
        self.spec = spec
        self.records = records
        self.flows = len(records)

        self.outcomes: Dict[str, int] = {}
        for record in records:
            self.outcomes[record["outcome"]] = (
                self.outcomes.get(record["outcome"], 0) + 1
            )
        self.evaded = sum(1 for r in records if r["succeeded"])
        self.censored = sum(1 for r in records if r["censored"])
        self.strategy_hits = sum(1 for r in records if r["strategy"] is not None)

        latencies = [r["latency"] for r in records if r["latency"] is not None]
        self.latency_p50 = percentile(latencies, 0.50)
        self.latency_p90 = percentile(latencies, 0.90)
        self.latency_p99 = percentile(latencies, 0.99)

        # Virtual makespan: the last arrival plus the max_time horizon
        # every flow is served within — the serving window of the whole
        # run (flows that drain sooner are finalized earlier).
        self.virtual_seconds = (
            round(max(r["arrival"] for r in records) + spec.max_time, 9)
            if records
            else 0.0
        )
        self.flows_per_virtual_second = (
            round(self.flows / self.virtual_seconds, 6)
            if self.virtual_seconds
            else None
        )

        # Overhead SLO: of the flows that evaded, how many finished
        # within the spec's latency budget.
        slo_candidates = [
            r for r in records if r["succeeded"] and r["latency"] is not None
        ]
        self.slo_met = sum(
            1 for r in slo_candidates if r["latency"] <= spec.slo_latency
        )
        self.slo_fraction = _rate(self.slo_met, len(slo_candidates))

        self.per_country = self._group(lambda r: r["country"])
        self.per_pair = self._group(lambda r: f"{r['country']}/{r['protocol']}")

    def _group(self, key) -> Dict[str, dict]:
        groups: Dict[str, List[dict]] = {}
        for record in self.records:
            groups.setdefault(key(record), []).append(record)
        out: Dict[str, dict] = {}
        for name in sorted(groups):
            rows = groups[name]
            evaded = sum(1 for r in rows if r["succeeded"])
            hits = sum(1 for r in rows if r["strategy"] is not None)
            latencies = [r["latency"] for r in rows if r["latency"] is not None]
            out[name] = {
                "flows": len(rows),
                "evaded": evaded,
                "evasion_rate": _rate(evaded, len(rows)),
                "censored": sum(1 for r in rows if r["censored"]),
                "strategy_hits": hits,
                "strategy_hit_rate": _rate(hits, len(rows)),
                "timeouts": sum(1 for r in rows if r["outcome"] == "timeout"),
                "latency_p50": percentile(latencies, 0.50),
            }
        return out

    # ------------------------------------------------------------------

    def to_payload(self, include_flows: bool = True) -> dict:
        """Deterministic JSON-able report (no wall-clock quantities)."""
        payload = {
            "spec": self.spec.summary(),
            "flows": self.flows,
            "outcomes": {k: self.outcomes[k] for k in sorted(self.outcomes)},
            "evaded": self.evaded,
            "evasion_rate": _rate(self.evaded, self.flows),
            "censored": self.censored,
            "strategy_hits": self.strategy_hits,
            "latency": {
                "p50": self.latency_p50,
                "p90": self.latency_p90,
                "p99": self.latency_p99,
            },
            "throughput": {
                "virtual_seconds": self.virtual_seconds,
                "flows_per_virtual_second": self.flows_per_virtual_second,
            },
            "slo": {
                "latency_budget": self.spec.slo_latency,
                "met": self.slo_met,
                "fraction": self.slo_fraction,
            },
            "per_country": self.per_country,
            "per_pair": self.per_pair,
        }
        if include_flows:
            payload["flow_records"] = self.records
        return payload

    def to_json(self, include_flows: bool = True) -> str:
        """Canonical JSON rendering (sorted keys, trailing newline)."""
        return (
            json.dumps(
                self.to_payload(include_flows=include_flows),
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )

    # ------------------------------------------------------------------

    def format_report(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"fleet: {self.flows} flows over {self.virtual_seconds:.1f} virtual "
            f"seconds ({self.flows_per_virtual_second or 0:.2f} flows/vsec)",
            f"evaded {self.evaded}/{self.flows}"
            + (
                f" ({100.0 * self.evaded / self.flows:.1f}%)"
                if self.flows
                else ""
            )
            + f", strategy hits {self.strategy_hits}, censor actions on "
            f"{self.censored} flows",
        ]
        if self.latency_p50 is not None:
            lines.append(
                f"latency p50/p90/p99: {self.latency_p50:.3f}/"
                f"{self.latency_p90:.3f}/{self.latency_p99:.3f} vsec; "
                f"SLO ({self.spec.slo_latency:g}s): "
                f"{(self.slo_fraction or 0) * 100:.1f}% of evading flows"
            )
        lines.append("")
        lines.append(
            f"{'cohort':<18} {'flows':>6} {'evaded':>7} {'rate':>7} "
            f"{'hits':>5} {'timeouts':>9}"
        )
        for name, row in self.per_pair.items():
            rate = f"{row['evasion_rate'] * 100:.1f}%" if row["flows"] else "-"
            lines.append(
                f"{name:<18} {row['flows']:>6} {row['evaded']:>7} {rate:>7} "
                f"{row['strategy_hits']:>5} {row['timeouts']:>9}"
            )
        return "\n".join(lines)

    def format_status(self, world) -> str:
        """One live ``--status`` line for a running world."""
        done = len(world.records)
        evaded = sum(1 for r in world.records if r["succeeded"])
        return (
            f"[t={world.scheduler.now:9.3f}s] admitted {world.admitted}"
            f"/{len(world.plans)}  active {world.active_flows:>4}  "
            f"done {done:>5}  evaded {evaded:>5}  recycled {world.recycled:>5}"
        )
