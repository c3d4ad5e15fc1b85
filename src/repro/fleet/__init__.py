"""Fleet-mode serving simulation: one deployed server, many flows.

The paper's deployment endgame (§8) is a long-lived server that picks an
evasion strategy per client at SYN time. This package simulates that
server *at scale*: a single discrete-event world hosting one deployed
server (per-client strategy engine included) and a seeded arrival stream
of clients mixing countries, protocols, and OS personalities.

The design contract, enforced by ``tests/fleet``: a fleet world with
exactly one flow is bit-identical — verdicts and trace digests — to the
classic per-connection :class:`~repro.eval.runner.Trial` path, and a
same-seed run produces a byte-identical :class:`FleetStats` artifact
regardless of repeats or worker counts.

Entry points: :func:`run_fleet` (library), ``python -m repro fleet``
(CLI), docs in ``docs/fleet.md``.
"""

from .runner import FleetResult, run_fleet
from .spec import (
    DEFAULT_MIX,
    FleetMixEntry,
    FleetSpec,
    FlowPlan,
    flow_client_ip,
)
from .stats import FleetStats, percentile
from .world import FleetWorld, fleet_selector

__all__ = [
    "DEFAULT_MIX",
    "FleetMixEntry",
    "FleetResult",
    "FleetSpec",
    "FleetStats",
    "FleetWorld",
    "FlowPlan",
    "fleet_selector",
    "flow_client_ip",
    "percentile",
    "run_fleet",
]
