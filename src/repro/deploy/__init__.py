"""Deployment considerations (§8): where to run strategies, and for whom.

- :class:`~repro.deploy.middlebox.StrategyMiddlebox` — run a strategy at
  any point on the path between the censor and the server (reverse proxy,
  CDN, TapDance-style middlebox).
- :class:`~repro.deploy.selector.GeoStrategySelector` /
  :class:`~repro.deploy.selector.PerClientEngine` — choose a strategy per
  client from its SYN via coarse IP geolocation, applying evasion only to
  clients inside censored prefixes.
"""

from .middlebox import StrategyMiddlebox
from .selector import (
    GeoStrategySelector,
    PerClientEngine,
    install_per_client,
    parse_cidr,
)

__all__ = [
    "GeoStrategySelector",
    "PerClientEngine",
    "StrategyMiddlebox",
    "install_per_client",
    "parse_cidr",
]
