"""Declarative campaign descriptions: a grid of cells, expanded to shards.

A measurement *campaign* is what the paper actually ran for Tables 1–2:
thousands of trials per (country x protocol x strategy) cell, collected
over days. A :class:`CampaignSpec` captures such a run as plain JSON-able
data — a named list of :class:`~repro.runtime.CellSpec` grid cells plus
sharding parameters — and expands it **deterministically** into an
ordered list of :class:`~repro.runtime.TrialSpec` shards:

- cell order and per-cell trial order are exactly the listed order, so
  the expansion (and therefore every content hash) is a pure function of
  the spec;
- each cell expands through :meth:`~repro.runtime.CellSpec.trial_specs`,
  the same expansion every evaluation driver runs through
  ``TrialExecutor.run_cells`` — a campaign cell reproduces the
  corresponding direct measurement bit-for-bit;
- shards are fixed-size chunks of the expansion, the unit a run
  checkpoints, counts (``--max-shards``) and splits (``--shard I/N``).

What makes campaigns restartable is that every trial spec is its own
content address: the ledger's result cache keys each result by its spec,
so a resumed run recognizes finished work *by construction* (see
:mod:`repro.campaign.ledger`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from ..runtime import CampaignError, CellSpec, SpecError, TrialSpec
from ..runtime.cache import canonical_sha

__all__ = [
    "CampaignError",
    "CampaignSpec",
    "CampaignTrial",
    "CellSpec",
    "DEFAULT_SHARD_SIZE",
    "Shard",
]

#: Default trials per shard. Small enough that a kill loses little work,
#: large enough that per-shard checkpoint I/O stays negligible.
DEFAULT_SHARD_SIZE = 50


@dataclass(frozen=True)
class CampaignTrial:
    """One expanded trial: its global index, owning cell, and spec."""

    index: int
    cell_index: int
    spec: TrialSpec


@dataclass(frozen=True)
class Shard:
    """A fixed-size chunk of a campaign's trial expansion: one batch."""

    index: int
    trials: Tuple[CampaignTrial, ...]


@dataclass
class CampaignSpec:
    """A whole measurement campaign as declarative, hashable data.

    Attributes:
        name: Campaign name (reports, ledger metadata).
        cells: Ordered grid cells (see :class:`CellSpec`).
        shard_size: Trials per shard (the checkpoint granularity).
        description: Optional free-text description.
    """

    name: str
    cells: List[CellSpec] = field(default_factory=list)
    shard_size: int = DEFAULT_SHARD_SIZE
    description: str = ""

    def __post_init__(self) -> None:
        """Validate campaign-level invariants."""
        if not self.name or not isinstance(self.name, str):
            raise CampaignError("campaign needs a non-empty string name")
        if not isinstance(self.shard_size, int) or self.shard_size < 1:
            raise CampaignError(
                f"shard_size must be a positive int, got {self.shard_size!r}"
            )

    # ------------------------------------------------------------------
    # Construction / serialization

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Build a campaign from its JSON form."""
        if not isinstance(data, dict):
            raise CampaignError(f"campaign spec must be an object, got {data!r}")
        unknown = set(data) - {"name", "cells", "shard_size", "description"}
        if unknown:
            raise CampaignError(
                f"unknown campaign keys: {', '.join(sorted(unknown))}"
            )
        cells_data = data.get("cells", [])
        if not isinstance(cells_data, list) or not cells_data:
            raise CampaignError("campaign needs a non-empty 'cells' list")
        return cls(
            name=data.get("name", ""),
            cells=[CellSpec.from_dict(cell) for cell in cells_data],
            shard_size=data.get("shard_size", DEFAULT_SHARD_SIZE),
            description=data.get("description", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Parse a campaign from JSON text."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise CampaignError(f"invalid campaign JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a campaign spec from a JSON file."""
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise CampaignError(f"cannot read campaign spec {path}: {exc}") from None
        return cls.from_json(text)

    def as_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (the campaign hash is taken over this)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "shard_size": self.shard_size,
            "cells": [cell.as_dict() for cell in self.cells],
        }
        if self.description:
            out["description"] = self.description
        return out

    def canonical_key(self) -> str:
        """Deterministic string form: sorted-key compact JSON."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def campaign_hash(self) -> str:
        """Content address of this campaign (SHA-256 of the canonical key)."""
        return canonical_sha(self.as_dict())

    # ------------------------------------------------------------------
    # Expansion

    @property
    def total_trials(self) -> int:
        """Number of trials the campaign expands into."""
        return sum(cell.trials for cell in self.cells)

    def expand(self) -> List[CampaignTrial]:
        """Deterministic full expansion: cells in order, trials in order."""
        trials: List[CampaignTrial] = []
        for cell_index, cell in enumerate(self.cells):
            try:
                specs = cell.trial_specs()
            except SpecError as exc:
                raise CampaignError(f"cell cannot be expanded: {exc}") from None
            for spec in specs:
                trials.append(CampaignTrial(len(trials), cell_index, spec))
        return trials

    def shards(self) -> List[Shard]:
        """Chunk the expansion into fixed-size shards."""
        expansion = self.expand()
        return [
            Shard(index, tuple(expansion[start : start + self.shard_size]))
            for index, start in enumerate(range(0, len(expansion), self.shard_size))
        ]

    def select_shards(
        self, shards: Sequence[Shard], shard_index: int, shard_count: int
    ) -> List[Shard]:
        """The subset of ``shards`` machine ``shard_index`` of
        ``shard_count`` is responsible for (round-robin striping).

        ``shard_index`` is 1-based, matching the CLI's ``--shard I/N``.
        """
        if shard_count < 1 or not 1 <= shard_index <= shard_count:
            raise CampaignError(
                f"bad shard selector {shard_index}/{shard_count}: "
                "need 1 <= I <= N"
            )
        return [s for s in shards if s.index % shard_count == shard_index - 1]
