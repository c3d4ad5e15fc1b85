"""Campaign orchestration: sharded, checkpointed, resumable experiment runs.

The paper's headline numbers came from week-long measurement campaigns;
this package makes such runs durable in the reproduction. A declarative
:class:`CampaignSpec` names a grid of (country x protocol x strategy x
trials x impairment) cells, expands deterministically into shards of
:class:`~repro.runtime.TrialSpec`s, and :func:`run_campaign` executes
them through the existing :class:`~repro.runtime.TrialExecutor` with a
durable on-disk ledger whose result cache checkpoints after every
shard, so a killed run resumes exactly where it stopped, and one
campaign can split across machines with ``--shard I/N``.

See ``docs/campaigns.md`` for the spec format, the ledger layout, the
resume semantics, and the multi-machine recipe.
"""

from .ledger import CampaignLedger, LedgerError
from .presets import PRESETS, coevolve_campaign, evolution_campaign
from .runner import CampaignResult, CellResult, format_campaign, run_campaign
from .spec import (
    DEFAULT_SHARD_SIZE,
    CampaignError,
    CampaignSpec,
    CampaignTrial,
    CellSpec,
    Shard,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "PRESETS",
    "CampaignError",
    "CampaignLedger",
    "CampaignResult",
    "CampaignSpec",
    "CampaignTrial",
    "CellResult",
    "CellSpec",
    "LedgerError",
    "coevolve_campaign",
    "evolution_campaign",
    "Shard",
    "format_campaign",
    "run_campaign",
]
