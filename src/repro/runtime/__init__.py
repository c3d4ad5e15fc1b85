"""Batch trial-execution runtime: specs, executor, cache, seeds.

This is the scaling substrate every evaluation module funnels through:

- :class:`~repro.runtime.spec.TrialSpec` — one trial as picklable data
  with a canonical content hash;
- :class:`~repro.runtime.cell.CellSpec` — one grid cell, where its
  trials' seeds fan out;
- :class:`~repro.runtime.executor.TrialExecutor` — fans spec batches
  (or grids of cells) out over a process pool (or runs them in-process
  for ``workers=1``) and reports :class:`~repro.runtime.executor.RunStats`;
- :class:`~repro.runtime.cache.ResultCache` — content-addressed result
  store (in-memory LRU + optional ``.repro_cache/`` disk layer);
- :func:`~repro.runtime.seeds.trial_seed` — the single per-trial seed
  derivation shared by the serial and parallel paths.
"""

from .cache import DEFAULT_CACHE_DIR, CacheStats, ResultCache, resolve_cache
from .cell import CampaignError, CellSpec
from .executor import RunStats, TrialExecutor
from .seeds import fleet_stream_seed, net_stream_seed, splitmix64, trial_seed
from .spec import SpecError, TrialSpec, strategy_text

__all__ = [
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "CampaignError",
    "CellSpec",
    "ResultCache",
    "RunStats",
    "SpecError",
    "TrialExecutor",
    "TrialSpec",
    "fleet_stream_seed",
    "net_stream_seed",
    "resolve_cache",
    "splitmix64",
    "strategy_text",
    "trial_seed",
]
