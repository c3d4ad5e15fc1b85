"""The campaign runner: checkpointed, resumable shard execution.

:func:`run_campaign` drives one :class:`~repro.campaign.spec.CampaignSpec`
through the existing :class:`~repro.runtime.TrialExecutor`, one shard at
a time, checkpointing into a :class:`~repro.campaign.ledger.CampaignLedger`
after **every** shard. The loop is idempotent by construction:

- a shard whose content-addressed result file exists and verifies is
  skipped, never re-run — so killing the process at any point and
  re-running with ``resume=True`` continues exactly where it stopped;
- shard execution is deterministic (specs carry their own seeds), so a
  resumed run's shard files are byte-identical to an uninterrupted
  run's, and the final ``results.jsonl``/``report.json`` are too;
- a failing shard is retried up to ``retries`` extra times before the
  campaign aborts — with all completed shards safely on disk.

Telemetry: every shard runs under its own metric registry and its
**deterministic** snapshot is stored in the shard file; at finalize the
per-shard snapshots are folded with the snapshot-merge algebra
(:func:`repro.obs.merge_snapshots`) into one campaign-level view that is
independent of sharding, worker count, and interruption history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..obs import metrics as obs_metrics
from ..obs.export import deterministic_view
from ..obs.metrics import merge_snapshots
from ..runtime import TrialExecutor
from ..runtime.cache import result_payload
from .ledger import CampaignLedger
from .spec import CampaignError, CampaignSpec, Shard

__all__ = ["CampaignResult", "CellResult", "run_campaign", "format_campaign"]


@dataclass
class CellResult:
    """Aggregated outcome of one campaign cell."""

    index: int
    country: Optional[str]
    protocol: str
    server_strategy: Optional[str]
    label: Optional[str]
    trials: int = 0
    successes: int = 0
    censored: int = 0

    @property
    def rate(self) -> float:
        """Fraction of the cell's trials that evaded censorship."""
        return self.successes / self.trials if self.trials else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form (one row of ``report.json``)."""
        out: Dict[str, Any] = {
            "index": self.index,
            "country": self.country,
            "protocol": self.protocol,
            "server_strategy": self.server_strategy,
            "trials": self.trials,
            "successes": self.successes,
            "censored": self.censored,
            "rate": self.rate,
        }
        if self.label is not None:
            out["label"] = self.label
        return out


@dataclass
class CampaignResult:
    """What one :func:`run_campaign` invocation did and found.

    Attributes:
        spec: The campaign that ran.
        out_dir: The ledger directory.
        shards_total: Shards in the whole campaign.
        shards_run: Shards executed by *this* invocation.
        shards_skipped: Shards this invocation found already done.
        shards_pending: Shards still missing after this invocation
            (non-zero only for ``--shard I/N`` partial runs).
        finalized: Whether ``results.jsonl``/``report.json`` were written.
        cells: Per-cell aggregates (populated only when finalized).
        metrics: Merged deterministic metric snapshot (when finalized).
    """

    spec: CampaignSpec
    out_dir: Path
    shards_total: int = 0
    shards_run: int = 0
    shards_skipped: int = 0
    shards_pending: int = 0
    finalized: bool = False
    cells: List[CellResult] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)


def _run_shard(
    executor: TrialExecutor,
    shard: Shard,
    retries: int,
    ledger: CampaignLedger,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Execute one shard (with the retry budget); returns (results, metrics).

    Each attempt runs under a fresh metric registry so a failed attempt
    cannot leak partial counts into the stored snapshot.
    """
    specs = [trial.spec for trial in shard.trials]
    last_error: Optional[BaseException] = None
    for attempt in range(retries + 1):
        executor.metrics = obs_metrics.MetricsRegistry()
        try:
            results = executor.run_batch(specs)
        except Exception as exc:  # BrokenProcessPool, trial bug, ...
            last_error = exc
            ledger.journal(
                "shard_attempt_failed",
                shard=shard.index,
                hash=shard.shard_hash,
                attempt=attempt,
                error=f"{type(exc).__name__}: {exc}",
            )
            continue
        payloads = [result_payload(result) for result in results]
        snapshot = deterministic_view(executor.metrics.snapshot())
        return payloads, snapshot
    ledger.journal(
        "shard_failed",
        shard=shard.index,
        hash=shard.shard_hash,
        attempts=retries + 1,
        error=f"{type(last_error).__name__}: {last_error}",
    )
    raise CampaignError(
        f"shard {shard.index} failed after {retries + 1} attempt(s): {last_error}"
    )


def _finalize(
    spec: CampaignSpec,
    shards: List[Shard],
    entries: Dict[int, Dict[str, Any]],
    ledger: CampaignLedger,
) -> Tuple[List[CellResult], Dict[str, Any]]:
    """Fold all shard entries into ``results.jsonl`` + ``report.json``.

    Everything written here is a pure function of the shard files, which
    are themselves pure functions of the spec — so finalizing after any
    interruption history produces identical bytes.
    """
    cells = [
        CellResult(
            index=i,
            country=cell.country,
            protocol=cell.protocol,
            server_strategy=cell.server_strategy,
            label=cell.label,
        )
        for i, cell in enumerate(spec.cells)
    ]
    lines: List[Dict[str, Any]] = []
    snapshots: List[Dict[str, Any]] = []
    for shard in shards:
        entry = entries[shard.index]
        snapshots.append(entry.get("metrics", {}))
        for trial, payload in zip(shard.trials, entry["results"]):
            cell = cells[trial.cell_index]
            cell.trials += 1
            cell.successes += bool(payload["succeeded"])
            cell.censored += bool(payload["censored"])
            lines.append(
                {
                    "seq": trial.index,
                    "cell": trial.cell_index,
                    "shard": shard.index,
                    "spec": trial.spec.spec_hash(),
                    "seed": trial.spec.seed,
                    "country": trial.spec.country,
                    "protocol": trial.spec.protocol,
                    "outcome": payload["outcome"],
                    "succeeded": bool(payload["succeeded"]),
                    "censored": bool(payload["censored"]),
                }
            )
    merged = merge_snapshots(*snapshots)
    ledger.write_results(lines)
    ledger.write_report(
        {
            "campaign": spec.campaign_hash(),
            "name": spec.name,
            "shards": len(shards),
            "shard_size": spec.shard_size,
            "trials": len(lines),
            "cells": [cell.as_dict() for cell in cells],
            "metrics": merged,
        }
    )
    return cells, merged


def run_campaign(
    spec: CampaignSpec,
    out_dir: Union[str, Path],
    resume: bool = False,
    shard: Optional[Tuple[int, int]] = None,
    workers: int = 1,
    cache=None,
    retries: int = 2,
    max_shards: Optional[int] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Run (or continue) ``spec`` into the campaign directory ``out_dir``.

    Args:
        spec: The campaign to run.
        out_dir: Ledger directory (created if needed).
        resume: Continue an existing ledger; without it an initialized
            directory is refused. Idempotent: completed shards are
            recognized by content hash and skipped.
        shard: Optional ``(I, N)`` selector — this invocation runs only
            shard indices congruent to ``I-1`` mod ``N``, so a campaign
            splits across ``N`` machines without coordination.
        workers: Worker processes for the underlying executor.
        cache: Optional trial-result cache (as in
            :class:`~repro.runtime.TrialExecutor`). The ledger itself is
            the campaign's checkpoint; a cache only dedups *across*
            campaigns. Note that a warm cache changes the
            executed-vs-cached split in stored shard metrics.
        retries: Extra attempts per failing shard before aborting.
        max_shards: Process at most this many shards, then checkpoint
            and return (``finalized=False``); rerun with ``resume`` to
            continue. This is the programmatic "kill at a shard
            boundary".
        echo: Optional progress sink (e.g. ``print``).

    Returns a :class:`CampaignResult`. The final ``results.jsonl`` and
    ``report.json`` are written only once every shard of the whole
    campaign verifies on disk — for multi-machine runs, copy the
    ``shards/`` files into one directory and re-run with ``resume``.
    """
    say = echo if echo is not None else (lambda _line: None)
    ledger = CampaignLedger(out_dir)
    ledger.initialize(spec, resume=resume)
    shards = spec.shards()
    mine = (
        spec.select_shards(shards, shard[0], shard[1])
        if shard is not None
        else list(shards)
    )
    result = CampaignResult(spec=spec, out_dir=Path(out_dir), shards_total=len(shards))
    ledger.journal(
        "campaign_started",
        campaign=spec.campaign_hash(),
        name=spec.name,
        shards=len(shards),
        selected=len(mine),
        trials=spec.total_trials,
        resume=bool(resume),
        shard=None if shard is None else f"{shard[0]}/{shard[1]}",
        workers=workers,
    )

    processed = 0
    with TrialExecutor(workers=workers, cache=cache, collect_metrics=True) as executor:
        for item in mine:
            if max_shards is not None and processed >= max_shards:
                ledger.journal("campaign_paused", after_shards=processed)
                say(f"paused after {processed} shard(s)")
                break
            if ledger.load_shard(item) is not None:
                result.shards_skipped += 1
                ledger.journal("shard_skipped", shard=item.index, hash=item.shard_hash)
                processed += 1
                continue
            payloads, snapshot = _run_shard(executor, item, retries, ledger)
            ledger.store_shard(item, payloads, snapshot)
            result.shards_run += 1
            processed += 1
            successes = sum(bool(p["succeeded"]) for p in payloads)
            ledger.journal(
                "shard_done",
                shard=item.index,
                hash=item.shard_hash,
                trials=len(payloads),
                successes=successes,
            )
            say(
                f"shard {item.index + 1}/{len(shards)}: "
                f"{successes}/{len(payloads)} trials succeeded"
            )

    entries = ledger.completed_shards(shards)
    result.shards_pending = len(shards) - len(entries)
    if result.shards_pending == 0:
        result.cells, result.metrics = _finalize(spec, shards, entries, ledger)
        result.finalized = True
        ledger.journal(
            "campaign_done",
            campaign=spec.campaign_hash(),
            trials=spec.total_trials,
        )
        say(f"campaign complete: {spec.total_trials} trials, {len(shards)} shards")
    else:
        ledger.journal("campaign_pending", missing_shards=result.shards_pending)
        say(
            f"{result.shards_pending} shard(s) still pending "
            "(run the remaining selectors, then finalize with --resume)"
        )
    return result


def format_campaign(result: CampaignResult) -> str:
    """Human-readable summary of a campaign run (the CLI's output)."""
    lines = [
        f"campaign {result.spec.name}: "
        f"{result.shards_run} shard(s) run, {result.shards_skipped} skipped, "
        f"{result.shards_pending} pending (of {result.shards_total})"
    ]
    if result.finalized:
        lines.append(f"ledger: {result.out_dir / CampaignLedger.RESULTS_FILE}")
        lines.append(f"report: {result.out_dir / CampaignLedger.REPORT_FILE}")
        for cell in result.cells:
            strategy = cell.label or cell.server_strategy or "no evasion"
            lines.append(
                f"  {str(cell.country):<12} {cell.protocol:<6} {strategy:<40} "
                f"{cell.successes:>4}/{cell.trials:<4} ({cell.rate * 100:.0f}%)"
            )
    return "\n".join(lines)
