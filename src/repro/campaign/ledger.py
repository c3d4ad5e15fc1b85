"""The durable on-disk campaign ledger: pinned spec, journal, result cache.

A campaign directory is the single source of truth for a run:

    DIR/
      campaign.json      the canonical spec + its hash, written once at
                         initialization; later runs must present the
                         identical spec (hash equality) to touch the dir
      ledger.jsonl       append-only journal of run events (started /
                         shard_done / shard_skipped / shard_failed /
                         campaign_done), each stamped with wall time —
                         an *audit log*, not the recovery mechanism
      cache/             a :class:`~repro.runtime.ResultCache`: every
                         trial result the campaign ran, in immutable,
                         self-verifying shape files named by their content
      results.jsonl      final per-trial ledger in global trial order,
                         fully deterministic (no wall-clock fields)
      report.json        per-cell success rates

Crash safety comes from the cache, not the journal: a shard is "done"
exactly when every one of its trials has a verified result in the cache,
so resume never trusts a journal line that a kill may have half-written —
it re-derives completion from content. A cache file that fails
verification is unlinked and counted in ``cache.stats.poisoned``, and
its trials are simply re-executed.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from ..runtime.cache import ResultCache
from .spec import CampaignSpec, Shard

__all__ = ["CampaignLedger", "LedgerError"]


class LedgerError(RuntimeError):
    """Raised when a campaign directory cannot be (re)used safely."""


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory rename (atomic)."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class CampaignLedger:
    """Filesystem layer of one campaign run (see module docstring)."""

    SPEC_FILE = "campaign.json"
    JOURNAL_FILE = "ledger.jsonl"
    CACHE_DIR = "cache"
    RESULTS_FILE = "results.jsonl"
    REPORT_FILE = "report.json"

    def __init__(self, directory: Union[str, Path]) -> None:
        self.root = Path(directory)
        self.cache = ResultCache(self.root / self.CACHE_DIR)

    # ------------------------------------------------------------------
    # Initialization / identity

    @property
    def spec_path(self) -> Path:
        """Path of the pinned canonical spec."""
        return self.root / self.SPEC_FILE

    @property
    def journal_path(self) -> Path:
        """Path of the append-only journal."""
        return self.root / self.JOURNAL_FILE

    @property
    def results_path(self) -> Path:
        """Path of the final deterministic per-trial ledger."""
        return self.root / self.RESULTS_FILE

    @property
    def report_path(self) -> Path:
        """Path of the final campaign report."""
        return self.root / self.REPORT_FILE

    def initialize(self, spec: CampaignSpec, resume: bool = False) -> None:
        """Create or re-open the campaign directory for ``spec``.

        A fresh directory is stamped with the canonical spec. An already
        initialized directory is only re-opened when ``resume`` is set
        *and* the stored spec hash matches — running a different
        campaign into an existing ledger is always an error, because its
        journal and final artifacts describe one campaign. (The cache
        alone could be shared: it is keyed by trial, not by campaign.)
        """
        self.root.mkdir(parents=True, exist_ok=True)
        digest = spec.campaign_hash()
        if self.spec_path.exists():
            try:
                stored = json.loads(self.spec_path.read_text())
            except ValueError as exc:
                raise LedgerError(
                    f"{self.spec_path} is not valid JSON: {exc}"
                ) from None
            stored_hash = stored.get("campaign_hash")
            if stored_hash != digest:
                raise LedgerError(
                    f"{self.root} already holds campaign {stored_hash}, "
                    f"refusing to run campaign {digest} into it"
                )
            if not resume:
                raise LedgerError(
                    f"{self.root} is already initialized; pass --resume to "
                    "continue it"
                )
            return
        if not resume and self.journal_path.exists():
            raise LedgerError(
                f"{self.root} contains a journal but no campaign.json; "
                "refusing to reuse it"
            )
        _atomic_write(
            self.spec_path,
            json.dumps(
                {"campaign_hash": digest, "spec": spec.as_dict()},
                sort_keys=True,
                indent=2,
            )
            + "\n",
        )

    @classmethod
    def load_spec(cls, directory: Union[str, Path]) -> CampaignSpec:
        """Recover the pinned :class:`CampaignSpec` from a campaign dir."""
        path = Path(directory) / cls.SPEC_FILE
        try:
            stored = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise LedgerError(f"cannot load campaign spec from {path}: {exc}")
        return CampaignSpec.from_dict(stored.get("spec", {}))

    # ------------------------------------------------------------------
    # Journal (audit log)

    def journal(self, event: str, **fields: Any) -> None:
        """Append one journal record (stamped with wall time)."""
        record: Dict[str, Any] = {"event": event}
        record.update(fields)
        record["wall"] = time.time()
        with open(self.journal_path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def journal_records(self) -> List[Dict[str, Any]]:
        """Parse the journal, skipping a torn (half-written) final line."""
        if not self.journal_path.exists():
            return []
        records: List[Dict[str, Any]] = []
        with open(self.journal_path) as handle:
            for line in handle:
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue  # torn write from a kill mid-append
        return records

    # ------------------------------------------------------------------
    # Trial results (the actual checkpoints)

    def completed_shards(self, shards: Iterable[Shard]) -> Dict[int, List]:
        """Map shard index -> its trials' cached results, for every done shard.

        A shard is done when every one of its trials hits in the cache.
        The whole expansion is one :meth:`ResultCache.lookup_many`.
        """
        shards = list(shards)
        results = iter(
            self.cache.lookup_many([t.spec for shard in shards for t in shard.trials])
        )
        done: Dict[int, List] = {}
        for shard in shards:
            chunk = [next(results) for _ in shard.trials]
            if all(result is not None for result in chunk):
                done[shard.index] = chunk
        return done

    # ------------------------------------------------------------------
    # Final artifacts

    def write_results(self, lines: Iterable[Dict[str, Any]]) -> int:
        """Write ``results.jsonl`` (deterministic; returns record count)."""
        count = 0
        tmp = self.results_path.with_suffix(".tmp")
        with open(tmp, "w") as handle:
            for record in lines:
                handle.write(
                    json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
                )
                count += 1
        os.replace(tmp, self.results_path)
        return count

    def write_report(self, report: Dict[str, Any]) -> Path:
        """Write ``report.json`` (sorted keys, deterministic bytes)."""
        _atomic_write(
            self.report_path, json.dumps(report, sort_keys=True, indent=2) + "\n"
        )
        return self.report_path
