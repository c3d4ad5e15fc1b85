"""Content-addressed trial-result cache.

Results are keyed on ``TrialSpec.spec_hash()`` — a SHA-256 of the spec's
canonical JSON — with two layers:

- an in-memory LRU (per-process, always on), and
- an optional on-disk JSON store (one file per result under a cache
  directory, default ``.repro_cache/``) that persists across runs so a
  repeated matrix/sweep/GA evaluation re-executes nothing.

Disk entries embed the full canonical key next to the result and the
result's own SHA-256. A lookup or store encodes the spec's key once and
hashes it once; that hash is the entry's address. A lookup only counts
as a hit when the stored key equals the requesting spec's key. Equal
keys have equal hashes, so that one comparison also proves the stored
key addresses the file it sits in. An entry that fails a check — a
different key, a result edited after it was written, or a file that
parses to JSON but not to an object — counts as ``poisoned`` and is
ignored rather than silently served; the executor then re-runs the
trial and overwrites it.

Entries are read and written as raw bytes through one file descriptor.
A write goes to a temp file named for the writing process
(``<sha>.json.<pid>.tmp``) and is then renamed over the entry, so
concurrent writers of one digest never publish each other's half-written
file. The fan-out directory is created only when that first open finds
it missing.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..obs.metrics import Counter
from .spec import TrialSpec, canonical_json, key_address

__all__ = [
    "CacheStats",
    "ResultCache",
    "DEFAULT_CACHE_DIR",
    "canonical_sha",
    "resolve_cache",
]

#: Default on-disk store location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Encodes a disk entry: sorted keys, default separators. Byte-identical
#: to ``json.dumps(entry, sort_keys=True)``, the format entries have
#: always had on disk.
_encode_entry = json.JSONEncoder(sort_keys=True).encode

_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
_READ_CHUNK = 1 << 16

#: Cache traffic. Non-deterministic: the disk store persists across
#: runs, so hit/miss splits depend on what earlier runs left behind.
_CACHE_LOOKUPS = Counter(
    "repro_cache_lookups_total",
    "Result-cache lookups, by outcome",
    ("result",),  # hit | miss | poisoned
    deterministic=False,
)
_CACHE_STORES = Counter(
    "repro_cache_stores_total",
    "Results written to the cache",
    deterministic=False,
)


@dataclass
class CacheStats:
    """Counters for one cache instance (cumulative)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    poisoned: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-able form (telemetry ``run.json``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "poisoned": self.poisoned,
        }


def canonical_sha(payload: Any) -> str:
    """SHA-256 hex digest of a value's canonical (sorted-key) JSON form.

    This is the one content-address function shared by the result cache
    and the campaign ledger: any JSON-able value has exactly one digest,
    independent of dict insertion order.
    """
    return key_address(canonical_json(payload))


def _read_bytes(path: str) -> bytes:
    """A whole file's bytes through one raw descriptor (no text layer)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while True:
            chunk = os.read(fd, _READ_CHUNK)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    finally:
        os.close(fd)


def _write_bytes(path: str, data: bytes) -> None:
    """Create (or truncate) ``path`` and write ``data`` through one raw
    descriptor, creating its directory only when the open finds it missing."""
    try:
        fd = os.open(path, _WRITE_FLAGS, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def result_payload(result) -> Dict[str, Any]:
    """The JSON-able portion of a TrialResult (the trace never travels)."""
    return {
        "outcome": result.outcome,
        "succeeded": bool(result.succeeded),
        "censored": bool(result.censored),
        "detail": result.detail,
    }


def payload_result(payload: Dict[str, Any]):
    """Rebuild a TrialResult (trace-free) from a stored payload."""
    from ..eval.runner import TrialResult

    return TrialResult(
        outcome=payload["outcome"],
        succeeded=bool(payload["succeeded"]),
        censored=bool(payload["censored"]),
        detail=payload.get("detail", ""),
        trace=None,
    )


class ResultCache:
    """Two-layer (memory LRU + optional disk) trial-result cache."""

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        max_memory_items: int = 65536,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.max_memory_items = max_memory_items
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    # ------------------------------------------------------------------

    def _disk_path(self, digest: str) -> str:
        # Two-level fan-out keeps directories small at scale.
        return f"{self.directory}/{digest[:2]}/{digest}.json"

    def _remember(self, digest: str, payload: Dict[str, Any]) -> None:
        self._memory[digest] = payload
        self._memory.move_to_end(digest)
        while len(self._memory) > self.max_memory_items:
            self._memory.popitem(last=False)

    def _load_disk(self, digest: str, key: str) -> Optional[Dict[str, Any]]:
        if self.directory is None:
            return None
        try:
            entry = json.loads(_read_bytes(self._disk_path(digest)).decode("utf-8"))
        except (OSError, ValueError):
            return None
        # ``digest`` is the hash of ``key``, so a stored key equal to it
        # also hashes to the file's address: renamed, collided and
        # key-edited entries all fail this one comparison.
        if not isinstance(entry, dict) or entry.get("spec") != key:
            self._poisoned()
            return None
        payload = entry.get("result")
        if not isinstance(payload, dict) or "outcome" not in payload:
            self._poisoned()
            return None
        if entry.get("result_sha") != canonical_sha(payload):
            # The result bytes were edited after the entry was written.
            self._poisoned()
            return None
        return payload

    def _poisoned(self) -> None:
        self.stats.poisoned += 1
        _CACHE_LOOKUPS.inc(result="poisoned")

    # ------------------------------------------------------------------

    def lookup(self, spec: TrialSpec):
        """Return the cached TrialResult for ``spec``, or ``None``."""
        key = spec.canonical_key()
        digest = key_address(key)
        payload = self._memory.get(digest)
        if payload is not None:
            self._memory.move_to_end(digest)
            self.stats.hits += 1
            _CACHE_LOOKUPS.inc(result="hit")
            return payload_result(payload)
        payload = self._load_disk(digest, key)
        if payload is not None:
            self._remember(digest, payload)
            self.stats.hits += 1
            _CACHE_LOOKUPS.inc(result="hit")
            return payload_result(payload)
        self.stats.misses += 1
        _CACHE_LOOKUPS.inc(result="miss")
        return None

    def store(self, spec: TrialSpec, result) -> None:
        """Record ``result`` for ``spec`` in memory (and on disk if set)."""
        key = spec.canonical_key()
        digest = key_address(key)
        payload = result_payload(result)
        self._remember(digest, payload)
        self.stats.stores += 1
        _CACHE_STORES.inc()
        if self.directory is None:
            return
        path = self._disk_path(digest)
        entry = {
            "spec": key,
            "result": payload,
            "result_sha": canonical_sha(payload),
        }
        # A temp file per writer process: concurrent writers of one
        # digest never share one, so none publishes another's half-written
        # bytes and none finds its own renamed away.
        tmp = f"{path}.{os.getpid()}.tmp"
        _write_bytes(tmp, _encode_entry(entry).encode("ascii"))
        os.replace(tmp, path)  # atomic publish: concurrent readers never
        # observe a half-written entry


def resolve_cache(cache) -> Optional[ResultCache]:
    """Normalize a user-facing ``cache=`` argument.

    ``None``/``False`` → no cache; ``True`` → disk store under the
    default directory; a string/path → disk store there; a
    :class:`ResultCache` instance → itself.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache(DEFAULT_CACHE_DIR)
    if isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, (str, Path)):
        return ResultCache(cache)
    raise TypeError(f"cache must be None/bool/path/ResultCache, got {cache!r}")
