"""Content-addressed trial-result cache.

Results are keyed on a spec's *shape* — the spec minus its seed (see
:meth:`TrialSpec.shape`) — and its seed, with two layers:

- an in-memory LRU (per-process, always on), and
- an optional on-disk store under a cache directory (default
  ``.repro_cache/``) that persists across runs so a repeated
  matrix/sweep/GA evaluation re-executes nothing.

The executor looks a whole batch up with :meth:`ResultCache.lookup_many`
and stores the results it ran with one :meth:`ResultCache.store_many`
call. Both group their specs by shape, and encode and hash each shape's
key (the spec's canonical key without ``seed``) once per group, not once
per trial. ``lookup`` and ``store`` are one-spec wrappers.

On disk, a shape keeps its results in immutable, self-verifying files,
one per store batch::

    <dir>/shapes/<shape_sha[:2]>/<shape_sha>/<content_sha>.json

``shape_sha`` is the SHA-256 of the shape key. A file is the canonical
JSON of ``{"records": [[seed, payload], ...], "shape": <shape key>}``
with its records sorted by seed, and its name is the SHA-256 of its
bytes. A read checks that the name matches the bytes (an edited key, an
edited result and a truncated file all fail), that the stored shape key
equals the requested one (a valid file copied under another shape
fails), and that every record is ``[int, object with "outcome"]``. A
file that fails a check counts as ``poisoned`` once and is unlinked, so
the executor re-runs its trials and their new file replaces it. A
writer writes ``<name>.<pid>.tmp`` and renames it into place: equal
results give equal bytes under an equal name, so concurrent writers
publish identical files and no reader sees a half-written one. Readers
skip the temp files.

Earlier versions wrote one file per trial, ``<dir>/<sha[:2]>/<sha>.json``
with ``sha`` the spec hash. Each instance checks once, with one listing
of the directory, whether such fan-out directories exist; only then does
a spec missing from its shape's files fall back to its per-entry file,
which is read and verified as it always was. Nothing writes that layout
any more.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

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

_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
_READ_CHUNK = 1 << 16
_HEX = frozenset("0123456789abcdef")

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

#: ``repro.eval.runner.TrialResult``, imported on first use: the eval
#: package imports the runtime, so the runtime cannot import it up front.
_TRIAL_RESULT = None


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

    The cache checks its per-entry files' results with it, and a
    campaign's hash is taken with it: any JSON-able value has exactly
    one digest, independent of dict insertion order.
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
    global _TRIAL_RESULT
    if _TRIAL_RESULT is None:
        from ..eval.runner import TrialResult

        _TRIAL_RESULT = TrialResult
    return _TRIAL_RESULT(
        outcome=payload["outcome"],
        succeeded=bool(payload["succeeded"]),
        censored=bool(payload["censored"]),
        detail=payload.get("detail", ""),
        trace=None,
    )


def _shape_key(spec: TrialSpec) -> str:
    """The spec's canonical key without ``seed`` (same encoder, and
    ``impairment`` still left out when it is ``None``)."""
    body = spec.as_dict()
    del body["seed"]
    return canonical_json(body)


def _shape_records(name: str, data: bytes, shape_key: str) -> Optional[List]:
    """The ``[seed, payload]`` records of one shape file, or ``None``
    when the file fails a check."""
    if name != hashlib.sha256(data).hexdigest() + ".json":
        return None
    try:
        body = json.loads(data)
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        return None
    if not isinstance(body, dict) or body.get("shape") != shape_key:
        return None
    records = body.get("records")
    if not isinstance(records, list):
        return None
    for record in records:
        if not (
            isinstance(record, list)
            and len(record) == 2
            and type(record[0]) is int
            and isinstance(record[1], dict)
            and "outcome" in record[1]
        ):
            return None
    return records


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
        self._memory: "OrderedDict[Tuple[tuple, int], Dict[str, Any]]" = OrderedDict()
        self._legacy: Optional[bool] = None  # per-entry files present?

    # ------------------------------------------------------------------

    def _shape_dir(self, shape_key: str) -> str:
        digest = key_address(shape_key)
        return f"{self.directory}/shapes/{digest[:2]}/{digest}"

    def _disk_path(self, digest: str) -> str:
        # The per-entry layout of earlier versions, read as a fallback.
        return f"{self.directory}/{digest[:2]}/{digest}.json"

    def _remember(self, key: Tuple[tuple, int], payload: Dict[str, Any]) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_items:
            self._memory.popitem(last=False)

    def _has_legacy(self) -> bool:
        """Whether the directory holds per-entry fan-out directories;
        decided on first need, with one listing."""
        if self._legacy is None:
            try:
                names = os.listdir(self.directory)
            except OSError:
                names = []
            self._legacy = any(len(name) == 2 and _HEX.issuperset(name) for name in names)
        return self._legacy

    def _load_shape(self, shape_key: str) -> Dict[int, Dict[str, Any]]:
        """Every verified record of one shape's files, by seed."""
        shape_dir = self._shape_dir(shape_key)
        found: Dict[int, Dict[str, Any]] = {}
        try:
            names = sorted(os.listdir(shape_dir))
        except OSError:
            return found
        for name in names:
            if not name.endswith(".json"):
                continue  # a writer's temp file
            path = f"{shape_dir}/{name}"
            try:
                data = _read_bytes(path)
            except OSError:
                continue  # removed since the listing
            records = _shape_records(name, data, shape_key)
            if records is None:
                self._poisoned()
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            found.update(records)
        return found

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

    def lookup_many(self, specs: Sequence[TrialSpec]) -> List:
        """The cached TrialResult of each spec, in order (``None`` on a miss).

        Each spec is one memory probe. The specs that miss memory are
        grouped by shape, and each shape's files are read and verified
        once for the whole group.
        """
        memory = self._memory
        payloads: List[Optional[Dict[str, Any]]] = [None] * len(specs)
        groups: Dict[tuple, List[int]] = {}
        for position, spec in enumerate(specs):
            key = (spec.shape(), spec.seed)
            payload = memory.get(key)
            if payload is None:
                groups.setdefault(key[0], []).append(position)
            else:
                memory.move_to_end(key)
                payloads[position] = payload
        if groups and self.directory is not None:
            for shape, positions in groups.items():
                records = self._load_shape(_shape_key(specs[positions[0]]))
                for position in positions:
                    spec = specs[position]
                    payload = records.get(spec.seed)
                    if payload is None and self._has_legacy():
                        payload = self._load_disk(spec.spec_hash(), spec.canonical_key())
                    if payload is not None:
                        self._remember((shape, spec.seed), payload)
                        payloads[position] = payload
        results = [None if p is None else payload_result(p) for p in payloads]
        misses = payloads.count(None)
        self.stats.hits += len(specs) - misses
        self.stats.misses += misses
        if misses < len(specs):
            _CACHE_LOOKUPS.inc(len(specs) - misses, result="hit")
        if misses:
            _CACHE_LOOKUPS.inc(misses, result="miss")
        return results

    def store_many(self, specs: Sequence[TrialSpec], results: Sequence) -> None:
        """Record each result for its spec, in memory and (if the cache
        has a directory) as one new file per shape."""
        groups: Dict[tuple, Tuple[TrialSpec, Dict[int, Dict[str, Any]]]] = {}
        for spec, result in zip(specs, results):
            shape = spec.shape()
            payload = result_payload(result)
            self._remember((shape, spec.seed), payload)
            groups.setdefault(shape, (spec, {}))[1][spec.seed] = payload
        self.stats.stores += len(specs)
        if specs:
            _CACHE_STORES.inc(len(specs))
        if self.directory is None:
            return
        for first, records in groups.values():
            shape_key = _shape_key(first)
            # Canonical JSON, records sorted by seed: equal results give
            # equal bytes, and so an equal file name.
            body = {"records": sorted(records.items()), "shape": shape_key}
            data = canonical_json(body).encode("ascii")
            path = f"{self._shape_dir(shape_key)}/{hashlib.sha256(data).hexdigest()}.json"
            # A temp file per writer process: concurrent writers of one
            # file never share one, and the rename publishes whole files.
            tmp = f"{path}.{os.getpid()}.tmp"
            _write_bytes(tmp, data)
            os.replace(tmp, path)

    def lookup(self, spec: TrialSpec):
        """Return the cached TrialResult for ``spec``, or ``None``."""
        return self.lookup_many([spec])[0]

    def store(self, spec: TrialSpec, result) -> None:
        """Record ``result`` for ``spec`` (a one-result :meth:`store_many`)."""
        self.store_many([spec], [result])


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
