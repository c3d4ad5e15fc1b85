"""Where the result cache keeps its files, and what they hold, computed
independently of :mod:`repro.runtime.cache`.

Two layouts live side by side in a cache directory:

- per-entry files, which earlier versions wrote and which are still
  read: ``<root>/<sha[:2]>/<sha>.json`` with ``sha`` the spec hash;
- shape files, which the cache writes now: one per shape (a spec minus
  its seed) and store batch, at
  ``<root>/shapes/<shape_sha[:2]>/<shape_sha>/<content_sha>.json``.
"""

import hashlib
import json
from pathlib import Path


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _payload(result) -> dict:
    return {
        "outcome": result.outcome,
        "succeeded": result.succeeded,
        "censored": result.censored,
        "detail": result.detail,
    }


def entry_path(root, spec) -> Path:
    """Where an entry lives: ``<root>/<sha[:2]>/<sha>.json``."""
    digest = spec.spec_hash()
    return Path(root) / digest[:2] / f"{digest}.json"


def reference_entry(spec, result) -> bytes:
    """The entry bytes as earlier versions of the cache wrote them."""
    payload = _payload(result)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    entry = {
        "spec": spec.canonical_key(),
        "result": payload,
        "result_sha": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }
    return json.dumps(entry, sort_keys=True).encode("utf-8")


def write_entry(root, spec, body) -> Path:
    """Write a per-entry file by hand, as an earlier version would have."""
    path = entry_path(root, spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(body.encode("utf-8") if isinstance(body, str) else body)
    return path


def shape_key(spec) -> str:
    """The spec's canonical key without its seed."""
    body = json.loads(spec.canonical_key())
    del body["seed"]
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def shape_dir(root, spec) -> Path:
    """The directory of the spec's shape files."""
    digest = _sha(shape_key(spec).encode("ascii"))
    return Path(root) / "shapes" / digest[:2] / digest


def reference_shape_file(spec, seeds_and_results) -> bytes:
    """The bytes of the shape file one store batch writes: canonical
    JSON of the shape key and the ``[seed, payload]`` records by seed."""
    records = sorted([seed, _payload(result)] for seed, result in seeds_and_results)
    body = {"records": records, "shape": shape_key(spec)}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("ascii")


def shape_files(root, spec) -> list:
    """The spec's shape files (temp files included), sorted by name."""
    directory = shape_dir(root, spec)
    return sorted(directory.iterdir()) if directory.is_dir() else []


def write_shape_file(root, spec, body) -> Path:
    """Write ``body`` into the spec's shape directory under the name a
    writer would give it (the SHA-256 of its bytes)."""
    data = body.encode("utf-8") if isinstance(body, str) else body
    path = shape_dir(root, spec) / f"{_sha(data)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path
