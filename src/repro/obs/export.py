"""Telemetry exposition: JSON snapshots, Prometheus text, artifact tree.

``--telemetry DIR`` turns one run into a self-describing artifact tree:

    DIR/
      run.json                     run-id, command context, RunStats,
                                   cache stats
      metrics.json                 full metric snapshot (all families)
      metrics.deterministic.json   only families flagged deterministic —
                                   byte-identical across identical runs;
                                   the CI determinism job diffs this file
      metrics.prom                 Prometheus text exposition (0.0.4),
                                   scrape-ready / pushgateway-ready
      runlog.jsonl                 per-trial structured log + flight
                                   dumps (see repro.obs.runlog)

``--metrics-json FILE`` writes just the snapshot. Both serializations
are sorted-key JSON, so identical runs produce identical bytes (modulo
the wall-clock fields, which live only in non-deterministic families,
``run.json`` timings, and runlog ``wall`` fields).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Mapping, Optional, Union

from .metrics import parse_label_key
from .runlog import RunLog

__all__ = [
    "deterministic_view",
    "snapshot_to_prometheus",
    "write_metrics_json",
    "write_telemetry",
]


def deterministic_view(snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """Only the families whose values replay identically across runs.

    Virtual-time counters, event counts, and verdict tallies survive;
    wall-clock timings and pid-labeled worker metrics are dropped. Two
    runs of the same specs and seeds must produce equal views — CI
    enforces exactly that with a byte diff.
    """
    return {
        name: entry
        for name, entry in snapshot.items()
        if entry.get("deterministic", True)
    }


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(pairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_prom_escape(value)}"' for name, value in pairs)
    return "{" + inner + "}"


def snapshot_to_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Counters keep their ``_total`` names, gauges expose their raw value,
    histograms expand to cumulative ``_bucket{le=}`` series plus
    ``_sum``/``_count``. Families and samples are emitted in sorted
    order so the exposition is deterministic too.
    """
    lines = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["kind"]
        if entry.get("help"):
            lines.append(f"# HELP {name} {_prom_escape(entry['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        samples = entry["samples"]
        for key in sorted(samples):
            pairs = parse_label_key(key)
            value = samples[key]
            if kind in ("counter", "gauge"):
                lines.append(f"{name}{_prom_labels(pairs)} {_format_number(value)}")
                continue
            # Histogram: cumulative buckets, then +Inf, sum, count.
            bounds = entry.get("buckets", [])
            cumulative = 0
            for bound, count in zip(bounds, value["buckets"]):
                cumulative += count
                le_pairs = pairs + [("le", _format_number(bound))]
                lines.append(
                    f"{name}_bucket{_prom_labels(le_pairs)} {cumulative}"
                )
            inf_pairs = pairs + [("le", "+Inf")]
            lines.append(f"{name}_bucket{_prom_labels(inf_pairs)} {value['count']}")
            lines.append(f"{name}_sum{_prom_labels(pairs)} {_format_number(value['sum'])}")
            lines.append(f"{name}_count{_prom_labels(pairs)} {value['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _format_number(value) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_metrics_json(path: Union[str, pathlib.Path], snapshot: Mapping[str, Any]) -> None:
    """Write one snapshot as sorted-key JSON."""
    pathlib.Path(path).write_text(
        json.dumps(snapshot, sort_keys=True, indent=2) + "\n"
    )


def write_telemetry(
    directory: Union[str, pathlib.Path],
    snapshot: Mapping[str, Any],
    runlog: Optional[RunLog] = None,
    run_meta: Optional[Mapping[str, Any]] = None,
) -> Dict[str, str]:
    """Write the full artifact tree; returns {artifact name: path}.

    ``run_meta`` carries run-level context (command, RunStats dict,
    cache stats); the run-id is taken from the runlog when present.
    """
    root = pathlib.Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written: Dict[str, str] = {}

    meta: Dict[str, Any] = dict(run_meta or {})
    if runlog is not None:
        meta.setdefault("run_id", runlog.run_id)
        meta.setdefault("trials_logged", len(runlog.digests))
        meta.setdefault("anomalies", runlog.anomalies)

    path = root / "run.json"
    path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    written["run.json"] = str(path)

    path = root / "metrics.json"
    write_metrics_json(path, snapshot)
    written["metrics.json"] = str(path)

    path = root / "metrics.deterministic.json"
    write_metrics_json(path, deterministic_view(snapshot))
    written["metrics.deterministic.json"] = str(path)

    path = root / "metrics.prom"
    path.write_text(snapshot_to_prometheus(snapshot))
    written["metrics.prom"] = str(path)

    if runlog is not None:
        path = root / "runlog.jsonl"
        runlog.write(path)
        written["runlog.jsonl"] = str(path)

    return written
