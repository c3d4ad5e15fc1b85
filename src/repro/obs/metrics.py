"""Dependency-free labeled metrics with associatively-mergeable snapshots.

The observability layer has one structural requirement the usual metrics
libraries do not meet: trials execute in **worker processes**, and every
worker's counters must fold into one run-level view without caring how
the trials were sharded. Snapshots here are therefore plain JSON-able
dicts with an associative, commutative :func:`merge_snapshots` — summing
a worker's counters into the parent gives the same totals whether the
run used one worker or eight, and whether snapshots arrive per trial,
per chunk, or per batch. That algebra is what the telemetry parity
acceptance check (``--workers 2`` equals ``--workers 1`` on every
deterministic counter) rests on.

Three metric kinds:

- :class:`Counter` — monotone sums (merge: ``+``);
- :class:`Gauge` — point-in-time values with an explicit associative
  aggregation (``max``, ``min``, or ``sum``) chosen at declaration;
- :class:`Histogram` — fixed-bucket distributions (merge: element-wise
  ``+`` on bucket counts, sum, and count).

Metric *handles* are declared once at module import time and carry only
the schema; **storage** lives in whichever :class:`MetricsRegistry` is
active when an increment happens. Recording is live only inside a
``collecting()`` scope — outside one, every handle drops its increment
after a single module-global check, which is what keeps the always-on
instrumentation of per-packet hot paths effectively free when no
telemetry output was requested. ``collecting()`` pushes an isolated
registry so a trial's metrics can be snapshotted and shipped across a
process boundary:

    REQS = Counter("repro_requests_total", "Requests seen", ("verb",))

    with collecting() as reg:
        REQS.inc(verb="GET")
    snapshot = reg.snapshot()        # plain dict, picklable/JSON-able

Families carry a ``deterministic`` flag: virtual-time and count metrics
are deterministic (two identical runs produce byte-identical values),
wall-clock timings and pid-labeled metrics are not. Exporters use the
flag to emit a separable artifact that CI can diff between runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "COLLECTING",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricSchemaError",
    "active_registry",
    "collecting",
    "default_registry",
    "is_collecting",
    "merge_snapshots",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds-oriented; +Inf implied).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_GAUGE_AGGS = ("max", "min", "sum")


class MetricSchemaError(ValueError):
    """Raised when metric declarations or snapshots disagree on schema."""


def _sanitize_label_value(value: Any) -> str:
    """Canonical label-value string, safe for the ``k=v,k=v`` sample key."""
    text = str(value)
    for bad in (",", "=", "\n"):
        if bad in text:
            text = text.replace(bad, "_")
    return text


class _Family:
    """Schema of one metric family (shared by all handles and snapshots)."""

    __slots__ = ("name", "kind", "help", "labelnames", "agg", "buckets", "deterministic")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Tuple[str, ...],
        agg: str = "sum",
        buckets: Tuple[float, ...] = (),
        deterministic: bool = True,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.agg = agg
        self.buckets = buckets
        self.deterministic = deterministic

    def meta(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "deterministic": self.deterministic,
        }
        if self.kind == "gauge":
            out["agg"] = self.agg
        if self.kind == "histogram":
            out["buckets"] = list(self.buckets)
        return out


#: Process-global family schemas, keyed by metric name. Declaring the
#: same name twice must agree on schema (re-imports are idempotent).
_FAMILIES: Dict[str, _Family] = {}


def _register(family: _Family) -> _Family:
    existing = _FAMILIES.get(family.name)
    if existing is not None:
        if (
            existing.kind != family.kind
            or existing.labelnames != family.labelnames
            or existing.agg != family.agg
            or existing.buckets != family.buckets
        ):
            raise MetricSchemaError(
                f"metric {family.name!r} re-declared with a different schema"
            )
        return existing
    _FAMILIES[family.name] = family
    return family


class MetricsRegistry:
    """Storage for metric samples; one per process scope or collection.

    Samples are keyed ``family name -> label string -> value`` where the
    label string is ``"k=v,k=v"`` in declared label order (``""`` for
    unlabeled metrics). Counter/gauge values are numbers; histogram
    values are ``{"buckets": [...], "sum": s, "count": n}`` dicts.
    """

    def __init__(self) -> None:
        self._samples: Dict[str, Dict[str, Any]] = {}

    # -- recording (called by metric handles) ---------------------------

    def _inc(self, family: _Family, key: str, amount) -> None:
        samples = self._samples.get(family.name)
        if samples is None:
            samples = self._samples[family.name] = {}
        samples[key] = samples.get(key, 0) + amount

    def _gauge(self, family: _Family, key: str, value) -> None:
        samples = self._samples.get(family.name)
        if samples is None:
            samples = self._samples[family.name] = {}
        current = samples.get(key)
        if current is None:
            samples[key] = value
        elif family.agg == "max":
            samples[key] = max(current, value)
        elif family.agg == "min":
            samples[key] = min(current, value)
        else:  # sum
            samples[key] = current + value

    def _observe(self, family: _Family, key: str, value) -> None:
        samples = self._samples.get(family.name)
        if samples is None:
            samples = self._samples[family.name] = {}
        cell = samples.get(key)
        if cell is None:
            cell = samples[key] = {
                "buckets": [0] * (len(family.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
        index = len(family.buckets)
        for i, bound in enumerate(family.buckets):
            if value <= bound:
                index = i
                break
        cell["buckets"][index] += 1
        cell["sum"] += value
        cell["count"] += 1

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of every sample (JSON-able, picklable).

        The result embeds each family's schema so snapshots are
        self-describing across process boundaries and on disk.
        """
        out: Dict[str, Any] = {}
        for name, samples in self._samples.items():
            family = _FAMILIES[name]
            copied = {
                key: (dict(value, buckets=list(value["buckets"]))
                      if isinstance(value, dict) else value)
                for key, value in samples.items()
            }
            entry = family.meta()
            entry["samples"] = copied
            out[name] = entry
        return out

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a snapshot's samples into this registry (associative)."""
        for name, entry in snapshot.items():
            family = _FAMILIES.get(name)
            if family is None:
                # A snapshot from a process that declared families this
                # one never imported: adopt the embedded schema.
                family = _register(
                    _Family(
                        name,
                        entry["kind"],
                        entry.get("help", ""),
                        tuple(entry.get("labelnames", ())),
                        agg=entry.get("agg", "sum"),
                        buckets=tuple(entry.get("buckets", ())),
                        deterministic=entry.get("deterministic", True),
                    )
                )
            for key, value in entry["samples"].items():
                if family.kind == "counter":
                    self._inc(family, key, value)
                elif family.kind == "gauge":
                    self._gauge(family, key, value)
                else:
                    cell = self._samples.setdefault(name, {}).get(key)
                    if cell is None:
                        self._samples[name][key] = {
                            "buckets": list(value["buckets"]),
                            "sum": value["sum"],
                            "count": value["count"],
                        }
                    else:
                        if len(cell["buckets"]) != len(value["buckets"]):
                            raise MetricSchemaError(
                                f"histogram {name!r} bucket count mismatch"
                            )
                        for i, c in enumerate(value["buckets"]):
                            cell["buckets"][i] += c
                        cell["sum"] += value["sum"]
                        cell["count"] += value["count"]

    def clear(self) -> None:
        """Drop every sample (schemas are process-global and remain)."""
        self._samples.clear()

    def value(self, name: str, **labels: Any) -> Any:
        """Read one sample (testing/report convenience); None if absent."""
        family = _FAMILIES.get(name)
        if family is None:
            return None
        key = _label_key(family, labels)
        return self._samples.get(name, {}).get(key)

    def __bool__(self) -> bool:
        return bool(self._samples)


def merge_snapshots(*snapshots: Mapping[str, Any]) -> Dict[str, Any]:
    """Merge any number of snapshots into one (pure; order-independent).

    The merge is associative and commutative: counters and histograms
    sum, gauges combine under their declared aggregation. This is the
    fold the executor applies to per-worker snapshots.
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()


# ---------------------------------------------------------------------------
# Active-registry scoping

_DEFAULT = MetricsRegistry()
_STACK: List[MetricsRegistry] = [_DEFAULT]
#: Number of live ``collecting()`` scopes.
_DEPTH = 0
#: True while any ``collecting()`` scope is live. Handles drop increments
#: when it is false, so uninstrumented runs pay one global check per
#: event; per-packet call sites read it as a module attribute, as they
#: read ``obs.spans.ENABLED``, and skip the handle call altogether.
COLLECTING = False


def default_registry() -> MetricsRegistry:
    """The stack-bottom registry. Handles record only inside a
    ``collecting()`` scope, so this stays empty unless explicitly
    collected into (``collecting(default_registry())``)."""
    return _DEFAULT


def active_registry() -> MetricsRegistry:
    """The registry increments currently land in."""
    return _STACK[-1]


def is_collecting() -> bool:
    """Whether at least one ``collecting()`` scope is active."""
    return COLLECTING


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Route increments into an isolated registry for the duration.

    Used around each trial execution so its metrics can be snapshotted
    and returned alongside the result; nested scopes shadow outer ones
    (innermost wins), matching how the executor wraps a whole batch
    while workers wrap individual trials. Entering a scope also arms
    recording itself — outside any scope, handles drop increments.
    """
    global _DEPTH, COLLECTING
    reg = registry if registry is not None else MetricsRegistry()
    _STACK.append(reg)
    _DEPTH += 1
    COLLECTING = True
    try:
        yield reg
    finally:
        _DEPTH -= 1
        COLLECTING = _DEPTH > 0
        _STACK.pop()


def _label_key(family: _Family, labels: Mapping[str, Any]) -> str:
    if not family.labelnames:
        if labels:
            raise MetricSchemaError(f"{family.name} takes no labels")
        return ""
    try:
        return ",".join(
            f"{name}={_sanitize_label_value(labels[name])}"
            for name in family.labelnames
        )
    except KeyError as exc:
        raise MetricSchemaError(
            f"{family.name} requires labels {family.labelnames}, got {sorted(labels)}"
        ) from None


def parse_label_key(key: str) -> List[Tuple[str, str]]:
    """Split a ``"k=v,k=v"`` sample key back into pairs (exporters)."""
    if not key:
        return []
    return [tuple(part.split("=", 1)) for part in key.split(",")]  # type: ignore[misc]


# ---------------------------------------------------------------------------
# Metric handles

class _Metric:
    """Base handle: schema only; storage resolves at record time."""

    __slots__ = ("_family",)
    _kind = ""

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        deterministic: bool = True,
        **extra: Any,
    ) -> None:
        self._family = _register(
            _Family(
                name,
                self._kind,
                help,
                tuple(labelnames),
                deterministic=deterministic,
                **extra,
            )
        )

    @property
    def name(self) -> str:
        return self._family.name


class Counter(_Metric):
    """Monotone counter. ``inc(**labels)`` or prebind with ``labels()``."""

    _kind = "counter"

    def inc(self, amount=1, **labels: Any) -> None:
        """Add ``amount`` to this counter (dropped outside collection)."""
        if not COLLECTING:
            return
        _STACK[-1]._inc(self._family, _label_key(self._family, labels), amount)

    def labels(self, **labels: Any) -> "BoundCounter":
        """Prebind a label set (hot paths: one dict op per inc)."""
        return BoundCounter(self._family, _label_key(self._family, labels))


class BoundCounter:
    """A counter handle with its label key resolved ahead of time."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: _Family, key: str) -> None:
        self._family = family
        self._key = key

    def inc(self, amount=1) -> None:
        """Add ``amount`` under the prebound labels (hot-path variant)."""
        if not COLLECTING:
            return
        _STACK[-1]._inc(self._family, self._key, amount)


class Gauge(_Metric):
    """Point-in-time value with an associative cross-worker aggregation."""

    _kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        agg: str = "max",
        deterministic: bool = True,
    ) -> None:
        if agg not in _GAUGE_AGGS:
            raise MetricSchemaError(f"gauge agg must be one of {_GAUGE_AGGS}")
        super().__init__(name, help, labelnames, deterministic=deterministic, agg=agg)

    def set(self, value, **labels: Any) -> None:
        """Record ``value`` (merged under the declared aggregation)."""
        if not COLLECTING:
            return
        _STACK[-1]._gauge(self._family, _label_key(self._family, labels), value)


class Histogram(_Metric):
    """Fixed-bucket distribution (bucket counts merge element-wise)."""

    _kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        deterministic: bool = True,
    ) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise MetricSchemaError("histogram needs at least one bucket bound")
        super().__init__(
            name, help, labelnames, deterministic=deterministic, buckets=bounds
        )

    def observe(self, value, **labels: Any) -> None:
        """Count ``value`` into its bucket and the running sum/count."""
        if not COLLECTING:
            return
        _STACK[-1]._observe(
            self._family, _label_key(self._family, labels), value
        )
