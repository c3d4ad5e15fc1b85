"""Which program entry points the traced run wraps, and what it reports.

Every probe names a ``repro`` attribute by path, the span or count it
records and the layer that owns it (the part of the name before the last
dot). :func:`install` resolves each path at run time and lists the
paths that no longer exist (a later change merged or renamed them); the
traced run then fails its ``probes_resolved`` check rather than report
those layers' figures as zero. Update the path here after such a change.

:func:`layer_metrics` turns one traced run -- the spans, the counts, the
program's own run statistics and ``repro_*`` counters -- into the
per-layer metrics named in ``BENCHMARK.json``. :func:`import_metrics`
turns one ``-X importtime`` log into each package's import time.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Sequence, Tuple

from perfbench.tracing import Tracer, self_times, summarize

__all__ = [
    "IMPORT_PACKAGES",
    "PROBES",
    "import_metrics",
    "install",
    "layer_metrics",
    "metric_names",
]

# (span or count name, "module:Attr.path", kind, options). kind is "span"
# or "count"; options: new_op (the call starts an operation), add_return
# (sum the return value), peak (keep the scheduler's queue depth), world
# (the fleet world: operation ids follow its current flow).
PROBES: Tuple[Tuple[str, str, str, dict], ...] = (
    ("packets.build", "repro.packets.packet:make_tcp_packet", "span", {}),
    ("packets.copy", "repro.packets.packet:Packet.copy", "span", {}),
    ("packets.codec", "repro.packets.packet:Packet.serialize", "span", {}),
    ("packets.codec", "repro.packets.packet:Packet.parse", "span", {}),
    ("packets.checksum_full", "repro.packets.checksum:internet_checksum", "count", {}),
    ("packets.checksum_delta", "repro.packets.checksum:delta_checksum", "count", {}),
    ("netsim.run", "repro.netsim.events:Scheduler.run", "span", {"add_return": True}),
    ("netsim.run", "repro.netsim.flows:FlowScheduler.run", "span", {"add_return": True}),
    ("netsim.schedule", "repro.netsim.events:Scheduler.schedule", "count", {"peak": True}),
    ("netsim.schedule", "repro.netsim.events:Scheduler.schedule_at", "count", {"peak": True}),
    ("netsim.schedule", "repro.netsim.flows:FlowScheduler.schedule", "count", {"peak": True}),
    ("netsim.schedule", "repro.netsim.flows:FlowScheduler.schedule_at", "count", {"peak": True}),
    ("netsim.schedule", "repro.netsim.flows:FlowScheduler.schedule_at_in", "count", {"peak": True}),
    ("netsim.network_build", "repro.netsim.network:Network.__init__", "span", {}),
    ("tcpstack.receive", "repro.tcpstack.host:Host.receive", "span", {}),
    ("tcpstack.rto", "repro.tcpstack.endpoint:TCPEndpoint._on_rto", "span", {}),
    ("apps.tls_scan", "repro.apps.tls:scan_client_hello", "span", {}),
    ("apps.tls_scan", "repro.apps.tls:scan_tls_handshake", "span", {}),
    ("apps.client_start", "repro.apps.base:BaseClient.start", "span", {}),
    ("apps.client_data", "repro.apps.base:BaseClient._on_data", "span", {}),
    ("apps.accept", "repro.apps.base:BaseServer._accept", "span", {}),
    ("censors.process", "repro.censors.gfw.gfw:GreatFirewall.process", "span", {}),
    ("censors.process", "repro.censors.india:AirtelCensor.process", "span", {}),
    ("censors.process", "repro.censors.iran:IranCensor.process", "span", {}),
    ("censors.process", "repro.censors.kazakhstan:KazakhstanCensor.process", "span", {}),
    ("censors.process", "repro.censors.sni:SNICensor.process", "span", {}),
    ("censors.build", "repro.eval.runner:make_censor", "span", {}),
    ("core.apply", "repro.core.engine:StrategyEngine.outbound_filter", "span", {}),
    ("core.apply", "repro.core.engine:StrategyEngine.inbound_filter", "span", {}),
    ("core.canonical", "repro.core.dsl.parser:Strategy.canonical_key", "span", {}),
    ("core.evolution.step", "repro.core.evolution.ga:GeneticAlgorithm.step", "span", {"new_op": True}),
    ("core.evolution.evaluate", "repro.core.evolution.fitness:CensorTrialEvaluator.evaluate", "span", {}),
    ("deploy.select", "repro.deploy.selector:GeoStrategySelector.strategy_for", "span", {}),
    ("deploy.filter", "repro.deploy.selector:PerClientEngine.inbound_filter", "span", {}),
    ("deploy.filter", "repro.deploy.selector:PerClientEngine.outbound_filter", "span", {}),
    ("eval.trial_build", "repro.eval.runner:Trial.__init__", "span", {}),
    ("eval.trial_run", "repro.eval.runner:Trial.run", "span", {}),
    ("runtime.spec_run", "repro.runtime.spec:TrialSpec.run", "span", {"new_op": True}),
    ("runtime.batch", "repro.runtime.executor:TrialExecutor.run_batch", "span", {}),
    ("runtime.cache_lookup", "repro.runtime.cache:ResultCache.lookup", "span", {}),
    ("runtime.cache_store", "repro.runtime.cache:ResultCache.store", "span", {}),
    ("fleet.world_build", "repro.fleet.world:FleetWorld.__init__", "span", {"world": True}),
    ("fleet.run", "repro.fleet.world:FleetWorld.run", "span", {}),
    ("fleet.admit", "repro.fleet.world:FleetWorld._admit", "span", {}),
    ("fleet.finalize", "repro.fleet.world:FleetWorld._finalize", "span", {}),
    ("fleet.stats", "repro.fleet.stats:FleetStats.__init__", "span", {}),
)

#: Layers whose whole self time is reported as ``<layer>.self_share``.
SELF_SHARE_LAYERS = (
    "packets", "netsim", "tcpstack", "apps", "censors", "core",
    "core.evolution", "deploy", "fleet",
)

#: ``<package>.import_ms``: the package's modules' summed import self time.
IMPORT_PACKAGES = (
    "packets", "netsim", "tcpstack", "apps", "censors", "core",
    "deploy", "eval", "runtime", "fleet", "obs",
)


def layer_of(name: str) -> str:
    """The layer a span or count name belongs to."""
    return name.rsplit(".", 1)[0]


def _resolve(path: str):
    """(owner, attribute, value) for ``module:Attr.path``; raises on a miss."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type) and attr not in owner.__dict__:
        raise AttributeError(f"{path} is not defined on its class")
    return owner, attr, getattr(owner, attr)


def install(tracer: Tracer) -> List[str]:
    """Wrap every probe; returns the probe paths not found.

    Fleet worlds built while tracing set the tracer's operation id to
    follow the world's current flow.
    """
    missing: List[str] = []
    for name, path, kind, options in PROBES:
        try:
            owner, attr, value = _resolve(path)
        except (ImportError, AttributeError):
            missing.append(path)
            continue
        make = _maker(tracer, name, kind, options)
        if isinstance(owner, type):
            tracer.patch_method(owner, attr, make)
        else:
            tracer.patch_function(value, make)
    return missing


def _queue_depth(scheduler) -> int:
    return len(scheduler._queue)


def _maker(tracer: Tracer, name: str, kind: str, options: dict) -> Callable:
    if kind == "count":
        peak = _queue_depth if options.get("peak") else None
        return lambda fn: tracer.count_wrapper(fn, name, peak=peak)
    if options.get("world"):
        def make_world(fn):
            def init(world, *args, **kwargs):
                fn(world, *args, **kwargs)
                scheduler = world.scheduler
                tracer.op_fn = lambda: (
                    scheduler.current.index if scheduler.current is not None else -1
                )
            return tracer.span_wrapper(init, name)
        return make_world
    return lambda fn: tracer.span_wrapper(
        fn,
        name,
        new_op=options.get("new_op", False),
        add_return=options.get("add_return", False),
    )


# ----------------------------------------------------------------------
# Metrics

#: Timing metrics: metric name -> (span name, scale from seconds). Each
#: expands to ``.p50``, ``.tail`` and ``.n``.
_TIMINGS = (
    ("netsim.network_build_us", "netsim.network_build", 1e6),
    ("tcpstack.receive_us", "tcpstack.receive", 1e6),
    ("censors.process_us", "censors.process", 1e6),
    ("censors.build_us", "censors.build", 1e6),
    ("core.apply_us", "core.apply", 1e6),
    ("core.canonical_us", "core.canonical", 1e6),
    ("core.evolution.step_ms", "core.evolution.step", 1e3),
    ("deploy.select_us", "deploy.select", 1e6),
    ("deploy.filter_us", "deploy.filter", 1e6),
    ("eval.trial_build_us", "eval.trial_build", 1e6),
    ("runtime.spec_run_us", "runtime.spec_run", 1e6),
    ("runtime.batch_ms", "runtime.batch", 1e3),
    ("runtime.cache_store_us", "runtime.cache_store", 1e6),
    ("runtime.cache_lookup_us", "runtime.cache_lookup", 1e6),
    ("fleet.world_build_ms", "fleet.world_build", 1e3),
    ("fleet.stats_ms", "fleet.stats", 1e3),
)

#: Calls per operation: metric name -> span or count names.
_PER_OP = (
    ("packets.copy_per_op", ("packets.copy",)),
    ("packets.codec_per_op", ("packets.codec",)),
    ("packets.checksum_full_per_op", ("packets.checksum_full",)),
    ("netsim.schedule_per_op", ("netsim.schedule",)),
    ("tcpstack.receive_per_op", ("tcpstack.receive",)),
    ("apps.tls_scan_per_op", ("apps.tls_scan",)),
    ("censors.process_per_op", ("censors.process",)),
    ("core.apply_per_op", ("core.apply",)),
    ("core.canonical_per_op", ("core.canonical",)),
    ("deploy.filter_per_op", ("deploy.filter",)),
)

#: Self time of single spans as a share of wall time.
_SPAN_SHARES = (
    ("eval.trial_build_share", "eval.trial_build"),
    ("runtime.spec_self_share", "runtime.spec_run"),
)

#: Remaining metrics, each with its unit.
_OTHER_UNITS = {
    "packets.checksum_delta_ratio": "ratio",
    "packets.arena_reuse_ratio": "ratio",
    "netsim.events_per_op": "count/op",
    "netsim.pending_max": "count",
    "tcpstack.retransmits_per_op": "count/op",
    "core.evolution.breed_share": "ratio",
    "core.evolution.dedup_ratio": "ratio",
    "core.evolution.trials_per_op": "count/op",
    "eval.driver_share": "ratio",
    "runtime.batched_ratio": "ratio",
    "runtime.cache_hit_ratio": "ratio",
    "runtime.cache_poisoned": "count",
    "runtime.cache_bytes_per_entry": "B",
    "fleet.inflight_max": "count",
    "obs.trace_overhead": "ratio",
    "obs.trace_coverage": "ratio",
}


def metric_names() -> Dict[str, str]:
    """Every per-layer metric name -> unit, sorted by name."""
    units: Dict[str, str] = {}
    for metric, _, scale in _TIMINGS:
        unit = "us" if scale == 1e6 else "ms"
        units[f"{metric}.p50"] = unit
        units[f"{metric}.tail"] = unit
        units[f"{metric}.n"] = "count"
    for metric, _ in _PER_OP:
        units[metric] = "count/op"
    for metric, _ in _SPAN_SHARES:
        units[metric] = "ratio"
    for layer in SELF_SHARE_LAYERS:
        units[f"{layer}.self_share"] = "ratio"
    for package in IMPORT_PACKAGES:
        units[f"{package}.import_ms"] = "ms"
    units.update(_OTHER_UNITS)
    return dict(sorted(units.items()))


def layer_metrics(
    tracer: Tracer,
    ops: int,
    traced_walls: Sequence[float],
    untraced_walls: Sequence[float],
    stats: Dict[str, float],
    counters: Dict[str, float],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of one traced run, plus each timing's tail quantile.

    ``ops`` counts the traced passes' operations and ``traced_walls``
    their wall seconds; ``stats`` sums the program's own run statistics
    over those passes (executor, cache, GA evaluator, fleet, packet arena)
    and ``counters`` the ``repro_*`` counters read through
    ``obs.metrics.collecting()``. Import times come from
    :func:`import_metrics`, not from here.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    names = [tracer.names[nid] for nid in tracer.name]
    durations: Dict[str, List[float]] = {}
    self_by_name: Dict[str, float] = {}
    for i, span in enumerate(names):
        durations.setdefault(span, []).append(tracer.end[i] - tracer.start[i])
        self_by_name[span] = self_by_name.get(span, 0.0) + selfs[i]

    wall = sum(traced_walls)
    per_op = 1.0 / ops if ops else 0.0
    share = 1.0 / wall if wall > 0 else 0.0
    out: Dict[str, float] = {}
    tails: Dict[str, float] = {}

    for metric, span, scale in _TIMINGS:
        summary = summarize([d * scale for d in durations.get(span, ())])
        out[f"{metric}.p50"] = summary["p50"]
        out[f"{metric}.tail"] = summary["tail"]
        out[f"{metric}.n"] = summary["n"]
        tails[metric] = summary["tail_q"]
    for metric, spans in _PER_OP:
        calls = sum(len(durations.get(s, ())) + tracer.counts.get(s, 0) for s in spans)
        out[metric] = calls * per_op
    for metric, span in _SPAN_SHARES:
        out[metric] = self_by_name.get(span, 0.0) * share
    for layer in SELF_SHARE_LAYERS:
        out[f"{layer}.self_share"] = share * sum(
            value for span, value in self_by_name.items() if layer_of(span) == layer
        )

    full = tracer.counts.get("packets.checksum_full", 0)
    delta = tracer.counts.get("packets.checksum_delta", 0)
    out["packets.checksum_delta_ratio"] = _ratio(delta, full + delta)
    created, reused = stats.get("arena_created", 0), stats.get("arena_reused", 0)
    out["packets.arena_reuse_ratio"] = _ratio(reused, created + reused)
    out["netsim.events_per_op"] = tracer.returned.get("netsim.run", 0) * per_op
    out["netsim.pending_max"] = tracer.peaks.get("netsim.schedule", 0)
    out["tcpstack.retransmits_per_op"] = counters.get("repro_tcp_retransmits_total", 0) * per_op

    # Generation time outside the fitness dispatch: breeding, selection
    # and bookkeeping.
    steps = [i for i, span in enumerate(names) if span == "core.evolution.step"]
    step_ids = set(steps)
    evaluate = sum(
        tracer.end[i] - tracer.start[i]
        for i, span in enumerate(names)
        if span == "core.evolution.evaluate" and tracer.parent[i] in step_ids
    )
    breed = sum(tracer.end[i] - tracer.start[i] for i in steps) - evaluate
    out["core.evolution.breed_share"] = breed * share
    out["core.evolution.dedup_ratio"] = _ratio(
        stats.get("eval_memo_hits", 0) + stats.get("eval_duplicates", 0),
        stats.get("eval_submitted", 0),
    )
    out["core.evolution.trials_per_op"] = (
        stats.get("requested", 0) * per_op if steps else 0.0
    )

    # Time the evaluation code spends outside the executor.
    batches = [
        tracer.end[i] - tracer.start[i]
        for i, span in enumerate(names)
        if span == "runtime.batch" and _is_top(tracer, names, i)
    ]
    out["eval.driver_share"] = (wall - sum(batches)) * share if batches else 0.0

    out["runtime.batched_ratio"] = _ratio(stats.get("batched", 0), stats.get("executed", 0))
    hits, misses = stats.get("cache_hits", 0), stats.get("cache_misses", 0)
    out["runtime.cache_hit_ratio"] = _ratio(hits, hits + misses)
    out["runtime.cache_poisoned"] = stats.get("cache_poisoned", 0)
    out["runtime.cache_bytes_per_entry"] = _ratio(
        stats.get("cache_bytes", 0), stats.get("cache_entries", 0)
    )
    out["fleet.inflight_max"] = stats.get("inflight_max", 0)

    untraced = _median(untraced_walls)
    out["obs.trace_overhead"] = _median(traced_walls) / untraced if untraced > 0 else 0.0
    out["obs.trace_coverage"] = sum(selfs) * share
    return out, tails


def import_metrics(log: str) -> Dict[str, float]:
    """``<package>.import_ms`` from a ``python -X importtime`` log.

    Each ``repro.<package>`` module's self time is summed into its
    package; ``repro.core.evolution`` and ``repro.core.dsl`` count as
    ``core``.
    """
    totals = {f"{package}.import_ms": 0.0 for package in IMPORT_PACKAGES}
    for line in log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        module = fields[2].strip()
        parts = module.split(".")
        if len(parts) < 2 or parts[0] != "repro":
            continue
        key = f"{parts[1]}.import_ms"
        if key in totals:
            try:
                totals[key] += int(fields[0]) / 1000.0
            except ValueError:  # the log's header line
                continue
    return totals


def _is_top(tracer: Tracer, names: Sequence[str], index: int) -> bool:
    """Whether no ancestor of span ``index`` has the same name."""
    parent = tracer.parent[index]
    while parent >= 0:
        if names[parent] == names[index]:
            return False
        parent = tracer.parent[parent]
    return True


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
