"""Fleet execution: serial runs, worker sharding, metric folding.

:func:`run_fleet` is the one entry point: build the spec's flow plans,
simulate them (in-process, or round-robin across a process pool, where a
lost worker raises ``BrokenProcessPool``), and reduce the per-flow
records into :class:`~repro.fleet.stats.FleetStats`.

Sharding leans on flow isolation: a flow's record is a pure function of
its :class:`~repro.fleet.spec.FlowPlan` (the world slices share nothing
but the strategy-deploying server, whose per-flow RNG/engine state is
keyed by client address), so worker ``k`` simulating plans ``k, k+W,
k+2W, ...`` — with their original global arrival times — produces the
same records those flows would have inside one big serial world. The
merged, index-sorted records are therefore byte-identical for any worker
count, which the determinism suite and the ``fleet-smoke`` CI job pin.

Metric snapshots from workers fold into the caller's registry with the
same associative merge the trial executor uses, and the flow-latency
histogram is observed once, from the merged records in flow-index order,
so its float sums do not depend on the worker count either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..obs.metrics import Histogram, active_registry, collecting, is_collecting
from ..runtime.executor import process_pool
from .spec import FleetSpec
from .stats import FleetStats
from .world import FleetWorld

__all__ = ["FleetResult", "run_fleet"]

#: Observed from the merged records in flow-index order, not as flows
#: finalize: a float sum depends on the order of its terms, and the
#: finalize order depends on how the flows were sharded.
_FLEET_LATENCY = Histogram(
    "repro_fleet_flow_latency_seconds",
    "Virtual seconds from flow arrival to its terminal app outcome",
    ("country",),
    buckets=(0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0),
)


@dataclass
class FleetResult:
    """Outcome of one fleet run.

    Attributes:
        stats: Aggregated report (also carries the per-flow records).
        records: Per-flow verdict records, sorted by global flow index.
        world: The live world object (serial runs only; ``None`` when
            the run was sharded across workers).
    """

    stats: FleetStats
    records: List[dict]
    world: Optional[FleetWorld] = None


def _run_shard(payload: dict):
    """Worker entry: simulate one round-robin shard of the plan list."""
    spec: FleetSpec = payload["spec"]
    plans = spec.flow_plans()[payload["worker"] :: payload["workers"]]
    if not plans:
        return [], None
    if payload["collect"]:
        with collecting() as registry:
            records = FleetWorld(spec, plans=plans).run()
        return records, registry.snapshot()
    return FleetWorld(spec, plans=plans).run(), None


def run_fleet(
    spec: FleetSpec,
    workers: int = 1,
    on_flow_done: Optional[Callable[[FleetWorld, dict], None]] = None,
    keep_world: bool = False,
) -> FleetResult:
    """Run one fleet serving simulation to completion.

    Args:
        spec: The serving run to simulate.
        workers: Process count. ``1`` (default) runs in-process;
            ``N > 1`` shards flows round-robin over a pool and merges —
            records are byte-identical either way.
        on_flow_done: Per-flow progress hook (serial runs only): called
            with the world and each flow's record as verdicts freeze —
            the CLI's ``--status`` view.
        keep_world: Keep the world object on the result (serial only),
            for tests poking at recycling internals.
    """
    world = None
    if workers <= 1:
        world = FleetWorld(spec, on_flow_done=on_flow_done)
        records = world.run()
    else:
        records = _run_sharded(spec, workers)
    for record in records:
        if record["latency"] is not None:
            _FLEET_LATENCY.observe(record["latency"], country=record["country"])
    stats = FleetStats(spec, records)
    return FleetResult(stats, records, world=world if keep_world else None)


def _run_sharded(spec: FleetSpec, workers: int) -> List[dict]:
    """Simulate ``spec`` over a process pool; merged records by flow index."""
    payloads = [
        {
            "spec": spec,
            "worker": index,
            "workers": workers,
            "collect": is_collecting(),
        }
        for index in range(workers)
    ]
    with process_pool(workers) as pool:
        shards = list(pool.map(_run_shard, payloads))

    records: List[dict] = []
    for shard_records, snapshot in shards:
        records.extend(shard_records)
        if snapshot is not None and is_collecting():
            active_registry().merge_snapshot(snapshot)
    records.sort(key=lambda record: record["flow"])
    return records
