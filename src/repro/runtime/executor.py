"""Batch trial execution: serial, parallel, and cached.

:class:`TrialExecutor` takes batches of :class:`~repro.runtime.spec.TrialSpec`
and returns their :class:`~repro.eval.runner.TrialResult` outcomes in
submission order. Three properties are load-bearing:

- **Determinism** — every spec carries its own seed, so results do not
  depend on worker count, scheduling, or completion order. The
  ``workers=1`` path runs in-process with no multiprocessing machinery
  at all (and is also the fallback on platforms without ``fork`` when
  ``spawn`` is unavailable).
- **Parallelism** — ``workers>1`` fans specs out over a process pool.
  Trials are embarrassingly parallel (independent seeds, discrete-event
  simulation), so speedup tracks available cores.
- **Caching** — an optional :class:`~repro.runtime.cache.ResultCache` is
  consulted once per batch before execution; hits skip the trial
  entirely and the misses' results are stored back in one call once the
  batch has run, so repeated matrix/sweep/GA runs converge to zero
  executions.

Observability: every batch produces a :class:`RunStats` with requested /
executed / cache-hit counters, wall time, per-worker trial counts, and a
busy-time utilization estimate; executors also accumulate totals. With
``collect_metrics=True`` the executor additionally owns a
:class:`~repro.obs.MetricsRegistry`: workers return their per-trial
metric snapshots alongside results and the executor folds them — the
merge is associative, so the run-level view is identical whatever the
worker count — and an attached :class:`~repro.obs.RunLog` receives one
structured record per trial in submission order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence

from ..obs import metrics as obs_metrics
from ..obs import spans as obs_spans
from ..obs.metrics import Counter, Gauge
from ..obs.runlog import RunLog
from .cache import ResultCache, payload_result, result_payload, resolve_cache
from .cell import CellSpec
from .spec import TrialSpec

__all__ = ["RunStats", "TrialExecutor"]

#: Batch-level trial accounting. Deterministic: a batch of N specs always
#: requests N and splits them the same way between cache and execution.
_EXEC_TRIALS = Counter(
    "repro_executor_trials_total",
    "Specs handled by the executor, by disposition",
    ("state",),  # requested | executed | cached
)
_EXEC_BATCHES = Counter(
    "repro_executor_batches_total",
    "Batches submitted to the executor",
)
_EXEC_WALL = Counter(
    "repro_executor_wall_seconds_total",
    "Wall-clock seconds spent inside run_batch",
    deterministic=False,
)
_EXEC_BUSY = Counter(
    "repro_executor_busy_seconds_total",
    "Summed per-trial execution seconds across workers",
    deterministic=False,
)
_EXEC_UTILIZATION = Gauge(
    "repro_executor_utilization_ratio",
    "Peak fraction of worker wall-time capacity spent running trials",
    agg="max",
    deterministic=False,
)
_WORKER_TRIALS = Counter(
    "repro_worker_trials_total",
    "Trials executed per worker (ordinal is stable; pid is informational)",
    ("worker", "pid"),
    deterministic=False,  # pids differ run to run
)
#: How cold trials were dispatched: as part of a multi-trial shard
#: (identical spec minus seed, amortized decode/dispatch) or alone.
#: Worker-count independent (grouping happens before pool chunking; the
#: telemetry parity test pins this) but NOT batch-split independent — a
#: campaign sharded into smaller batches can turn one batched group into
#: several singles — so it is excluded from determinism diffs.
_EXEC_DISPATCH = Counter(
    "repro_executor_dispatch_total",
    "Trials dispatched to execution, by shard mode",
    ("mode",),  # batched | single
    deterministic=False,
)


@dataclass
class RunStats:
    """Counters for one batch (or, merged, for an executor's lifetime).

    Attributes:
        requested: Specs submitted to the batch.
        executed: Trials actually run (cache misses).
        cache_hits: Trials served from the result cache.
        wall_time: Batch wall-clock seconds.
        busy_time: Summed per-trial execution seconds across workers.
        workers: Worker processes used (1 = in-process serial).
        per_worker: Trials executed per worker, keyed by stable worker
            ordinal (``"w0"``, ``"w1"``, ...). Ordinals are assigned by
            the executor in first-seen order and survive pool restarts —
            raw pids can be recycled by the OS and collide across
            restarts, silently merging two different workers' counts, so
            the pid is demoted to an informational label on the
            ``repro_worker_trials_total`` metric.
        batched: Cold trials dispatched as part of a multi-trial shard
            (identical spec minus seed). Grouping happens before pool
            chunking, so the split is worker-count independent.
        single: Cold trials whose spec shape was unique in the batch.
    """

    requested: int = 0
    executed: int = 0
    cache_hits: int = 0
    wall_time: float = 0.0
    busy_time: float = 0.0
    workers: int = 1
    per_worker: Dict[str, int] = field(default_factory=dict)
    batched: int = 0
    single: int = 0

    @property
    def cold(self) -> int:
        """Trials actually executed (alias of :attr:`executed`)."""
        return self.executed

    @property
    def warm(self) -> int:
        """Trials served from the cache (alias of :attr:`cache_hits`)."""
        return self.cache_hits

    @property
    def utilization(self) -> float:
        """Fraction of worker wall-time capacity spent running trials."""
        if self.wall_time <= 0.0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_time / (self.wall_time * self.workers))

    def merge(self, other: "RunStats") -> None:
        """Fold another batch's counters into this one.

        The fold is associative and commutative (sums, dict-sums, and a
        ``max``), matching the metric-snapshot algebra: merging batch
        stats A+(B+C) equals (A+B)+C equals any other grouping, so
        totals are independent of how a run was sharded.
        """
        self.requested += other.requested
        self.executed += other.executed
        self.cache_hits += other.cache_hits
        self.wall_time += other.wall_time
        self.busy_time += other.busy_time
        self.workers = max(self.workers, other.workers)
        self.batched += other.batched
        self.single += other.single
        for worker, count in other.per_worker.items():
            self.per_worker[worker] = self.per_worker.get(worker, 0) + count

    @classmethod
    def merged(cls, parts: Sequence["RunStats"]) -> "RunStats":
        """Pure fold of many stats into a fresh one (order-independent)."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form (telemetry ``run.json``)."""
        return {
            "requested": self.requested,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cold": self.cold,
            "warm": self.warm,
            "batched": self.batched,
            "single": self.single,
            "wall_time": self.wall_time,
            "busy_time": self.busy_time,
            "workers": self.workers,
            "utilization": self.utilization,
            "per_worker": dict(self.per_worker),
        }

    def format(self) -> str:
        """One-line human-readable rendering (cold = executed, warm =
        cache hits; batched/single split the cold dispatches)."""
        return (
            f"trials={self.requested} executed={self.executed} "
            f"cache_hits={self.cache_hits} cold={self.cold} warm={self.warm} "
            f"batched={self.batched} single={self.single} "
            f"workers={self.workers} "
            f"wall={self.wall_time:.2f}s utilization={self.utilization:.0%}"
        )


def _execute_shard(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one shard (same spec shape, many seeds).

    Module-level (not a closure) so it pickles under both ``fork`` and
    ``spawn`` start methods. When the executor asked for metric
    collection (``_collect``), the shard runs inside an isolated
    registry and its snapshot travels back with the results — the parent
    merges snapshots associatively, so totals are identical however
    trials were sharded across workers.

    A shard is a run of specs identical except for their seeds — exactly
    what a grid cell (:class:`~repro.runtime.CellSpec`) expands to.
    Executing them together amortizes per-dispatch costs: one IPC payload
    and one metric snapshot per shard rather than per trial, and the
    strategy parse / packet arena warm-up from the first trial is reused
    by the rest of the shard within the worker process.
    """
    base = payload["base"]
    collect = payload.get("_collect", False)
    outs: List[Dict[str, Any]] = []

    def run_all() -> None:
        for seed in payload["seeds"]:
            spec = TrialSpec(
                country=base["country"],
                protocol=base["protocol"],
                server_strategy=base["server_strategy"],
                seed=seed,
                client_strategy=base["client_strategy"],
                options=base["options"],
                impairment=base.get("impairment"),
            )
            start = time.perf_counter()
            result = spec.run()
            duration = time.perf_counter() - start
            out = result_payload(result)
            out["_duration"] = duration
            outs.append(out)

    if collect:
        with obs_metrics.collecting() as registry:
            run_all()
        snapshot = registry.snapshot()
    else:
        run_all()
        snapshot = None
    return {"results": outs, "_pid": os.getpid(), "_metrics": snapshot}


def _preferred_start_method() -> Optional[str]:
    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "forkserver", "spawn"):
        if method in methods:
            return method
    return None


class TrialExecutor:
    """Runs batches of trial specs, optionally in parallel and cached.

    Args:
        workers: Worker processes; ``1`` (the default) executes in-process
            and is bit-identical to the historical serial loop.
        cache: ``None`` (off), ``True`` (disk store under
            ``.repro_cache/``), a directory path, or a
            :class:`ResultCache` instance.
        start_method: Force a multiprocessing start method (tests);
            default picks ``fork`` where available.
        collect_metrics: Collect per-trial metric snapshots (from
            workers or in-process) into :attr:`metrics`, an executor-
            owned registry. Off by default so unmeasured runs pay
            nothing for snapshot pickling.
        runlog: Optional :class:`~repro.obs.RunLog`; when set, every
            trial (including cache hits) is recorded in submission
            order.

    The worker pool is created lazily on the first parallel batch and
    **reused** across batches, so callers that issue many small batches
    through one executor (a GA scores one batch per generation) pay pool
    start-up once, not per call. Call :meth:`close` — or use the executor
    as a context manager — to tear the pool down deterministically;
    otherwise it is reclaimed with the executor.
    """

    def __init__(
        self,
        workers: int = 1,
        cache=None,
        start_method: Optional[str] = None,
        collect_metrics: bool = False,
        runlog: Optional[RunLog] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.cache: Optional[ResultCache] = resolve_cache(cache)
        self._start_method = start_method
        self._pool = None
        self.last_stats = RunStats()
        self.total_stats = RunStats()
        self.metrics: Optional[obs_metrics.MetricsRegistry] = (
            obs_metrics.MetricsRegistry() if collect_metrics else None
        )
        self.runlog = runlog
        # pid -> stable worker ordinal, assigned in first-seen order and
        # never reused (pool restarts get fresh ordinals, so a recycled
        # pid cannot silently merge with a dead worker's counts).
        self._worker_ordinals: Dict[str, str] = {}
        self._trial_index = 0  # submission-order counter for the runlog

    def close(self) -> None:
        """Tear down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------

    def run_one(self, spec: TrialSpec, keep_trace: bool = False):
        """Run a single spec in-process (cached unless a trace is kept).

        Trace-bearing results never touch the cache: the cache stores
        only the JSON-able outcome, and serving a trace-free hit to a
        caller that asked for the trace would be wrong.
        """
        if keep_trace:
            return spec.run(keep_trace=True)
        results = self.run_batch([spec])
        return results[0]

    def run_cells(self, cells: Sequence[CellSpec]) -> List[List]:
        """Run a grid of cells as one batch; returns each cell's results.

        Every cell expands through :meth:`CellSpec.trial_specs`, so a
        cell's trials run with the same seeds whatever grid it sits in.
        Results come back grouped per cell, in cell and trial order.
        """
        results = iter(self.run_batch([s for cell in cells for s in cell.trial_specs()]))
        return [list(islice(results, cell.trials)) for cell in cells]

    def run_batch(self, specs: Sequence[TrialSpec]) -> List:
        """Execute ``specs`` and return results in submission order."""
        if self.metrics is not None:
            # Route every increment this batch produces — parent-side
            # executor/cache counters and in-process trial metrics alike
            # — into the executor's own registry; worker snapshots are
            # merged into the same place below.
            with obs_metrics.collecting(self.metrics):
                return self._run_batch(specs)
        return self._run_batch(specs)

    def _run_batch(self, specs: Sequence[TrialSpec]) -> List:
        start = time.perf_counter()
        stats = RunStats(requested=len(specs), workers=self.workers)
        collect = self.metrics is not None

        with obs_spans.span("executor/batch"):
            results: List[Any] = (
                self.cache.lookup_many(specs)
                if self.cache is not None
                else [None] * len(specs)
            )
            pending = [position for position, result in enumerate(results) if result is None]
            stats.cache_hits = len(specs) - len(pending)

            if pending:
                # Shard the cold trials: specs identical except for
                # their seed run as one dispatch unit. The batched /
                # single split is decided here — before any pool
                # chunking — so it is worker-count independent.
                shards = self._shard_pending(specs, pending)
                for positions in shards:
                    count = len(positions)
                    if count > 1:
                        stats.batched += count
                        _EXEC_DISPATCH.inc(count, mode="batched")
                    else:
                        stats.single += count
                        _EXEC_DISPATCH.inc(count, mode="single")
                if self.workers == 1 or len(pending) == 1:
                    chunks = shards
                    stats.workers = 1
                else:
                    # Re-chunk large shards for pool load balance; this
                    # only changes which worker runs what, never results
                    # or the dispatch accounting above.
                    chunk_size = max(1, len(pending) // (self.workers * 4))
                    chunks = []
                    for positions in shards:
                        for i in range(0, len(positions), chunk_size):
                            chunks.append(positions[i : i + chunk_size])
                payloads = []
                for positions in chunks:
                    base = specs[positions[0]].as_dict()
                    del base["seed"]
                    payload = {
                        "base": base,
                        "seeds": [specs[p].seed for p in positions],
                    }
                    if collect:
                        payload["_collect"] = True
                    payloads.append(payload)
                if self.workers == 1 or len(pending) == 1:
                    shard_outs = [_execute_shard(payload) for payload in payloads]
                else:
                    shard_outs = self._run_pool(payloads)
                for positions, shard_out in zip(chunks, shard_outs):
                    pid = str(shard_out.get("_pid", os.getpid()))
                    worker = self._worker_ordinal(pid)
                    count = len(positions)
                    stats.per_worker[worker] = stats.per_worker.get(worker, 0) + count
                    _WORKER_TRIALS.inc(count, worker=worker, pid=pid)
                    snapshot = shard_out.get("_metrics")
                    if snapshot is not None:
                        obs_metrics.active_registry().merge_snapshot(snapshot)
                    for position, out in zip(positions, shard_out["results"]):
                        stats.executed += 1
                        stats.busy_time += out.pop("_duration", 0.0)
                        results[position] = payload_result(out)
                if self.cache is not None:
                    # One store for the whole batch, once every result has
                    # arrived, so the files written do not depend on how
                    # the pool chunked the shards.
                    self.cache.store_many(
                        [specs[p] for p in pending], [results[p] for p in pending]
                    )

        stats.wall_time = time.perf_counter() - start
        self.last_stats = stats
        self.total_stats.merge(stats)
        _EXEC_BATCHES.inc()
        _EXEC_TRIALS.inc(stats.requested, state="requested")
        _EXEC_TRIALS.inc(stats.executed, state="executed")
        _EXEC_TRIALS.inc(stats.cache_hits, state="cached")
        _EXEC_WALL.inc(stats.wall_time)
        _EXEC_BUSY.inc(stats.busy_time)
        _EXEC_UTILIZATION.set(stats.utilization)
        if self.runlog is not None:
            ran = set(pending)
            for position, spec in enumerate(specs):
                self.runlog.record_trial(
                    self._trial_index,
                    spec,
                    results[position],
                    cached=position not in ran,
                )
                self._trial_index += 1
        return results

    @staticmethod
    def _shard_pending(
        specs: Sequence[TrialSpec], pending: Sequence[int]
    ) -> List[List[int]]:
        """Group pending positions into shards (same :meth:`TrialSpec.shape`).

        Groups preserve first-seen order, and positions within a group
        stay in submission order, so the seed sequence each shard runs
        is reproducible.
        """
        groups: Dict[tuple, List[int]] = {}
        for position in pending:
            groups.setdefault(specs[position].shape(), []).append(position)
        return list(groups.values())

    def _worker_ordinal(self, pid: str) -> str:
        ordinal = self._worker_ordinals.get(pid)
        if ordinal is None:
            ordinal = f"w{len(self._worker_ordinals)}"
            self._worker_ordinals[pid] = ordinal
        return ordinal

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The executor's merged run-level metric snapshot.

        Empty unless the executor was built with ``collect_metrics=True``.
        """
        return self.metrics.snapshot() if self.metrics is not None else {}

    def format_stats(self) -> str:
        """Cumulative RunStats plus cache health, for ``--stats``."""
        line = self.total_stats.format()
        if self.cache is not None:
            cs = self.cache.stats
            line += (
                f"\ncache: hits={cs.hits} misses={cs.misses} "
                f"stores={cs.stores} poisoned={cs.poisoned}"
            )
        return line

    def _get_pool(self):
        if self._pool is None:
            method = self._start_method or _preferred_start_method()
            if method is None:  # no multiprocessing at all on this platform
                return None
            context = multiprocessing.get_context(method)
            self._pool = context.Pool(processes=self.workers)
        return self._pool

    def _run_pool(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        pool = self._get_pool()
        if pool is None:
            return [_execute_shard(payload) for payload in payloads]
        # Payloads are already chunked for balance by the caller.
        return pool.map(_execute_shard, payloads, chunksize=1)
