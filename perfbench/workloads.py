"""The benchmark's workloads.

Each workload makes its inputs from one seed, runs identical *passes*
over them (the unit the run loop times), digests each pass's output, and
knows the checks that tell a correct output from a wrong one. Every pass
runs in the benchmark's own process through ``TrialExecutor(workers=1)``
or ``run_fleet(workers=1)``: no pool.

- ``paper_grid`` -- a cold ``repro reproduce``-style run: ``generate_table2``
  over every Table 2 cell, then ``sni_matrix``, through one executor with
  a fresh on-disk ``ResultCache`` per pass, so every lookup misses and
  every trial is simulated and stored. An operation is a trial.
- ``fleet_mix`` -- ``run_fleet`` on the default 12-cohort mix with
  arrivals dense enough to keep about 800 flows in flight. An operation
  is a flow.
- ``evolve_rerun`` -- fixed-length GA searches on china/http, each run
  cold once (untimed) into its own cache directory, then rerun by every
  pass with a new executor and a new ``ResultCache`` on that directory,
  as a rerun process would: nothing is simulated. An operation is a GA
  generation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.evolution import CensorTrialEvaluator, GAConfig, GeneticAlgorithm
from repro.eval.reference import CHINA_PROTOCOLS, TABLE2_OTHER, paper_rate
from repro.eval.runner import success_rate
from repro.eval.sni_matrix import SNI_COLUMNS, sni_matrix
from repro.eval.table2 import generate_table2
from repro.fleet import FleetSpec, FleetWorld, run_fleet
from repro.packets import pool
from repro.runtime import ResultCache, TrialExecutor, trial_seed

__all__ = ["Check", "PassResult", "Workload", "WORKLOADS"]

#: paper_grid: trials per China and SNI cell (other Table 2 cells run
#: ``max(10, PAPER_TRIALS // 5)``, as ``generate_table2`` decides).
PAPER_TRIALS = 32
#: paper_grid's warm-up: every (country, protocol) pair of Table 2.
GRID_PAIRS = sorted(
    {("china", protocol) for protocol in CHINA_PROTOCOLS}
    | {(country, protocol) for country, _, protocol in TABLE2_OTHER}
)
#: Wilson-interval z for the Table 2 tolerance check.
TOLERANCE_Z = 4.0
#: Expected SNI matrix shape: South Korea blocks only the baseline;
#: Russia blocks everything but deep connection migration (#15).
SNI_EXPECTED = {
    ("southkorea", column): 0.0 if column == "baseline" else 1.0 for column in SNI_COLUMNS
}
SNI_EXPECTED.update(
    {("russia", column): 1.0 if column == "15" else 0.0 for column in SNI_COLUMNS}
)

#: fleet_mix: flows per pass and their fixed arrival gap (virtual s);
#: with a 40 s per-flow deadline this keeps ~800 flows in flight.
FLEET_CLIENTS = 1000
FLEET_SPACING = 0.05
#: Flows re-simulated alone to check flow isolation.
FLEET_SAMPLE = 12

#: evolve_rerun: searches per pass, each seeded from the workload seed.
#: A search's trial count per generation depends on its trajectory (712
#: to 1096 trials over ten generations across 24 seeds), so a pass spans
#: several searches to keep the cost of one generation steady from seed
#: to seed. Patience above the generation count makes every search run
#: all generations.
GA_TARGET = ("china", "http")
GA_SEARCHES = 8
GA_POPULATION = 48
GA_GENERATIONS = 10
GA_TRIALS = 8


@dataclass
class Check:
    """One output check: its verdict and the operations it failed."""

    name: str
    ok: bool
    failed_ops: int = 0
    detail: str = ""


@dataclass
class PassResult:
    """What one pass produced.

    Attributes:
        ops: Operations completed.
        digest: SHA-256 of the pass's canonical output.
        stats: The program's own run statistics for the pass.
        output: The pass's output, kept for the workload's checks.
        problems: Checks the pass itself failed (its ops count as failed).
    """

    ops: int
    digest: str
    stats: Dict[str, float] = field(default_factory=dict)
    output: object = None
    problems: List[str] = field(default_factory=list)


def sha256_json(value) -> str:
    """Digest of a value's canonical JSON form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def wilson(successes: float, n: int, z: float):
    """Wilson score interval of a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def rate_within(measured: float, n: int, expected: float, tolerance: float) -> bool:
    """Whether a measured rate is consistent with ``expected`` +- ``tolerance``.

    The rate fails only when its whole Wilson interval lies farther than
    ``tolerance`` from ``expected``, so a cell with too few trials to
    resolve the tolerance cannot fail by sampling noise alone.
    """
    lo, hi = wilson(round(measured * n), n, TOLERANCE_Z)
    return lo <= expected + tolerance + 1e-9 and hi >= expected - tolerance - 1e-9


def dir_bytes(path: Path):
    """(total bytes, files) of the regular files under ``path``."""
    sizes = [entry.stat().st_size for entry in path.rglob("*") if entry.is_file()]
    return sum(sizes), len(sizes)


def _executor_stats(executor: TrialExecutor) -> Dict[str, float]:
    total = executor.total_stats
    cache = executor.cache.stats
    return {
        "requested": total.requested,
        "executed": total.executed,
        "batched": total.batched,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_stores": cache.stores,
        "cache_poisoned": cache.poisoned,
    }


def fold(total: Dict[str, float], part: Dict[str, float]) -> None:
    """Add ``part``'s statistics into ``total`` (``inflight_max`` by max)."""
    for key, value in part.items():
        if key == "inflight_max":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


class Workload:
    """Base class: one named workload over inputs made from one seed.

    ``workdir`` is the run's private directory for result caches; the
    run loop creates it and removes it afterwards.
    """

    name = ""
    #: What one operation is.
    op = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def inputs(self) -> dict:
        """Everything the program receives, as plain data."""
        raise NotImplementedError

    def prepare(self) -> dict:
        """Make inputs that take program work to build (untimed); returns
        facts about them for the run record."""
        return {}

    def setup(self) -> None:
        """Build what the workload calls and run it once at a tiny size."""

    def run_pass(self, index: int, traced: bool = False) -> PassResult:
        """Run pass number ``index`` over the inputs."""
        raise NotImplementedError

    def after_pass(self, index: int) -> Dict[str, float]:
        """Untimed clean-up after pass ``index``; returns facts about it."""
        return {}

    def checks(self, first: PassResult) -> List[Check]:
        """Workload-specific checks of the first pass's output."""
        return []


class _RecordingExecutor(TrialExecutor):
    """A serial executor that keeps every result, in submission order."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.results: list = []

    def run_batch(self, specs):
        results = super().run_batch(specs)
        self.results.extend(results)
        return results


class PaperGrid(Workload):
    """Table 2 and the SNI matrix, cold, stored into a fresh disk cache."""

    name = "paper_grid"
    op = "trial"

    def inputs(self) -> dict:
        return {"trials": PAPER_TRIALS, "seed": self.seed}

    def _cache_dir(self, index) -> Path:
        return self.workdir / f"grid-{index}"

    def setup(self) -> None:
        # One unevaded trial per Table 2 (country, protocol) pair and one
        # trial per SNI cell: every censor and application a pass uses is
        # built once, through the executor and a disk cache, while the
        # warm-up stays about 1% of a pass's trials, so setup_s does not
        # follow simulator throughput.
        executor = TrialExecutor(workers=1, cache=ResultCache(self._cache_dir("setup")))
        for country, protocol in GRID_PAIRS:
            success_rate(country, protocol, None, trials=1, seed=self.seed, executor=executor)
        sni_matrix(trials=1, seed=self.seed, executor=executor)
        shutil.rmtree(self._cache_dir("setup"), ignore_errors=True)

    def run_pass(self, index: int, traced: bool = False) -> PassResult:
        arena = (pool._ARENA.created, pool._ARENA.reused)
        executor = _RecordingExecutor(workers=1, cache=ResultCache(self._cache_dir(index)))
        table = generate_table2(trials=PAPER_TRIALS, seed=self.seed, executor=executor)
        sni = sni_matrix(trials=PAPER_TRIALS, seed=self.seed, executor=executor)
        trials = hashlib.sha256()
        for result in executor.results:
            trials.update(
                f"{result.outcome}\x1f{result.succeeded:d}{result.censored:d}"
                f"\x1f{result.detail}\x1e".encode("utf-8")
            )
        output = {
            "table2": [[c.country, c.strategy_number, c.protocol, c.measured] for c in table],
            "sni": [[c.country, c.column, c.measured] for c in sni],
            "trials": trials.hexdigest(),
        }
        stats = _executor_stats(executor)
        stats["arena_created"] = pool._ARENA.created - arena[0]
        stats["arena_reused"] = pool._ARENA.reused - arena[1]
        problems = []
        if not stats["cache_stores"] == stats["executed"] == stats["requested"]:
            problems.append(
                f"stores={stats['cache_stores']} executed={stats['executed']} "
                f"requested={stats['requested']} differ"
            )
        return PassResult(
            ops=stats["requested"],
            digest=sha256_json(output),
            stats=stats,
            output=output,
            problems=problems,
        )

    def after_pass(self, index: int) -> Dict[str, float]:
        directory = self._cache_dir(index)
        size, files = dir_bytes(directory)
        shutil.rmtree(directory)
        return {"cache_bytes": size, "cache_entries": files}

    def checks(self, first: PassResult) -> List[Check]:
        failed = []
        checked = 0
        for country, number, protocol, measured in first.output["table2"]:
            paper = paper_rate(country, number, protocol)
            if paper is None:
                continue
            n = PAPER_TRIALS if country == "china" else max(10, PAPER_TRIALS // 5)
            tolerance = 0.15 if country == "china" else 0.05
            checked += 1
            if not rate_within(measured, n, paper / 100.0, tolerance):
                failed.append((f"{country}/{number}/{protocol}", measured, paper, n))
        for country, column, measured in first.output["sni"]:
            checked += 1
            expected = SNI_EXPECTED[(country, column)]
            if not rate_within(measured, PAPER_TRIALS, expected, 0.05):
                failed.append((f"{country}/{column}", measured, expected * 100, PAPER_TRIALS))
        detail = f"{checked} cells checked"
        if failed:
            detail += "; outside tolerance: " + ", ".join(
                f"{cell} {measured:.2f} vs {paper}% (n={n})" for cell, measured, paper, n in failed
            )
        return [Check("paper_tolerance", not failed, sum(f[3] for f in failed), detail)]


class FleetMix(Workload):
    """One fleet world serving the default mix, about 800 flows in flight."""

    name = "fleet_mix"
    op = "flow"

    def spec(self, clients: Optional[int] = None) -> FleetSpec:
        """The fleet run for this seed."""
        return FleetSpec(
            clients=FLEET_CLIENTS if clients is None else clients,
            seed=self.seed,
            spacing=FLEET_SPACING,
        )

    def inputs(self) -> dict:
        return self.spec().summary()

    def setup(self) -> None:
        run_fleet(self.spec(clients=48), workers=1)

    def run_pass(self, index: int, traced: bool = False) -> PassResult:
        stats: Dict[str, float] = {}
        hook = None
        if traced:
            worlds = []

            def hook(world, record) -> None:
                if not worlds:
                    worlds.append(world)
                if world.active_flows > stats.get("inflight_max", 0):
                    stats["inflight_max"] = world.active_flows

        result = run_fleet(self.spec(), workers=1, on_flow_done=hook)
        if traced and worlds:
            stats["arena_created"] = worlds[0].arena.created
            stats["arena_reused"] = worlds[0].arena.reused
        return PassResult(
            ops=result.stats.flows,
            digest=hashlib.sha256(result.stats.to_json().encode("utf-8")).hexdigest(),
            stats=stats,
            output=result.records,
        )

    def checks(self, first: PassResult) -> List[Check]:
        records = first.output
        spec = self.spec()
        finalized = len(records) == spec.clients and all(r is not None for r in records)
        checks = [
            Check(
                "fleet_complete",
                finalized,
                0 if finalized else spec.clients,
                f"{len(records)} of {spec.clients} flows finalized",
            )
        ]
        # Flow isolation: a flow's record is a pure function of its plan,
        # so a world holding only a sample of the plans must reproduce
        # exactly those records.
        rng = random.Random(self.seed)
        sample = sorted(rng.sample(range(spec.clients), FLEET_SAMPLE))
        plans = spec.flow_plans()
        alone = FleetWorld(spec, plans=[plans[i] for i in sample]).run()
        mismatched = [i for i, record in zip(sample, alone) if records[i] != record]
        checks.append(
            Check(
                "fleet_flow_isolation",
                not mismatched,
                len(mismatched),
                f"{FLEET_SAMPLE} flows re-simulated alone"
                + (f"; differ: {mismatched}" if mismatched else ""),
            )
        )
        return checks


class EvolveRerun(Workload):
    """GA searches rerun from the disk caches their cold runs filled.

    :meth:`prepare` runs every search once against a fresh disk
    ``ResultCache`` (the cache only writes), as an earlier process would
    have, and keeps its output. Each pass reruns every search with a new
    executor and a new ``ResultCache`` on the search's directory (the
    cache only reads), and must reproduce the cold output without
    simulating a trial.
    """

    name = "evolve_rerun"
    op = "GA generation"

    def inputs(self) -> dict:
        country, protocol = GA_TARGET
        return {
            "country": country,
            "protocol": protocol,
            "searches": GA_SEARCHES,
            "population_size": GA_POPULATION,
            "generations": GA_GENERATIONS,
            "trials": GA_TRIALS,
            "search_seeds": self.search_seeds(),
        }

    def search_seeds(self) -> List[int]:
        """The seed of each search (GA and trial seeds alike)."""
        return [trial_seed(self.seed, index) for index in range(GA_SEARCHES)]

    def search(self, seed: int, cache: ResultCache, population=None, generations=None, trials=None):
        """Run the GA once; returns (output, executor, evaluator)."""
        population = GA_POPULATION if population is None else population
        generations = GA_GENERATIONS if generations is None else generations
        country, protocol = GA_TARGET
        executor = TrialExecutor(workers=1, cache=cache)
        evaluator = CensorTrialEvaluator(
            country, protocol, trials=GA_TRIALS if trials is None else trials,
            seed=seed, executor=executor,
        )
        config = GAConfig(
            population_size=population,
            generations=generations,
            seed=seed,
            convergence_patience=generations + 1,
        )
        result = GeneticAlgorithm(evaluator, config=config).run()
        output = {
            "best": str(result.best),
            "best_fitness": result.best_fitness,
            "history": result.history,
            "hall_of_fame": [[text, score] for text, score in result.hall_of_fame],
            "generations_run": result.generations_run,
        }
        return output, executor, evaluator

    def _cache_dir(self, index) -> Path:
        return self.workdir / f"search-{index}"

    def prepare(self) -> dict:
        self._cold = []
        executed = 0
        for index, seed in enumerate(self.search_seeds()):
            output, executor, _ = self.search(seed, ResultCache(self._cache_dir(index)))
            executed += executor.total_stats.executed
            self._cold.append(output)
        size, files = 0, 0
        for index in range(GA_SEARCHES):
            more, count = dir_bytes(self._cache_dir(index))
            size, files = size + more, files + count
        self._cache_facts = {"cache_bytes": size, "cache_entries": files}
        return {"fill_trials": executed, "fill_entries": files, "fill_bytes": size}

    def setup(self) -> None:
        directory = self._cache_dir("setup")
        for _ in range(2):  # cold, then a rerun from the cache it filled
            self.search(self.seed, ResultCache(directory), population=8, generations=2, trials=2)
        shutil.rmtree(directory, ignore_errors=True)

    def run_pass(self, index: int, traced: bool = False) -> PassResult:
        outputs = []
        stats: Dict[str, float] = {}
        problems = []
        for position, seed in enumerate(self.search_seeds()):
            output, executor, evaluator = self.search(seed, ResultCache(self._cache_dir(position)))
            rerun = _executor_stats(executor)
            rerun.update(
                eval_submitted=evaluator.stats.submitted,
                eval_memo_hits=evaluator.stats.memo_hits,
                eval_duplicates=evaluator.stats.duplicates,
            )
            if output != self._cold[position]:
                problems.append("a rerun differs from its cold search")
            if rerun["executed"] or rerun["cache_stores"]:
                problems.append(f"a rerun executed {rerun['executed']} trials")
            if rerun["cache_poisoned"]:
                problems.append(f"{rerun['cache_poisoned']} poisoned cache entries")
            fold(stats, rerun)
            outputs.append(output)
        return PassResult(
            ops=sum(output["generations_run"] for output in outputs),
            digest=sha256_json(outputs),
            stats=stats,
            output=outputs,
            problems=sorted(set(problems)),
        )

    def after_pass(self, index: int) -> Dict[str, float]:
        return dict(self._cache_facts)


WORKLOADS = {cls.name: cls for cls in (PaperGrid, FleetMix, EvolveRerun)}
