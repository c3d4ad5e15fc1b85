"""Parity tests: parallel and serial execution are bit-identical.

Every spec carries its own derived seed, so the executor's mode (serial
in-process, 4-worker pool, cached) must never change outcomes — for any
``(country, protocol)`` the paper evaluates — nor the files a cached
batch leaves on disk.
"""

from pathlib import Path

import pytest

from repro.censors import COUNTRIES
from repro.core import deployed_strategy
from repro.eval import success_rate
from repro.runtime import RunStats, TrialExecutor, TrialSpec, trial_seed

#: One representative evading strategy per country (Table 2, and the
#: SNI-era grid for the post-paper boxes).
STRATEGY_FOR = {
    "china": 1,
    "india": 8,
    "iran": 8,
    "kazakhstan": 11,
    "southkorea": 12,
    "russia": 15,
}

ALL_PAIRS = [
    (country, protocol)
    for country, profile in COUNTRIES.items()
    for protocol in profile.protocols
]


def batch_specs(country, protocol, number, trials, seed=0):
    strategy = deployed_strategy(number)
    return [
        TrialSpec.build(country, protocol, strategy, seed=trial_seed(seed, i))
        for i in range(trials)
    ]


class TestResultParity:
    @pytest.mark.parametrize("country,protocol", ALL_PAIRS)
    def test_trial_results_identical(self, country, protocol):
        specs = batch_specs(country, protocol, STRATEGY_FOR[country], trials=4)
        serial = TrialExecutor(workers=1).run_batch(specs)
        parallel = TrialExecutor(workers=4).run_batch(specs)
        for s, p in zip(serial, parallel):
            assert (s.outcome, s.succeeded, s.censored, s.detail) == (
                p.outcome,
                p.succeeded,
                p.censored,
                p.detail,
            )

    @pytest.mark.parametrize("country,protocol", ALL_PAIRS)
    def test_success_rate_identical(self, country, protocol):
        number = STRATEGY_FOR[country]
        kwargs = dict(trials=6, seed=17)
        serial = success_rate(
            country, protocol, deployed_strategy(number), workers=1, **kwargs
        )
        parallel = success_rate(
            country, protocol, deployed_strategy(number), workers=4, **kwargs
        )
        assert serial == parallel

    def test_serial_matches_legacy_in_process_loop(self):
        """workers=1 runs the very same (seed, spec) sequence a plain
        run_trial loop over trial_seed would — shared derivation."""
        from repro.eval import run_trial

        trials, base = 10, 5
        strategy = deployed_strategy(1)
        legacy = [
            run_trial("china", "http", strategy, seed=trial_seed(base, i)).succeeded
            for i in range(trials)
        ]
        rate = success_rate(
            "china", "http", strategy, trials=trials, seed=base, workers=1
        )
        assert rate == sum(legacy) / trials

    def test_cache_tree_is_worker_count_independent(self, tmp_path):
        specs = (
            batch_specs("china", "http", 1, trials=8)
            + batch_specs("iran", "https", 8, trials=8)
            + batch_specs("kazakhstan", "http", 11, trials=8)
        )
        # Two workers re-chunk the 24 cold trials into pieces of
        # 24 // (2 * 4) = 3, which splits every 8-trial shard.
        assert len(specs) // (2 * 4) < 8
        TrialExecutor(workers=1, cache=tmp_path / "serial").run_batch(specs)
        with TrialExecutor(workers=2, cache=tmp_path / "pool") as pool:
            pool.run_batch(specs)
            assert pool.last_stats.workers == 2

        def tree(root: Path):
            return {
                path.relative_to(root).as_posix(): path.read_bytes()
                for path in sorted(root.rglob("*"))
                if path.is_file()
            }

        serial_tree = tree(tmp_path / "serial")
        assert len(serial_tree) == 3
        assert tree(tmp_path / "pool") == serial_tree
        rerun = TrialExecutor(workers=1, cache=tmp_path / "pool")
        rerun.run_batch(specs)
        assert rerun.last_stats.executed == 0
        assert rerun.cache.stats.poisoned == 0

    def test_cached_parity(self, tmp_path):
        specs = batch_specs("china", "http", 1, trials=8)
        plain = TrialExecutor(workers=1).run_batch(specs)
        warmer = TrialExecutor(workers=4, cache=tmp_path)
        warm = warmer.run_batch(specs)
        cached = TrialExecutor(workers=1, cache=tmp_path).run_batch(specs)
        for a, b, c in zip(plain, warm, cached):
            assert a.succeeded == b.succeeded == c.succeeded
            assert a.outcome == b.outcome == c.outcome


class TestExecutorMechanics:
    def test_order_is_submission_order(self):
        specs = batch_specs("china", "http", 1, trials=6)
        results = TrialExecutor(workers=4).run_batch(specs)
        redo = [spec.run() for spec in specs]
        assert [r.outcome for r in results] == [r.outcome for r in redo]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            TrialExecutor(workers=0)

    def test_stats_counters(self):
        executor = TrialExecutor(workers=1)
        specs = batch_specs("china", "http", 1, trials=5)
        executor.run_batch(specs)
        stats = executor.last_stats
        assert stats.requested == 5
        assert stats.executed == 5
        assert stats.cache_hits == 0
        assert stats.wall_time > 0
        assert sum(stats.per_worker.values()) == 5
        assert 0.0 <= stats.utilization <= 1.0

    def test_total_stats_accumulate(self):
        executor = TrialExecutor(workers=1)
        specs = batch_specs("china", "http", 1, trials=3)
        executor.run_batch(specs)
        executor.run_batch(specs)
        assert executor.total_stats.requested == 6

    def test_stats_merge(self):
        a = RunStats(requested=2, executed=2, wall_time=1.0, busy_time=0.5,
                     workers=1, per_worker={"1": 2})
        b = RunStats(requested=3, executed=1, cache_hits=2, wall_time=1.0,
                     busy_time=0.25, workers=4, per_worker={"1": 1})
        a.merge(b)
        assert a.requested == 5
        assert a.executed == 3
        assert a.cache_hits == 2
        assert a.workers == 4
        assert a.per_worker == {"1": 3}

    def test_format_mentions_key_counters(self):
        executor = TrialExecutor(workers=1)
        executor.run_batch(batch_specs("china", "http", 1, trials=2))
        line = executor.last_stats.format()
        assert "trials=2" in line
        assert "cache_hits=0" in line

    def test_run_one_keep_trace_bypasses_cache(self, tmp_path):
        executor = TrialExecutor(cache=tmp_path)
        spec = batch_specs("china", "http", 1, trials=1)[0]
        with_trace = executor.run_one(spec, keep_trace=True)
        assert with_trace.trace is not None
        # The traced run must not have been served from or stored to disk.
        assert executor.cache.stats.stores == 0
        without = executor.run_one(spec)
        assert without.trace is None
        assert without.succeeded == with_trace.succeeded
