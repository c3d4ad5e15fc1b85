"""Cache-correctness tests: poisoning detection, bypass, and invariance.

The cache must be *transparent*: hits never change reported results, a
tampered entry is detected by its content address and re-executed, and
disabling the cache really disables it.
"""

import json
from pathlib import Path

import pytest

from repro.core import deployed_strategy
from repro.eval import success_rate
from repro.eval.matrix import measure_censorship_matrix
from repro.runtime import ResultCache, TrialExecutor, TrialSpec, resolve_cache


def spec_for(seed):
    return TrialSpec.build("china", "http", deployed_strategy(1), seed=seed)


class TestResultCache:
    def test_memory_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for(1)
        assert cache.lookup(spec) is None
        result = spec.run()
        cache.store(spec, result)
        hit = cache.lookup(spec)
        assert hit is not None
        assert hit.succeeded == result.succeeded
        assert hit.outcome == result.outcome

    def test_disk_round_trip_across_instances(self, tmp_path):
        spec = spec_for(2)
        ResultCache(tmp_path).store(spec, spec.run())
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(spec) is not None
        assert fresh.stats.hits == 1

    def test_memory_lru_evicts(self):
        cache = ResultCache(max_memory_items=2)
        specs = [spec_for(seed) for seed in range(3)]
        for spec in specs:
            cache.store(spec, spec.run())
        # Oldest entry evicted; newer two retained (no disk layer).
        assert cache.lookup(specs[0]) is None
        assert cache.lookup(specs[1]) is not None
        assert cache.lookup(specs[2]) is not None

    def test_poisoned_spec_key_detected(self, tmp_path):
        spec = spec_for(3)
        cache = ResultCache(tmp_path)
        cache.store(spec, spec.run())
        path = Path(cache._disk_path(spec.spec_hash()))
        entry = json.loads(path.read_text())
        entry["spec"] = entry["spec"].replace('"seed":', '"seed_":')
        path.write_text(json.dumps(entry))
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(spec) is None
        assert fresh.stats.poisoned == 1

    def test_poisoned_result_payload_detected(self, tmp_path):
        spec = spec_for(3)
        cache = ResultCache(tmp_path)
        cache.store(spec, spec.run())
        path = Path(cache._disk_path(spec.spec_hash()))
        entry = json.loads(path.read_text())
        entry["result"]["succeeded"] = not entry["result"]["succeeded"]
        path.write_text(json.dumps(entry))
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(spec) is None
        assert fresh.stats.poisoned == 1

    def test_corrupt_json_is_a_miss(self, tmp_path):
        spec = spec_for(4)
        cache = ResultCache(tmp_path)
        cache.store(spec, spec.run())
        Path(cache._disk_path(spec.spec_hash())).write_text("{not json")
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(spec) is None

    def test_wrong_spec_under_right_hash_detected(self, tmp_path):
        # A file renamed (or collided) to another spec's address must not
        # serve: the stored key no longer hashes to the file name.
        spec_a, spec_b = spec_for(5), spec_for(6)
        cache = ResultCache(tmp_path)
        cache.store(spec_a, spec_a.run())
        path_a = Path(cache._disk_path(spec_a.spec_hash()))
        path_b = Path(cache._disk_path(spec_b.spec_hash()))
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_text(path_a.read_text())
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(spec_b) is None
        assert fresh.stats.poisoned == 1

    def test_resolve_cache_forms(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(str(tmp_path)).directory == tmp_path
        cache = ResultCache(tmp_path)
        assert resolve_cache(cache) is cache
        with pytest.raises(TypeError):
            resolve_cache(42)


class TestCacheTransparency:
    def test_hits_never_change_success_rates(self, tmp_path):
        kwargs = dict(trials=15, seed=7)
        cold = success_rate("china", "http", deployed_strategy(1), **kwargs)
        executor = TrialExecutor(cache=tmp_path)
        warm_miss = success_rate(
            "china", "http", deployed_strategy(1), executor=executor, **kwargs
        )
        warm_hit = success_rate(
            "china", "http", deployed_strategy(1), executor=executor, **kwargs
        )
        assert cold == warm_miss == warm_hit
        assert executor.last_stats.cache_hits == 15
        assert executor.last_stats.executed == 0

    def test_no_cache_bypasses_the_store(self, tmp_path):
        executor = TrialExecutor(cache=tmp_path)
        success_rate(
            "china", "http", deployed_strategy(1), trials=5, seed=1,
            executor=executor,
        )
        uncached = TrialExecutor(cache=None)
        success_rate(
            "china", "http", deployed_strategy(1), trials=5, seed=1,
            executor=uncached,
        )
        assert uncached.last_stats.cache_hits == 0
        assert uncached.last_stats.executed == 5

    def test_second_matrix_run_executes_nothing(self, tmp_path):
        """Acceptance criterion: with the disk cache enabled, an identical
        matrix run performs zero new trial executions."""
        first = TrialExecutor(cache=tmp_path)
        entries_first = measure_censorship_matrix(probes=2, executor=first)
        assert first.last_stats.executed > 0

        second = TrialExecutor(cache=tmp_path)  # fresh process-level state
        entries_second = measure_censorship_matrix(probes=2, executor=second)
        assert second.last_stats.executed == 0
        assert second.last_stats.cache_hits == second.last_stats.requested
        assert [
            (e.country, e.protocol, e.censored) for e in entries_first
        ] == [(e.country, e.protocol, e.censored) for e in entries_second]
