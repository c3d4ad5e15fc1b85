"""Cache-correctness tests: poisoning detection, bypass, and invariance.

The cache must be *transparent*: hits never change reported results, a
tampered file is detected by its content address and re-executed, and
disabling the cache really disables it. Every tampering scenario runs
against both on-disk layouts: the shape files the cache writes and the
per-entry files earlier versions wrote.
"""

import json
import os
import random

import pytest

from repro.core import deployed_strategy
from repro.eval import success_rate
from repro.eval.matrix import measure_censorship_matrix
from repro.eval.runner import TrialResult
from repro.runtime import (
    ResultCache,
    TrialExecutor,
    TrialSpec,
    resolve_cache,
    trial_seed,
)

from .cache_files import (
    reference_entry,
    shape_dir,
    shape_files,
    shape_key,
    write_entry,
    write_shape_file,
)

LAYOUTS = ["shape", "entry"]


def spec_for(seed):
    return TrialSpec.build("china", "http", deployed_strategy(1), seed=seed)


def stored_file(root, spec, layout):
    """Run ``spec`` and keep its result in ``layout``; returns the file."""
    result = spec.run()
    if layout == "shape":
        ResultCache(root).store(spec, result)
        [path] = shape_files(root, spec)
        return path
    return write_entry(root, spec, reference_entry(spec, result))


def outcome(result):
    """A result's cached fields, or ``None`` for a miss."""
    if result is None:
        return None
    return (result.outcome, result.succeeded, result.censored, result.detail)


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

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_poisoned_spec_key_detected(self, tmp_path, layout):
        spec = spec_for(3)
        path = stored_file(tmp_path, spec, layout)
        entry = json.loads(path.read_text())
        key = "shape" if layout == "shape" else "spec"
        entry[key] = entry[key].replace('"protocol":', '"protocol_":')
        path.write_text(json.dumps(entry))
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(spec) is None
        assert fresh.stats.poisoned == 1

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_poisoned_result_payload_detected(self, tmp_path, layout):
        spec = spec_for(3)
        path = stored_file(tmp_path, spec, layout)
        entry = json.loads(path.read_text())
        payload = entry["records"][0][1] if layout == "shape" else entry["result"]
        payload["succeeded"] = not payload["succeeded"]
        path.write_text(json.dumps(entry))
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(spec) is None
        assert fresh.stats.poisoned == 1

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_corrupt_json_is_a_miss(self, tmp_path, layout):
        spec = spec_for(4)
        path = stored_file(tmp_path, spec, layout)
        path.write_text("{not json")
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(spec) is None
        if layout == "shape":
            assert fresh.stats.poisoned == 1
            assert not path.exists()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_wrong_spec_under_right_hash_detected(self, tmp_path, layout):
        # A file renamed (or collided) to another address must not serve:
        # a per-entry file's key no longer hashes to its name, and a shape
        # file's (valid) bytes name another shape.
        spec_a = spec_for(5)
        if layout == "shape":
            spec_b = TrialSpec.build("china", "http", deployed_strategy(2), seed=5)
        else:
            spec_b = spec_for(6)
        path_a = stored_file(tmp_path, spec_a, layout)
        if layout == "shape":
            path_b = shape_dir(tmp_path, spec_b) / path_a.name
            path_b.parent.mkdir(parents=True)
            path_b.write_bytes(path_a.read_bytes())
        else:
            path_b = write_entry(tmp_path, spec_b, path_a.read_bytes())
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


def fake_result(spec):
    """A result that differs per spec, so a mix-up cannot go unnoticed."""
    ok = int(spec.spec_hash()[:2], 16) % 2 == 1
    return TrialResult(
        outcome="evaded" if ok else "censored", succeeded=ok, censored=not ok,
        detail=f"{spec.country}/{spec.protocol}/{spec.seed}/{sorted(spec.options)}",
        trace=None,
    )


class TestBatchLookup:
    def test_mixed_batch_matches_per_spec_lookups(self, tmp_path):
        strategy = deployed_strategy(1)
        drop_syn = "[TCP:flags:S]-drop-| \\/"

        def seeds(count):
            return [trial_seed(1, index) for index in range(count)]

        plain = [TrialSpec.build("china", "http", strategy, seed=s) for s in seeds(4)]
        with_options = [
            TrialSpec.build("china", "http", strategy, seed=s, client_os="windows-10")
            for s in seeds(3)
        ]
        impaired = [
            TrialSpec.build("iran", "dns", None, seed=s, impairment={"loss": 0.05})
            for s in seeds(3)
        ]
        client = [
            TrialSpec.build("kazakhstan", "https", None, seed=s, client_strategy=drop_syn)
            for s in seeds(3)
        ]
        # Loss-sweep trials pin a per-trial net_seed: each is its own shape.
        singletons = [
            TrialSpec.build(
                "china", "http", strategy, seed=s, impairment={"loss": 0.02},
                net_seed=100 + index,
            )
            for index, s in enumerate(seeds(4))
        ]
        never = [TrialSpec.build("india", "http", deployed_strategy(8), seed=s) for s in seeds(2)]

        writer = ResultCache(tmp_path)
        writer.store_many(plain[:3], [fake_result(s) for s in plain[:3]])
        for spec in with_options[:2]:  # one file per store batch
            writer.store_many([spec], [fake_result(spec)])
        writer.store_many(singletons[:2], [fake_result(s) for s in singletons[:2]])
        for spec in impaired[:2] + singletons[2:3]:  # left by an earlier version
            write_entry(tmp_path, spec, reference_entry(spec, fake_result(spec)))
        cache = ResultCache(tmp_path)
        cache.store_many(client[:2], [fake_result(s) for s in client[:2]])
        stored = plain[:3] + with_options[:2] + singletons[:3] + impaired[:2] + client[:2]

        every = plain + with_options + impaired + client + singletons + never
        batch = every + [plain[0], impaired[0], never[0], client[1], singletons[3]]
        random.Random(7).shuffle(batch)
        assert len(shape_files(tmp_path, with_options[0])) == 2

        got = cache.lookup_many(batch)
        fresh = ResultCache(tmp_path)
        expected = [fresh.lookup(spec) for spec in batch]
        assert [outcome(r) for r in got] == [outcome(r) for r in expected]
        truth = {spec.spec_hash(): outcome(fake_result(spec)) for spec in stored}
        assert [outcome(r) for r in got] == [truth.get(s.spec_hash()) for s in batch]
        assert cache.stats.hits + cache.stats.misses == len(batch)
        assert cache.stats.misses == sum(s.spec_hash() not in truth for s in batch)
        assert cache.stats.poisoned == fresh.stats.poisoned == 0

    def test_leftover_temp_file_is_neither_read_nor_poisoned(self, tmp_path):
        spec_a, spec_b = spec_for(1), spec_for(2)
        ResultCache(tmp_path).store(spec_a, fake_result(spec_a))
        [path] = shape_files(tmp_path, spec_a)
        # A writer that died before its rename leaves its temp file: one
        # beside the finished file, with garbage, and one holding a whole
        # file for a seed nothing published.
        garbage = path.with_name(f"{path.name}.{os.getpid() + 1}.tmp")
        garbage.write_text("{trunc")
        other = ResultCache(tmp_path / "other")
        other.store(spec_b, fake_result(spec_b))
        [whole] = shape_files(tmp_path / "other", spec_b)
        unpublished = path.with_name(f"{whole.name}.{os.getpid() + 2}.tmp")
        unpublished.write_bytes(whole.read_bytes())

        fresh = ResultCache(tmp_path)
        got = fresh.lookup_many([spec_a, spec_b])
        assert [outcome(r) for r in got] == [outcome(fake_result(spec_a)), None]
        assert fresh.stats.poisoned == 0
        assert garbage.exists() and unpublished.exists()

    def test_truncated_shape_file_is_poisoned_once_and_rerun(self, tmp_path):
        specs = [spec_for(trial_seed(3, index)) for index in range(8)]
        cold = TrialExecutor(cache=tmp_path)
        first = cold.run_batch(specs)
        [path] = shape_files(tmp_path, specs[0])
        body = path.read_bytes()
        path.write_bytes(body[: len(body) // 2])

        rerun = TrialExecutor(cache=tmp_path)
        again = rerun.run_batch(specs)
        assert rerun.last_stats.executed == len(specs)
        assert rerun.cache.stats.poisoned == 1
        assert [outcome(r) for r in again] == [outcome(r) for r in first]
        # The re-executed results are the same, so their file is too.
        assert shape_files(tmp_path, specs[0]) == [path]
        assert path.read_bytes() == body

        warm = TrialExecutor(cache=tmp_path)
        warm.run_batch(specs)
        assert warm.last_stats.executed == 0
        assert warm.cache.stats.poisoned == 0

    @pytest.mark.parametrize(
        "records",
        [
            [[1, 2]],
            [["7", {"outcome": "evaded"}]],
            [[True, {"outcome": "evaded"}]],
            [[7, {"succeeded": True}]],
            [[7, {"outcome": "evaded"}, 1]],
            {},
            None,
        ],
    )
    def test_malformed_records_are_poisoned_and_removed(self, tmp_path, records):
        spec = spec_for(7)
        body = {"shape": shape_key(spec)}
        if records is not None:
            body["records"] = records
        path = write_shape_file(tmp_path, spec, json.dumps(body))
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(spec) is None
        assert fresh.stats.poisoned == 1
        assert not path.exists()

    def test_deeply_nested_shape_file_is_poisoned_and_removed(self, tmp_path):
        spec = spec_for(7)
        path = write_shape_file(tmp_path, spec, "[" * 100_000 + "]" * 100_000)
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(spec) is None
        assert fresh.stats.poisoned == 1
        assert not path.exists()
