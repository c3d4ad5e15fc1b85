"""Pinned cache keys and file bytes, malformed files, concurrent writers.

The literal keys and addresses below are what every version of the cache
has used, and the per-entry bodies are what earlier versions wrote, one
file per trial. A warm cache from any earlier run must stay warm, so
none of them may change. The shape files pinned beside them are what the
cache writes now: one file per shape (a spec minus its seed) and store
batch.
"""

import multiprocessing

import pytest

from repro.eval.runner import TrialResult
from repro.runtime import ResultCache, TrialExecutor, TrialSpec

from .cache_files import (
    entry_path,
    reference_entry,
    reference_shape_file,
    shape_files,
    write_entry,
    write_shape_file,
)

STRATEGY_1 = (
    "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},"
    "tamper{TCP:flags:replace:S})-| \\/"
)
STRATEGY_8 = (
    "[TCP:flags:SA]-tamper{TCP:window:replace:10}"
    "(tamper{TCP:options-wscale:replace:},)-| "
    "[TCP:flags:A]-tamper{TCP:window:replace:10}-| "
    "[TCP:flags:PA]-tamper{TCP:window:replace:10}-| "
    "[TCP:flags:FA]-tamper{TCP:window:replace:10}-| \\/"
)


def plain_spec():
    return TrialSpec.build("china", "http", STRATEGY_1, seed=7)


def options_spec():
    return TrialSpec.build(
        "kazakhstan", "https", STRATEGY_8, seed=12345,
        client_strategy="[TCP:flags:S]-drop-| \\/",
        client_os="windows-10",
        workload={"host": "example.com", "tries": 2},
        ip_version=6,
    )


def impaired_spec():
    return TrialSpec.build(
        "iran", "dns", None, seed=3,
        impairment={"loss": 0.05, "jitter": 0.01}, net_seed=99,
    )


PINNED_KEYS = [
    (
        plain_spec,
        '{"client_strategy":null,"country":"china","options":{},'
        '"protocol":"http","seed":7,"server_strategy":"[TCP:flags:SA]-'
        'duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})'
        '-| \\\\/"}',
        "88af6b53f26a5af088901b367a004eac5958014ae26eeef6b7bb4d99ba2ff6d2",
    ),
    (
        options_spec,
        '{"client_strategy":"[TCP:flags:S]-drop-| \\\\/","country":"kazakhstan",'
        '"options":{"client_os":"windows-10","ip_version":6,"workload":'
        '{"host":"example.com","tries":2}},"protocol":"https","seed":12345,'
        '"server_strategy":"[TCP:flags:SA]-tamper{TCP:window:replace:10}'
        "(tamper{TCP:options-wscale:replace:},)-| "
        "[TCP:flags:A]-tamper{TCP:window:replace:10}-| "
        "[TCP:flags:PA]-tamper{TCP:window:replace:10}-| "
        '[TCP:flags:FA]-tamper{TCP:window:replace:10}-| \\\\/"}',
        "c010a66a08d258d42ebaedbe5a7cef799503515493f5338ecf625379bd1fbf54",
    ),
    (
        impaired_spec,
        '{"client_strategy":null,"country":"iran","impairment":'
        '{"jitter":0.01,"loss":0.05},"options":{"net_seed":99},'
        '"protocol":"dns","seed":3,"server_strategy":null}',
        "0de4cbdb057cee62539384389c2762d23f1a909d8187db481e74a1a89191e650",
    ),
]

PLAIN_RESULT = TrialResult(
    outcome="evaded", succeeded=True, censored=False, detail="GET ok", trace=None
)
PLAIN_ENTRY = (
    b'{"result": {"censored": false, "detail": "GET ok", "outcome": "evaded", '
    b'"succeeded": true}, "result_sha": '
    b'"75127644b24057aebcaf5925bb71daee5a9e44e0d60e87312f02777d3d99273c", '
    b'"spec": "{\\"client_strategy\\":null,\\"country\\":\\"china\\",'
    b'\\"options\\":{},\\"protocol\\":\\"http\\",\\"seed\\":7,'
    b'\\"server_strategy\\":\\"[TCP:flags:SA]-duplicate('
    b"tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| "
    b'\\\\\\\\/\\"}"}'
)

IMPAIRED_RESULT = TrialResult(
    outcome="censored", succeeded=False, censored=True, detail="rst é", trace=None
)
IMPAIRED_ENTRY = (
    b'{"result": {"censored": true, "detail": "rst \\u00e9", '
    b'"outcome": "censored", "succeeded": false}, "result_sha": '
    b'"f1341d4c9864be2d14bb3b6a8dc6a45d8306e5957e3236f8254520ac42958745", '
    b'"spec": "{\\"client_strategy\\":null,\\"country\\":\\"iran\\",'
    b'\\"impairment\\":{\\"jitter\\":0.01,\\"loss\\":0.05},'
    b'\\"options\\":{\\"net_seed\\":99},\\"protocol\\":\\"dns\\",'
    b'\\"seed\\":3,\\"server_strategy\\":null}"}'
)

PINNED_ENTRIES = [
    (plain_spec, PLAIN_RESULT, PLAIN_ENTRY),
    (impaired_spec, IMPAIRED_RESULT, IMPAIRED_ENTRY),
]

PLAIN_SHAPE_PATH = (
    "shapes/24/244e8d5ede9e937bf92540419da61bb202eec179a92208845e71e8c7fbc1249e/"
    "631a57c473d5b32be1e80ce42d4a825a2ed8e2c179eaee0faab5c7bf16ab1f32.json"
)
PLAIN_SHAPE_FILE = (
    b'{"records":[[7,{"censored":false,"detail":"GET ok","outcome":"evaded",'
    b'"succeeded":true}]],"shape":"{\\"client_strategy\\":null,'
    b'\\"country\\":\\"china\\",\\"options\\":{},\\"protocol\\":\\"http\\",'
    b'\\"server_strategy\\":\\"[TCP:flags:SA]-duplicate('
    b"tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| "
    b'\\\\\\\\/\\"}"}'
)

IMPAIRED_SHAPE_PATH = (
    "shapes/84/846ffacc743367599d18741ad0a39afdf2acaadc3ece4bfc2bca34ffb7d10601/"
    "e0b7c13caf0b9dc202e2a558c33eddaec4c1cf60318988b0a95a6fe915c1b76e.json"
)
IMPAIRED_SHAPE_FILE = (
    b'{"records":[[3,{"censored":true,"detail":"rst \\u00e9",'
    b'"outcome":"censored","succeeded":false}]],"shape":"{\\"client_strategy\\":null,'
    b'\\"country\\":\\"iran\\",\\"impairment\\":{\\"jitter\\":0.01,'
    b'\\"loss\\":0.05},\\"options\\":{\\"net_seed\\":99},'
    b'\\"protocol\\":\\"dns\\",\\"server_strategy\\":null}"}'
)

PINNED_SHAPE_FILES = [
    (plain_spec, PLAIN_RESULT, PLAIN_SHAPE_PATH, PLAIN_SHAPE_FILE),
    (impaired_spec, IMPAIRED_RESULT, IMPAIRED_SHAPE_PATH, IMPAIRED_SHAPE_FILE),
]

#: JSON that parses, but not to an object.
NON_OBJECTS = ["null", "[1, 2]", "7", '"x"']


class TestPinnedKeys:
    @pytest.mark.parametrize("make, key, digest", PINNED_KEYS)
    def test_canonical_key_and_hash_are_pinned(self, make, key, digest):
        spec = make()
        assert spec.canonical_key() == key
        assert spec.spec_hash() == digest


class TestPinnedEntryBytes:
    @pytest.mark.parametrize("make, result, path, body", PINNED_SHAPE_FILES)
    def test_store_writes_the_pinned_bytes(self, tmp_path, make, result, path, body):
        spec = make()
        ResultCache(tmp_path).store(spec, result)
        written = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert [p.relative_to(tmp_path).as_posix() for p in written] == [path]
        assert (tmp_path / path).read_bytes() == body
        assert body == reference_shape_file(spec, [(spec.seed, result)])

    @pytest.mark.parametrize("make, result, body", PINNED_ENTRIES)
    def test_earlier_entry_bytes_are_the_reference(self, make, result, body):
        assert body == reference_entry(make(), result)

    @pytest.mark.parametrize("make, result, body", PINNED_ENTRIES)
    def test_earlier_entry_is_served(self, tmp_path, make, result, body):
        spec = make()
        path = entry_path(tmp_path, spec)
        path.parent.mkdir(parents=True)
        path.write_bytes(body)
        cache = ResultCache(tmp_path)
        hit = cache.lookup(spec)
        assert hit is not None
        assert (hit.outcome, hit.succeeded, hit.censored, hit.detail) == (
            result.outcome, result.succeeded, result.censored, result.detail,
        )
        assert cache.stats.hits == 1
        assert cache.stats.poisoned == 0

    @pytest.mark.parametrize("layout", ["shape", "entry"])
    def test_entry_over_64_kib_round_trips(self, tmp_path, layout):
        spec = plain_spec()
        detail = "".join(f"packet {i} é\n" for i in range(8000))
        assert len(detail) > 64 * 1024
        result = TrialResult(
            outcome="evaded", succeeded=True, censored=False, detail=detail,
            trace=None,
        )
        if layout == "shape":
            ResultCache(tmp_path).store(spec, result)
            [path] = shape_files(tmp_path, spec)
            assert path.read_bytes() == reference_shape_file(spec, [(spec.seed, result)])
        else:
            path = write_entry(tmp_path, spec, reference_entry(spec, result))
        assert path.stat().st_size > 64 * 1024
        fresh = ResultCache(tmp_path)
        hit = fresh.lookup(spec)
        assert hit is not None and hit.detail == detail
        assert fresh.stats.poisoned == 0


def _served_fresh(directory, spec, result):
    """A fresh cache on ``directory`` serves ``result`` for ``spec``."""
    fresh = ResultCache(directory)
    hit = fresh.lookup(spec)
    assert hit is not None
    assert (hit.outcome, hit.succeeded, hit.censored, hit.detail) == (
        result.outcome, result.succeeded, result.censored, result.detail,
    )
    assert fresh.stats.poisoned == 0


class TestNonObjectEntries:
    @pytest.mark.parametrize("body", NON_OBJECTS)
    def test_non_object_entry_is_poisoned_and_rerun(self, tmp_path, body):
        spec = TrialSpec.build("china", "http", STRATEGY_1, seed=11)
        write_entry(tmp_path, spec, body)

        fresh = ResultCache(tmp_path)
        assert fresh.lookup(spec) is None
        assert fresh.stats.poisoned == 1

        executor = TrialExecutor(cache=tmp_path)
        [result] = executor.run_batch([spec])
        assert executor.last_stats.executed == 1
        assert executor.cache.stats.poisoned == 1
        _served_fresh(tmp_path, spec, result)

    @pytest.mark.parametrize("body", NON_OBJECTS)
    def test_non_object_shape_file_is_poisoned_removed_and_rerun(self, tmp_path, body):
        spec = TrialSpec.build("china", "http", STRATEGY_1, seed=11)
        path = write_shape_file(tmp_path, spec, body)

        fresh = ResultCache(tmp_path)
        assert fresh.lookup(spec) is None
        assert fresh.stats.poisoned == 1
        assert not path.exists()

        executor = TrialExecutor(cache=tmp_path)
        [result] = executor.run_batch([spec])
        assert executor.last_stats.executed == 1
        assert executor.cache.stats.poisoned == 0
        _served_fresh(tmp_path, spec, result)


def _write_rounds(directory, rounds, seeds):
    for _ in range(rounds):
        cache = ResultCache(directory)
        for seed in seeds:
            spec = TrialSpec.build("china", "http", STRATEGY_1, seed=seed)
            cache.store(spec, _result_for(seed))


def _result_for(seed):
    return TrialResult(
        outcome="evaded" if seed % 2 else "censored",
        succeeded=bool(seed % 2),
        censored=not seed % 2,
        detail=f"seed {seed} " * (1 + seed % 7),
        trace=None,
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_concurrent_writers_of_one_digest(tmp_path):
    seeds = list(range(20))
    context = multiprocessing.get_context("fork")
    writers = [
        context.Process(target=_write_rounds, args=(str(tmp_path), 150, seeds))
        for _ in range(3)
    ]
    for writer in writers:
        writer.start()
    try:
        for writer in writers:
            writer.join(timeout=120)
    finally:
        for writer in writers:
            if writer.is_alive():
                writer.terminate()
    assert [writer.is_alive() for writer in writers] == [False] * 3
    assert [writer.exitcode for writer in writers] == [0] * 3

    fresh = ResultCache(tmp_path)
    for seed in seeds:
        spec = TrialSpec.build("china", "http", STRATEGY_1, seed=seed)
        hit = fresh.lookup(spec)
        assert hit is not None
        assert hit.detail == _result_for(seed).detail
    assert fresh.stats.hits == len(seeds)
    assert fresh.stats.poisoned == 0
    assert sorted(p.suffix for p in tmp_path.rglob("*") if p.is_file()) == (
        [".json"] * len(seeds)
    )
