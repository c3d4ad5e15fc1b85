"""Differential trace harness: rate-only and traced trials must be twins.

A rate-only trial (``spec.run(keep_trace=False)``) records into a
``NullTrace`` and recycles its packets through the arena; a traced one
(``keep_trace=True``) records every event into a ``Trace`` and allocates
freely. Trace capture is the only knob that picks between the two, and it
is only admissible because it is invisible: every country x protocol pair
must produce the identical verdict either way, and the spec's cache key
and cache entries must not depend on it. The traced path itself is pinned
end to end by the golden traces (``tests/golden``), and here against the
per-link walk: an unimpaired trial crosses runs of inert padding hops in
one event, and its trace must be bit-identical to the one the hop-by-hop
walk (the walk impaired paths take) records.
"""

import pytest

from repro.core import SERVER_STRATEGIES, deployed_strategy
from repro.eval.runner import Trial
from repro.obs.runlog import RunLog, activate
from repro.runtime import ResultCache, TrialExecutor, TrialSpec, trial_seed

COUNTRIES = ["china", "india", "iran", "kazakhstan", None]
PROTOCOLS = ["dns", "ftp", "http", "https", "smtp"]
PAIRS = [(c, p) for c in COUNTRIES for p in PROTOCOLS]

# A verdict-diverse strategy sample: the first few deployed strategies.
STRATEGY_NUMBERS = sorted(SERVER_STRATEGIES)[:4]


def _run_both(spec):
    """Run ``spec`` rate-only (pooled), then traced; return both results."""
    return spec.run(keep_trace=False), spec.run(keep_trace=True)


def _run_walks(spec, server_strategy=None):
    """Run ``spec`` traced as every unimpaired trial runs (inert hops
    coalesced), then through the per-link walk; return both results."""
    coalesced = spec.run(keep_trace=True)
    trial = Trial(spec.country, spec.protocol, server_strategy, seed=spec.seed)
    trial.network._coalesce = False
    return coalesced, trial.run()


def _assert_same_verdict(pooled, traced, label):
    assert pooled.succeeded == traced.succeeded, label
    assert pooled.censored == traced.censored, label
    assert pooled.outcome == traced.outcome, label
    assert pooled.detail == traced.detail, label


class TestVerdictEquivalence:
    @pytest.mark.parametrize("country,protocol", PAIRS)
    def test_baseline_matrix(self, country, protocol):
        """No strategy: every pair verdict-identical with and without a trace."""
        for index in range(3):
            spec = TrialSpec.build(
                country, protocol, seed=trial_seed(11, index)
            )
            pooled, traced = _run_both(spec)
            _assert_same_verdict(pooled, traced, f"{country}/{protocol}#{index}")
            assert len(traced.trace) > 0

    @pytest.mark.parametrize("number", STRATEGY_NUMBERS)
    @pytest.mark.parametrize("protocol", ["http", "smtp"])
    def test_strategy_matrix(self, number, protocol):
        """Deployed strategies: the tampered path is equivalence-checked
        against every censor (strategies stress the serializer patches
        and the recycled packet trios)."""
        strategy = deployed_strategy(number)
        for country in COUNTRIES:
            for index in range(2):
                spec = TrialSpec.build(
                    country,
                    protocol,
                    server_strategy=strategy,
                    seed=trial_seed(13, index),
                )
                pooled, traced = _run_both(spec)
                _assert_same_verdict(pooled, traced, f"strategy{number}@{country}")

    def test_client_strategy_equivalence(self):
        from repro.core import CLIENT_SIDE_STRATEGIES, client_side_strategy

        name = sorted(CLIENT_SIDE_STRATEGIES)[0]
        spec = TrialSpec.build(
            "china",
            "http",
            client_strategy=client_side_strategy(name),
            seed=trial_seed(17, 0),
        )
        pooled, traced = _run_both(spec)
        _assert_same_verdict(pooled, traced, f"client:{name}")


class TestTraceEquivalence:
    """The coalesced walk's trace is bit-identical to the per-link walk's
    (the digest covers timestamps, event kinds, and exact wire bytes)."""

    @pytest.mark.parametrize("country,protocol", [
        ("china", "http"), ("china", "smtp"), ("china", "dns"),
        ("iran", "https"), ("india", "http"), ("kazakhstan", "https"),
        (None, "http"),
    ])
    def test_trace_digest_identical(self, country, protocol):
        spec = TrialSpec.build(country, protocol, seed=trial_seed(19, 0))
        coalesced, per_link = _run_walks(spec)
        assert len(coalesced.trace) > 0
        assert coalesced.trace.digest() == per_link.trace.digest()
        _assert_same_verdict(coalesced, per_link, f"{country}/{protocol}")

    def test_trace_digest_identical_with_strategy(self):
        strategy = deployed_strategy(STRATEGY_NUMBERS[0])
        spec = TrialSpec.build(
            "china", "smtp", server_strategy=strategy, seed=trial_seed(19, 1)
        )
        coalesced, per_link = _run_walks(spec, strategy)
        assert coalesced.trace.digest() == per_link.trace.digest()


class TestTraceCapture:
    def test_rate_only_trials_drop_the_trace(self):
        spec = TrialSpec.build("china", "http", seed=trial_seed(19, 2))
        assert spec.run(keep_trace=False).trace is None


class TestCacheKeyStability:
    def test_spec_hash_is_execution_stable(self):
        """Running a trial, with or without a trace, must not perturb its
        canonical form: the hash is unchanged by running it."""
        for country, protocol, extra in [
            ("china", "smtp", {}),
            ("iran", "dns", {"workload": {"qname": "youtube.com"}}),
        ]:
            spec = TrialSpec.build(
                country, protocol,
                server_strategy=deployed_strategy(STRATEGY_NUMBERS[0]),
                seed=trial_seed(23, 0),
                **extra,
            )
            before = spec.canonical_key()
            _run_both(spec)
            assert spec.canonical_key() == before

    def test_capture_trace_never_enters_the_options(self):
        """``capture_trace`` is a run-time detail, not a spec field — it
        must not leak into ``options`` (and thus the cache key)."""
        spec = TrialSpec.build("china", "http", seed=trial_seed(23, 1))
        spec.run()
        assert "capture_trace" not in spec.options

    def test_executor_cache_hits_across_trace_capture(self, tmp_path):
        """Results cached by traced trials (an active run log makes every
        trial record its trace) are served to rate-only runs of the same
        specs, with the verdicts a rate-only run computes itself."""
        specs = [
            TrialSpec.build("china", "smtp", seed=trial_seed(29, i))
            for i in range(4)
        ]
        cache = ResultCache(tmp_path / "cache")
        with activate(RunLog()):
            traced_exec = TrialExecutor(workers=1, cache=cache)
            traced_exec.run_batch(specs)
        assert traced_exec.last_stats.cold == len(specs)
        warm_exec = TrialExecutor(workers=1, cache=cache)
        warm = warm_exec.run_batch(specs)
        assert warm_exec.last_stats.warm == len(specs)
        for spec, served in zip(specs, warm):
            pooled = spec.run(keep_trace=False)
            assert served.succeeded == pooled.succeeded
            assert served.outcome == pooled.outcome
