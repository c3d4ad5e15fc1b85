"""Differential harness: the impairment layer must be invisible when off.

Two guarantees, checked over every (country, protocol) pair the paper
evaluates:

1. **Null-policy bit-identity** — a trial run with ``Impairment.none()``
   (or its dict form ``{}``) produces a trace byte-identical to a trial
   that never heard of impairment. The unimpaired simulator is the
   pre-impairment simulator, not merely statistically similar to it.
2. **Seeded replay** — an impaired trial is a pure function of
   ``(seed, policy, net_seed)``: running it twice yields byte-identical
   traces, censorship decisions included.
"""

import pytest

from repro.censors import COUNTRIES
from repro.core import deployed_strategy
from repro.eval.runner import run_trial
from repro.netsim import Impairment

ALL_PAIRS = [
    (country, protocol)
    for country in sorted(COUNTRIES)
    for protocol in COUNTRIES[country].protocols
]

#: A working strategy per country, so the differential also covers the
#: strategy engines' interaction with the network layer.
STRATEGY_BY_COUNTRY = {"china": 1, "india": 8, "iran": 8, "kazakhstan": 11}


def _digest(country, protocol, seed, **kwargs):
    result = run_trial(country, protocol, None, seed=seed, **kwargs)
    return result.trace.digest(), result.outcome


@pytest.mark.parametrize("country,protocol", ALL_PAIRS)
class TestNullPolicyBitIdentity:
    def test_none_policy_matches_no_policy(self, country, protocol):
        base_digest, base_outcome = _digest(country, protocol, seed=5)
        null_digest, null_outcome = _digest(
            country, protocol, seed=5, impairment=Impairment.none()
        )
        assert null_digest == base_digest
        assert null_outcome == base_outcome

    def test_empty_dict_matches_no_policy(self, country, protocol):
        base_digest, _ = _digest(country, protocol, seed=6)
        dict_digest, _ = _digest(country, protocol, seed=6, impairment={})
        assert dict_digest == base_digest

    def test_zero_knobs_match_no_policy(self, country, protocol):
        """Explicit zeros (what a CLI invocation without flags builds)
        are the null policy too."""
        base_digest, _ = _digest(country, protocol, seed=7)
        zeros_digest, _ = _digest(
            country,
            protocol,
            seed=7,
            impairment=Impairment(loss=0.0, dup=0.0, reorder=0.0),
        )
        assert zeros_digest == base_digest


@pytest.mark.parametrize("country,protocol", ALL_PAIRS)
class TestImpairedReplay:
    def test_same_net_seed_reproduces_trace(self, country, protocol):
        policy = {"loss": 0.08, "dup": 0.05, "reorder": 0.05}
        first = run_trial(
            country, protocol, None, seed=5, impairment=policy, net_seed=1
        )
        second = run_trial(
            country, protocol, None, seed=5, impairment=policy, net_seed=1
        )
        assert first.trace.digest() == second.trace.digest()
        assert first.outcome == second.outcome
        assert first.censored == second.censored

    def test_default_net_stream_is_deterministic_too(self, country, protocol):
        """Without an explicit net_seed the stream splits from the trial
        seed — still a pure function of the spec."""
        policy = {"loss": 0.08}
        first = run_trial(country, protocol, None, seed=9, impairment=policy)
        second = run_trial(country, protocol, None, seed=9, impairment=policy)
        assert first.trace.digest() == second.trace.digest()


@pytest.mark.parametrize("country", sorted(STRATEGY_BY_COUNTRY))
class TestStrategiesUnderNullPolicy:
    def test_strategy_trial_bit_identical(self, country):
        number = STRATEGY_BY_COUNTRY[country]
        protocol = "https" if country == "iran" else "http"
        strategy = deployed_strategy(number)
        base = run_trial(country, protocol, strategy, seed=3)
        null = run_trial(
            country, protocol, strategy, seed=3, impairment=Impairment.none()
        )
        assert null.trace.digest() == base.trace.digest()
        assert null.succeeded == base.succeeded
