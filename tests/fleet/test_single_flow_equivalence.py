"""Differential harness: a one-flow fleet world == the classic Trial path.

The fleet layer's design contract is that for a world containing exactly
one flow arriving at t=0, every event — timestamps, RNG draws, verdicts,
and the full wire-level trace digest — is bit-identical to running
``Trial(country, protocol, None, seed=...)`` with the same per-client
strategy engine installed on its dedicated server. This suite pins that
for every (country, protocol) pair from Table 1 plus the uncensored
cohort.
"""

from __future__ import annotations

import pytest

from repro.censors import COUNTRIES
from repro.deploy import install_per_client
from repro.eval.runner import Trial, trial_rngs
from repro.fleet import (
    FleetMixEntry,
    FleetSpec,
    FleetWorld,
    fleet_selector,
    flow_client_ip,
)
from repro.runtime import trial_seed

ALL_PAIRS = [
    (country, protocol)
    for country in sorted(COUNTRIES)
    for protocol in COUNTRIES[country].protocols
] + [(None, "http"), (None, "https")]

FLEET_SEED = 1234


def run_fleet_single(country, protocol, fleet_seed=FLEET_SEED, trace="full"):
    """One-client fleet world (full trace capture by default); returns its
    record."""
    spec = FleetSpec(
        clients=1,
        seed=fleet_seed,
        mix=(FleetMixEntry(country, protocol),),
        trace=trace,
    )
    world = FleetWorld(spec)
    records = world.run()
    assert len(records) == 1
    return records[0]


def run_trial_baseline(country, protocol, fleet_seed=FLEET_SEED, capture_trace=True):
    """The classic per-connection path for fleet flow 0 of the same seed."""
    seed = trial_seed(fleet_seed, 0)
    rngs = trial_rngs(seed)
    trial = Trial(
        country,
        protocol,
        None,
        seed=seed,
        client_ip=flow_client_ip(country, 0),
        capture_trace=capture_trace,
    )
    install_per_client(trial.server_host, fleet_selector(), protocol, rngs.strategy)
    return trial.run()


@pytest.mark.parametrize(
    "country,protocol", ALL_PAIRS, ids=[f"{c or 'none'}-{p}" for c, p in ALL_PAIRS]
)
def test_single_flow_matches_trial(country, protocol):
    record = run_fleet_single(country, protocol)
    result = run_trial_baseline(country, protocol)

    assert record["outcome"] == result.outcome
    assert record["succeeded"] == result.succeeded
    assert record["censored"] == result.censored
    assert record["trace_digest"] == result.trace.digest()


@pytest.mark.parametrize("country,protocol", [("china", "http"), ("iran", "https")])
def test_leased_single_flow_matches_pooled_trial(country, protocol):
    """Trace mode ``none`` leases the flow's packets from the shared arena;
    its verdict still matches a pooled, trace-free Trial's."""
    record = run_fleet_single(country, protocol, trace="none")
    result = run_trial_baseline(country, protocol, capture_trace=False)
    assert record["outcome"] == result.outcome
    assert record["succeeded"] == result.succeeded
    assert record["censored"] == result.censored


@pytest.mark.parametrize("country,protocol", [("china", "https"), ("kazakhstan", "http")])
def test_single_flow_record_is_trace_mode_invariant(country, protocol):
    """Leased (``none``), ring and full runs of the flow agree on every
    record field; only ``full`` fills in the trace digest."""
    full = run_fleet_single(country, protocol)
    assert full["trace_digest"] is not None
    for mode in ("none", "ring"):
        record = run_fleet_single(country, protocol, trace=mode)
        assert record["trace_digest"] is None
        assert {**record, "trace_digest": full["trace_digest"]} == full


def test_single_flow_equivalence_across_seeds():
    """Equivalence is not a one-seed fluke: spot-check several seeds."""
    for fleet_seed in (0, 7, 99):
        record = run_fleet_single("china", "http", fleet_seed=fleet_seed)
        result = run_trial_baseline("china", "http", fleet_seed=fleet_seed)
        assert record["trace_digest"] == result.trace.digest()
        assert record["outcome"] == result.outcome
