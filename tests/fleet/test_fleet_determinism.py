"""Determinism properties of fleet runs.

Same seed ⇒ byte-identical :class:`FleetStats` JSON artifact and metric
snapshot, no matter how the run is executed: repeated, sharded across
worker counts, or with and without arena leases. Plus hypothesis
properties for flow-table isolation: any subset of a run's flow plans,
simulated alone, reproduces exactly the per-flow records those flows had
in the full world.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetMixEntry, FleetSpec, FleetWorld, run_fleet
from repro.obs.metrics import collecting

SMALL_SPEC = FleetSpec(clients=24, seed=5, spacing=0.3)
#: Dense enough that serial and 2-worker runs finalize flows in different
#: orders, which changed the latency histogram's float sum when it was
#: observed at finalize time.
METRICS_SPEC = FleetSpec(clients=12, seed=7, spacing=0.05)


@pytest.fixture(scope="module")
def small_run():
    return run_fleet(SMALL_SPEC)


class TestArtifactDeterminism:
    def test_repeat_is_byte_identical(self, small_run):
        again = run_fleet(SMALL_SPEC)
        assert again.stats.to_json() == small_run.stats.to_json()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_is_byte_identical(self, small_run, workers):
        sharded = run_fleet(SMALL_SPEC, workers=workers)
        assert sharded.stats.to_json() == small_run.stats.to_json()

    def test_trace_mode_leaves_the_artifact_identical(self, small_run):
        """Trace mode ``none`` leases packets from the shared arena, ``ring``
        allocates per flow; apart from the mode itself, the artifacts are
        byte-identical."""
        ringed = run_fleet(replace(SMALL_SPEC, trace="ring"))
        assert ringed.records == small_run.records
        assert ringed.stats.to_json() == small_run.stats.to_json().replace(
            '"trace": "none"', '"trace": "ring"'
        )

    def test_metric_snapshot_is_worker_count_independent(self):
        """Float sums (the latency histogram's) are added in one order."""
        snapshots = []
        for workers in (1, 2):
            with collecting() as registry:
                run_fleet(METRICS_SPEC, workers=workers)
            snapshots.append(registry.snapshot())
        assert snapshots[0] == snapshots[1]

    def test_poisson_arrivals_deterministic(self):
        spec = FleetSpec(clients=12, seed=3, rate=5.0)
        first = run_fleet(spec)
        second = run_fleet(spec)
        assert first.stats.to_json() == second.stats.to_json()
        arrivals = [r["arrival"] for r in first.records]
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == len(arrivals)

    def test_different_seeds_differ(self, small_run):
        other = run_fleet(FleetSpec(clients=24, seed=6, spacing=0.3))
        assert other.stats.to_json() != small_run.stats.to_json()


class TestFlowIsolation:
    """A flow's record is a pure function of its plan."""

    @given(st.sets(st.integers(0, 23), min_size=1, max_size=6))
    @settings(max_examples=10, deadline=None)
    def test_subset_world_reproduces_records(self, indices):
        full = run_fleet(SMALL_SPEC)
        plans = SMALL_SPEC.flow_plans()
        subset = [plans[i] for i in sorted(indices)]
        world = FleetWorld(SMALL_SPEC, plans=subset)
        records = world.run()
        expected = [full.records[i] for i in sorted(indices)]
        assert records == expected

    @given(st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=8, deadline=None)
    def test_spacing_only_shifts_arrivals(self, spacing):
        """Arrival interleaving never changes a flow's verdict."""
        spec = FleetSpec(clients=8, seed=5, spacing=spacing)
        baseline = FleetSpec(clients=8, seed=5, spacing=0.3)

        def strip(record):
            clean = dict(record)
            clean.pop("arrival")
            return clean

        got = [strip(r) for r in run_fleet(spec).records]
        want = [strip(r) for r in run_fleet(baseline).records]
        assert got == want


class TestSpecValidation:
    def test_rejects_zero_clients(self):
        with pytest.raises(ValueError):
            FleetSpec(clients=0)

    def test_rejects_unknown_country(self):
        with pytest.raises(ValueError):
            FleetSpec(mix=(FleetMixEntry("atlantis", "http"),))

    def test_rejects_uncensored_pair(self):
        with pytest.raises(ValueError):
            FleetSpec(mix=(FleetMixEntry("india", "smtp"),))

    def test_rejects_bad_trace_mode(self):
        with pytest.raises(ValueError):
            FleetSpec(trace="pcap")

    def test_client_ips_unique_across_run(self):
        plans = FleetSpec(clients=600, spacing=0.0).flow_plans()
        ips = [plan.client_ip for plan in plans]
        assert len(set(ips)) == len(ips)
