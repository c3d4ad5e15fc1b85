"""Unit tests for the fleet world: recycling, routing, traces, stats."""

from __future__ import annotations

import json

from repro.fleet import (
    DEFAULT_MIX,
    FleetMixEntry,
    FleetSpec,
    FleetStats,
    FleetWorld,
    flow_client_ip,
    percentile,
    run_fleet,
)
from repro.netsim import RingTrace
from repro.obs.metrics import collecting


def small_world(**overrides):
    defaults = dict(clients=6, seed=2, spacing=0.5)
    defaults.update(overrides)
    return FleetWorld(FleetSpec(**defaults))


class TestRecycling:
    def test_all_flows_recycled_after_run(self):
        world = small_world()
        world.run()
        assert world.recycled == 6
        assert world.active_flows == 0
        assert len(world.router) == 0
        assert world.engine.decisions == {}
        assert world.server_host.endpoints() == []

    def test_overlapping_flows_coexist(self):
        """With arrivals closer than a flow's run time, flows overlap live.

        Flows retire when their last event drains (about a second for
        most), not at ``max_time``, so only the ones still busy overlap.
        """
        peak = 0

        def watch(world, record):
            nonlocal peak
            peak = max(peak, world.active_flows)

        result = run_fleet(
            FleetSpec(clients=8, seed=2, spacing=0.5), on_flow_done=watch
        )
        assert len(result.records) == 8
        assert peak > 1

    def test_arena_lease_reuse_across_flows(self):
        # Sequential flows (spacing > max_time): each flow drains and
        # reclaims its lease before the next arrives, so later flows draw
        # recycled trios from the shared free list instead of allocating.
        world = small_world(trace="none", spacing=4.0, max_time=3.0)
        assert world._use_leases
        world.run()
        assert world.arena.reused > 0
        assert world.arena.created > 0
        assert len(world.arena._live) == 0

    def test_overlapping_flows_reclaim_to_shared_free_list(self):
        world = small_world(trace="none")
        assert world._use_leases
        world.run()
        # Flows overlap here, so trios are reclaimed only as flows
        # drain — but all of them land back on the arena.
        assert world.arena.created > 0
        assert len(world.arena) == world.arena.created
        assert len(world.arena._live) == 0

    def test_no_leases_when_tracing(self):
        world = small_world(trace="full")
        assert not world._use_leases
        world.run()
        assert world.arena.created == 0


class TestTraceModes:
    def test_ring_trace_bounded(self):
        world = FleetWorld(
            FleetSpec(clients=3, seed=2, spacing=0.5, trace="ring", ring_events=16),
            keep_traces=True,
        )
        world.run()
        assert world.traces
        for trace in world.traces.values():
            assert isinstance(trace, RingTrace)
            assert len(trace.events) <= 16
            assert trace.dropped > 0  # a full trial has far more events

    def test_full_trace_digest_present(self):
        world = small_world(trace="full")
        records = world.run()
        assert all(r["trace_digest"] for r in records)

    def test_no_trace_means_no_digest(self):
        records = small_world(trace="none").run()
        assert all(r["trace_digest"] is None for r in records)


class TestRecords:
    def test_records_sorted_and_complete(self):
        records = small_world().run()
        assert [r["flow"] for r in records] == list(range(6))
        for record in records:
            assert record["client_ip"] == flow_client_ip(
                None if record["country"] == "none" else record["country"],
                record["flow"],
            )
            assert record["outcome"]

    def test_uncensored_cohort_never_marked_censored(self):
        spec = FleetSpec(clients=5, seed=1, mix=(FleetMixEntry(None, "http"),))
        records = FleetWorld(spec).run()
        assert all(not r["censored"] for r in records)
        assert all(r["strategy"] is None for r in records)

    def test_metrics_emitted_under_collection(self):
        with collecting() as registry:
            run_fleet(FleetSpec(clients=4, seed=2, spacing=0.5))
        names = set(registry.snapshot())
        assert "repro_fleet_flows_total" in names
        assert "repro_fleet_recycled_total" in names
        assert "repro_fleet_flow_latency_seconds" in names


class TestStats:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) is None
        assert percentile([3.0], 0.99) == 3.0
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.90) == 90.0
        assert percentile(values, 0.99) == 99.0

    def test_json_artifact_shape(self):
        result = run_fleet(FleetSpec(clients=6, seed=2, spacing=0.5))
        payload = json.loads(result.stats.to_json())
        assert payload["flows"] == 6
        assert payload["spec"]["clients"] == 6
        assert set(payload["throughput"]) == {
            "virtual_seconds",
            "flows_per_virtual_second",
        }
        assert len(payload["flow_records"]) == 6
        compact = json.loads(result.stats.to_json(include_flows=False))
        assert "flow_records" not in compact

    def test_report_and_status_render(self):
        result = run_fleet(FleetSpec(clients=6, seed=2, spacing=0.5), keep_world=True)
        report = result.stats.format_report()
        assert "flows" in report and "evaded" in report
        status = result.stats.format_status(result.world)
        assert "admitted 6/6" in status

    def test_stats_empty_records(self):
        stats = FleetStats(FleetSpec(clients=1), [])
        assert stats.flows == 0
        assert stats.latency_p50 is None
        assert stats.flows_per_virtual_second is None


class TestDefaultMix:
    def test_default_mix_covers_all_censored_pairs(self):
        pairs = {(e.country, e.protocol) for e in DEFAULT_MIX if e.country}
        assert pairs == {
            ("china", "http"),
            ("china", "https"),
            ("china", "dns"),
            ("china", "ftp"),
            ("china", "smtp"),
            ("india", "http"),
            ("iran", "http"),
            ("iran", "https"),
            ("kazakhstan", "http"),
            ("southkorea", "https"),
            ("russia", "https"),
        }

    def test_default_mix_includes_uncensored(self):
        assert any(e.country is None for e in DEFAULT_MIX)
