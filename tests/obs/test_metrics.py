"""Metric registry semantics: labels, kinds, and the merge algebra.

The load-bearing property is that snapshot merging is associative and
commutative — the executor's run-level view must be identical whatever
the worker count or completion order. The hypothesis tests state that
directly: any partition of an event stream into "workers", merged in
any order, equals the serial registry.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import deployed_strategy
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricSchemaError,
    MetricsRegistry,
    active_registry,
    collecting,
    is_collecting,
    merge_snapshots,
    parse_label_key,
)
from repro.runtime import TrialSpec, trial_seed

# Families for these tests (schemas are process-global; re-declaring
# identically is idempotent, so module-level declaration is safe).
EVENTS = Counter("test_events_total", "events", ("kind",))
PLAIN = Counter("test_plain_total", "unlabeled")
PEAK = Gauge("test_peak", "peak value", agg="max")
LOW = Gauge("test_low", "low watermark", agg="min")
TOTAL_G = Gauge("test_total_gauge", "summed gauge", agg="sum")
SIZES = Histogram("test_sizes", "sizes", buckets=(1.0, 10.0, 100.0))


class TestRecording:
    def test_counter_labels_and_amounts(self):
        with collecting() as reg:
            EVENTS.inc(kind="a")
            EVENTS.inc(3, kind="a")
            EVENTS.inc(kind="b")
        assert reg.value("test_events_total", kind="a") == 4
        assert reg.value("test_events_total", kind="b") == 1

    def test_unlabeled_counter(self):
        with collecting() as reg:
            PLAIN.inc()
            PLAIN.inc(2)
        assert reg.value("test_plain_total") == 3

    def test_missing_label_rejected(self):
        with collecting():
            with pytest.raises(MetricSchemaError):
                EVENTS.inc()

    def test_unexpected_label_rejected(self):
        with collecting():
            with pytest.raises(MetricSchemaError):
                PLAIN.inc(kind="nope")

    def test_label_values_sanitized(self):
        with collecting() as reg:
            EVENTS.inc(kind="a,b=c\nd")
        snapshot = reg.snapshot()
        (key,) = snapshot["test_events_total"]["samples"]
        assert parse_label_key(key) == [("kind", "a_b_c_d")]

    def test_bound_counter_matches_unbound(self):
        bound = EVENTS.labels(kind="hot")
        with collecting() as reg:
            bound.inc()
            bound.inc(4)
            EVENTS.inc(2, kind="hot")
        assert reg.value("test_events_total", kind="hot") == 7

    def test_gauge_aggregations(self):
        with collecting() as reg:
            for value in (3, 9, 1):
                PEAK.set(value)
                LOW.set(value)
                TOTAL_G.set(value)
        assert reg.value("test_peak") == 9
        assert reg.value("test_low") == 1
        assert reg.value("test_total_gauge") == 13

    def test_histogram_buckets(self):
        with collecting() as reg:
            for value in (0.5, 5.0, 50.0, 500.0):
                SIZES.observe(value)
        cell = reg.value("test_sizes")
        assert cell["buckets"] == [1, 1, 1, 1]  # one overflow past 100.0
        assert cell["count"] == 4
        assert cell["sum"] == pytest.approx(555.5)

    def test_schema_conflict_rejected(self):
        with pytest.raises(MetricSchemaError):
            Counter("test_events_total", "events", ("other_label",))
        with pytest.raises(MetricSchemaError):
            Gauge("test_peak", "peak value", agg="sum")

    def test_bad_gauge_agg_rejected(self):
        with pytest.raises(MetricSchemaError):
            Gauge("test_bad_agg", "x", agg="mean")


class TestGating:
    """Recording is armed only inside a collecting() scope."""

    def test_dropped_outside_scope(self):
        assert not is_collecting()
        before = active_registry().snapshot()
        EVENTS.inc(kind="outside")
        EVENTS.labels(kind="outside").inc()
        PEAK.set(99)
        SIZES.observe(1.0)
        assert active_registry().snapshot() == before

    def test_nested_scopes_shadow(self):
        with collecting() as outer:
            EVENTS.inc(kind="outer")
            with collecting() as inner:
                EVENTS.inc(kind="inner")
            EVENTS.inc(kind="outer")
        assert outer.value("test_events_total", kind="outer") == 2
        assert outer.value("test_events_total", kind="inner") is None
        assert inner.value("test_events_total", kind="inner") == 1

    def test_scope_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with collecting():
                raise RuntimeError("boom")
        assert not is_collecting()

    def test_guarded_trial_counters_count_inside_a_scope(self):
        # These call sites test COLLECTING before building their labels.
        names = (
            "repro_tcp_rto_backoffs_total",
            "repro_tcp_retransmits_total",
            "repro_strategy_intercepts_total",
            "repro_gfw_resync_total",
        )
        strategy = deployed_strategy(1)
        specs = [
            TrialSpec.build("china", "http", strategy, seed=trial_seed(0, index))
            for index in range(4)
        ]
        before = active_registry().snapshot()
        for spec in specs:
            spec.run()
        assert active_registry().snapshot() == before
        with collecting() as registry:
            for spec in specs:
                spec.run()
        snapshot = registry.snapshot()
        for name in names:
            assert sum(snapshot[name]["samples"].values()) > 0, name


class TestSnapshots:
    def test_snapshot_is_self_describing(self):
        with collecting() as reg:
            EVENTS.inc(kind="a")
            SIZES.observe(2.0)
        snapshot = reg.snapshot()
        assert snapshot["test_events_total"]["kind"] == "counter"
        assert snapshot["test_events_total"]["labelnames"] == ["kind"]
        assert snapshot["test_sizes"]["buckets"] == [1.0, 10.0, 100.0]

    def test_snapshot_is_a_copy(self):
        with collecting() as reg:
            SIZES.observe(2.0)
            snapshot = reg.snapshot()
            SIZES.observe(2.0)
        assert snapshot["test_sizes"]["samples"][""]["count"] == 1
        assert reg.value("test_sizes")["count"] == 2

    def test_snapshot_survives_pickle_and_json(self):
        import json
        import pickle

        with collecting() as reg:
            EVENTS.inc(kind="a")
            SIZES.observe(2.0)
        snapshot = reg.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_merge_adopts_unknown_family_schema(self):
        snapshot = {
            "test_adopted_total": {
                "kind": "counter",
                "help": "from another process",
                "labelnames": ["x"],
                "deterministic": True,
                "samples": {"x=1": 5},
            }
        }
        merged = merge_snapshots(snapshot, snapshot)
        assert merged["test_adopted_total"]["samples"]["x=1"] == 10


# ---------------------------------------------------------------------------
# The merge algebra, stated as properties.

#: One simulated event: (metric, label/value, amount-or-observation).
_event = st.one_of(
    st.tuples(
        st.just("counter"),
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=1, max_value=5),
    ),
    st.tuples(
        st.just("gauge-max"), st.just(""), st.integers(min_value=-10, max_value=10)
    ),
    st.tuples(
        st.just("gauge-min"), st.just(""), st.integers(min_value=-10, max_value=10)
    ),
    st.tuples(
        st.just("hist"),
        st.just(""),
        # Integral values keep float sums exact, so the algebra holds as
        # literal equality rather than approximately.
        st.integers(min_value=0, max_value=1000).map(float),
    ),
)


def _replay(events):
    """Run an event stream into a fresh registry; return its snapshot."""
    with collecting() as reg:
        for metric, label, value in events:
            if metric == "counter":
                EVENTS.inc(value, kind=label)
            elif metric == "gauge-max":
                PEAK.set(value)
            elif metric == "gauge-min":
                LOW.set(value)
            else:
                SIZES.observe(value)
    return reg.snapshot()


@st.composite
def _events_and_split(draw):
    events = draw(st.lists(_event, max_size=30))
    # A partition of the stream into contiguous "worker" shards.
    cuts = draw(
        st.lists(st.integers(min_value=0, max_value=len(events)), max_size=4)
    )
    bounds = sorted(set(cuts) | {0, len(events)})
    shards = [events[a:b] for a, b in zip(bounds, bounds[1:])]
    return events, shards


class TestMergeAlgebra:
    @given(_events_and_split())
    @settings(max_examples=60, deadline=None)
    def test_any_worker_split_equals_serial(self, case):
        """Sharding events across workers never changes merged totals."""
        events, shards = case
        serial = _replay(events)
        merged = merge_snapshots(*[_replay(shard) for shard in shards])
        assert merged == serial

    @given(_events_and_split())
    @settings(max_examples=60, deadline=None)
    def test_merge_is_commutative(self, case):
        _, shards = case
        snaps = [_replay(shard) for shard in shards]
        assert merge_snapshots(*snaps) == merge_snapshots(*reversed(snaps))

    @given(st.lists(st.lists(_event, max_size=10), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, streams):
        a, b, c = [_replay(stream) for stream in streams]
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right

    @given(st.lists(_event, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_merge_into_registry_matches_pure_merge(self, events):
        """MetricsRegistry.merge_snapshot is the same fold as
        merge_snapshots."""
        serial = _replay(events)
        reg = MetricsRegistry()
        reg.merge_snapshot(serial)
        reg.merge_snapshot(serial)
        assert reg.snapshot() == merge_snapshots(serial, serial)

    def test_histogram_bucket_mismatch_rejected(self):
        snap = {
            "test_bad_hist": {
                "kind": "histogram",
                "help": "",
                "labelnames": [],
                "deterministic": True,
                "buckets": [1.0],
                "samples": {"": {"buckets": [1, 1], "sum": 1.0, "count": 2}},
            }
        }
        reg = MetricsRegistry()
        reg.merge_snapshot(snap)
        bad = {
            "test_bad_hist": {
                "kind": "histogram",
                "samples": {"": {"buckets": [1, 1, 1], "sum": 1.0, "count": 3}},
            }
        }
        with pytest.raises(MetricSchemaError):
            reg.merge_snapshot(bad)
