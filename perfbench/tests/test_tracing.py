"""Self-time arithmetic, tail percentiles, import times and the tracer's wrappers."""

import pytest

from perfbench.layers import import_metrics
from perfbench.tracing import Tracer, self_times, summarize


def test_child_partly_covering_its_parent():
    # parent [0, 10]; the child runs [6, 14]: only [6, 10] is subtracted.
    start, end, parent = [0.0, 6.0], [10.0, 14.0], [-1, 0]
    assert self_times(start, end, parent) == pytest.approx([6.0, 8.0])


def test_two_overlapping_children():
    # children [1, 5] and [3, 8] overlap on [3, 5]: they cover [1, 8].
    start, end, parent = [0.0, 1.0, 3.0], [10.0, 5.0, 8.0], [-1, 0, 0]
    assert self_times(start, end, parent) == pytest.approx([3.0, 4.0, 5.0])


def test_grandchildren_count_only_against_their_parent():
    # root [0, 10] > child [2, 8] > grandchild [3, 4]
    start, end, parent = [0.0, 2.0, 3.0], [10.0, 8.0, 4.0], [-1, 0, 1]
    selfs = self_times(start, end, parent)
    assert selfs == pytest.approx([4.0, 5.0, 1.0])
    assert sum(selfs) == pytest.approx(10.0)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 1001))
    summary = summarize(values)
    assert summary["n"] == 1000
    assert summary["p50"] == 500
    assert summary["tail_q"] == 0.99
    assert summary["tail"] == 990
    assert summarize(list(range(15)))["tail_q"] == 0.5
    assert summarize([])["n"] == 0


def test_import_times_sum_per_package():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        120 |   repro.packets.ip",
        "import time:        80 |        200 | repro.packets",
        "import time:       500 |        500 |     repro.core.evolution.ga",
        "import time:        30 |        530 |   repro.core",
        "import time:       900 |        900 | json",
        "import time:        10 |         10 | repro",
    ])
    times = import_metrics(log)
    assert times["packets.import_ms"] == pytest.approx(0.2)
    assert times["core.import_ms"] == pytest.approx(0.53)
    assert times["fleet.import_ms"] == 0.0


class _Box:
    def work(self, value):
        return value * 2

    @classmethod
    def build(cls, value):
        return cls().work(value)


def test_wrappers_record_nested_spans_and_restore():
    tracer = Tracer()
    original_work = _Box.__dict__["work"]
    tracer.patch_method(_Box, "work", lambda fn: tracer.span_wrapper(fn, "box.work"))
    tracer.patch_method(_Box, "build", lambda fn: tracer.span_wrapper(fn, "box.build", new_op=True))
    tracer.on = True
    assert _Box.build(3) == 6
    assert _Box().work(1) == 2
    tracer.on = False
    assert _Box.build(4) == 8  # recording off: nothing added
    tracer.restore()
    assert _Box.__dict__["work"] is original_work
    assert isinstance(_Box.__dict__["build"], classmethod)

    names = [tracer.names[i] for i in tracer.name]
    assert names == ["box.build", "box.work", "box.work"]
    assert list(tracer.parent) == [-1, 0, -1]
    # the nested call shares the operation its parent started
    assert tracer.opid[0] == tracer.opid[1] == 0
    assert tracer.opid[2] == -1


def test_count_wrapper_keeps_counts_and_peaks():
    tracer = Tracer()
    counted = tracer.count_wrapper(lambda queue: queue, "c", peak=len)
    tracer.on = True
    counted([1, 2])
    counted([1, 2, 3])
    counted([])
    tracer.on = False
    counted([1, 2, 3, 4])
    assert tracer.counts == {"c": 3}
    assert tracer.peaks == {"c": 3}
