"""FlowScheduler drain accounting: ``pending`` counts only live events.

A flow's count covers its queued, uncancelled events; whenever it
reaches zero the scheduler's ``on_drain`` hook is told, which is what
lets a fleet world retire a flow as soon as nothing of it can run.
"""

import weakref

from repro.netsim.flows import FlowHandle, FlowScheduler


def flow_world():
    """A scheduler with one flow and a list recording drain-hook calls."""
    sched = FlowScheduler()
    drained = []
    sched.on_drain = drained.append
    return sched, FlowHandle(0, "10.0.0.1"), drained


def schedule_in(sched, flow, delay, callback):
    """Schedule ``callback`` as ``flow``'s own timer; returns the timer."""
    previous, sched.current = sched.current, flow
    try:
        return sched.schedule(delay, callback)
    finally:
        sched.current = previous


class TestCancelUncounts:
    def test_cancel_lowers_pending_at_once(self):
        sched, flow, drained = flow_world()
        keep = schedule_in(sched, flow, 1.0, lambda: None)
        timer = schedule_in(sched, flow, 8.0, lambda: None)
        assert flow.pending == 2
        timer.cancel()
        assert flow.pending == 1
        assert drained == []
        keep.cancel()
        assert flow.pending == 0

    def test_cancel_from_outside_the_flow_drains_at_once(self):
        sched, flow, drained = flow_world()
        timer = schedule_in(sched, flow, 8.0, lambda: None)
        timer.cancel()
        assert drained == [flow]
        assert sched.run() == 0
        assert drained == [flow]

    def test_cancelling_twice_changes_nothing(self):
        sched, flow, drained = flow_world()
        schedule_in(sched, flow, 1.0, lambda: None)
        timer = schedule_in(sched, flow, 8.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert flow.pending == 1
        assert drained == []
        sched.run()
        assert flow.pending == 0
        assert drained == [flow]

    def test_cancel_after_fire_changes_nothing(self):
        sched, flow, drained = flow_world()
        fired = []
        timer = schedule_in(sched, flow, 1.0, lambda: fired.append(1))
        later = schedule_in(sched, flow, 5.0, lambda: None)
        sched.run(until=2.0)
        assert fired == [1]
        assert flow.pending == 1
        timer.cancel()
        assert flow.pending == 1
        assert drained == []
        later.cancel()
        assert flow.pending == 0
        assert drained == [flow]

    def test_cancel_releases_the_callback(self):
        """The queued entry outlives the cancel; the callback must not."""

        class Owner:
            def fire(self):
                pass

        sched, flow, _ = flow_world()
        owner = Owner()
        timer = schedule_in(sched, flow, 8.0, owner.fire)
        ref = weakref.ref(owner)
        del owner
        assert ref() is not None
        timer.cancel()
        assert sched.pending() == 1
        assert ref() is None


class TestDrainHook:
    def test_fires_after_the_flows_last_event(self):
        sched, flow, drained = flow_world()
        seen = []
        schedule_in(sched, flow, 1.0, lambda: seen.append(list(drained)))
        sched.run()
        assert seen == [[]]
        assert drained == [flow]

    def test_fires_after_the_current_event_not_inside_it(self):
        sched, flow, drained = flow_world()
        seen = []
        app_timer = schedule_in(sched, flow, 8.0, lambda: None)

        def complete():
            app_timer.cancel()
            seen.append((flow.pending, list(drained)))

        schedule_in(sched, flow, 1.0, complete)
        sched.run(until=2.0)
        assert seen == [(0, [])]
        assert drained == [flow]
        assert sched.now == 2.0

    def test_no_drain_while_the_event_schedules_more(self):
        sched, flow, drained = flow_world()
        app_timer = schedule_in(sched, flow, 8.0, lambda: None)

        def step():
            app_timer.cancel()
            sched.schedule(1.0, lambda: None)

        schedule_in(sched, flow, 1.0, step)
        sched.run(until=1.5)
        assert flow.pending == 1
        assert drained == []
        sched.run()
        assert drained == [flow]

    def test_closed_flow_skips_events_and_drains_when_last_pops(self):
        sched, flow, drained = flow_world()
        ran = []
        schedule_in(sched, flow, 1.0, lambda: ran.append(1))
        sched.schedule_at_in(flow, 2.0, ran.append, (2,))
        flow.closed = True
        assert sched.run() == 0
        assert ran == []
        assert flow.pending == 0
        assert drained == [flow]

    def test_each_flow_drains_once(self):
        sched, flow, drained = flow_world()
        other = FlowHandle(1, "10.0.0.2")
        schedule_in(sched, flow, 1.0, lambda: None)
        schedule_in(sched, other, 2.0, lambda: None)
        schedule_in(sched, other, 3.0, lambda: None)
        sched.run()
        assert drained == [flow, other]


class TestWorldLevelEvents:
    def test_world_timers_touch_no_flow(self):
        sched, flow, drained = flow_world()
        schedule_in(sched, flow, 1.0, lambda: None)
        timer = sched.schedule(0.5, lambda: None)
        assert flow.pending == 1
        timer.cancel()
        timer.cancel()
        assert flow.pending == 1
        assert drained == []

    def test_world_event_from_inside_a_flow_is_not_counted(self):
        sched, flow, drained = flow_world()
        ran = []

        def admit():
            sched.schedule_at_in(None, 5.0, lambda: ran.append(sched.current))

        sched.schedule_at_in(flow, 1.0, admit)
        sched.run()
        assert ran == [None]
        # The flow drained right after its own event, long before the
        # world-level event at 5.0 ran.
        assert drained == [flow]
