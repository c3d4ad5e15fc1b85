"""Drain-time retirement: a flow is finalized once its last event has run.

A flow with no event left to run can change no state before its
deadline, so the world finalizes and recycles it on the spot; only a
flow still busy at ``arrival + max_time`` waits for the deadline. These
tests pin that the artifact is unchanged, that flows in flight no
longer pile up for the whole horizon, that a cut-off flow still matches
a ``Trial`` with the same horizon, that what a retired flow kept of its
own (its client app, and through it its endpoints and callbacks) is
released well before its deadline, and that the world slice it leaves
parked holds nothing of it.
"""

from __future__ import annotations

import gc
import hashlib
import weakref

import pytest

from repro.deploy import install_per_client
from repro.eval.runner import Trial, trial_rngs
from repro.fleet import (
    FleetMixEntry,
    FleetSpec,
    FleetWorld,
    fleet_selector,
    flow_client_ip,
    run_fleet,
)
from repro.runtime import trial_seed

DENSE_SPEC = FleetSpec(clients=300, seed=1, spacing=0.05)
#: SHA-256 of ``DENSE_SPEC``'s ``FleetStats.to_json()``, computed when
#: every flow was held until its 40 s deadline.
DENSE_SHA = "a5ef239b821f357dc6b347b458f08ef32e66f5c12a6b87b15a42379fe7c4981a"

FLEET_SEED = 1234


@pytest.fixture(scope="module")
def dense_run():
    peak = 0

    def watch(world, record):
        nonlocal peak
        peak = max(peak, world.active_flows)

    result = run_fleet(DENSE_SPEC, on_flow_done=watch)
    return result, peak


def test_dense_artifact_is_unchanged(dense_run):
    result, _ = dense_run
    digest = hashlib.sha256(result.stats.to_json().encode("utf-8")).hexdigest()
    assert digest == DENSE_SHA


def test_drained_flows_do_not_pile_up(dense_run):
    # 300 arrivals in 15 s all fall inside one 40 s horizon: held to
    # their deadlines, every flow would be in flight at once.
    _, peak = dense_run
    assert 1 < peak <= 100


def live_entries(scheduler):
    """Queued events of a scheduler that can still run."""
    return [e for e in scheduler._queue if e[2] is None or not e[2].cancelled]


def trial_for_flow0(country, protocol, max_time):
    seed = trial_seed(FLEET_SEED, 0)
    trial = Trial(
        country,
        protocol,
        None,
        seed=seed,
        client_ip=flow_client_ip(country, 0),
        capture_trace=True,
        max_time=max_time,
    )
    install_per_client(
        trial.server_host, fleet_selector(), protocol, trial_rngs(seed).strategy
    )
    return trial


@pytest.mark.parametrize("country,protocol", [("china", "http"), ("russia", "https")])
def test_cut_off_flow_matches_trial_at_the_same_horizon(country, protocol):
    full = trial_for_flow0(country, protocol, 40.0).run()
    times = sorted({event.time for event in full.trace.events})
    horizon = times[len(times) // 2]  # an event instant mid-exchange

    trial = trial_for_flow0(country, protocol, horizon)
    result = trial.run()
    assert live_entries(trial.scheduler), "the horizon must cut the trial off"

    spec = FleetSpec(
        clients=1,
        seed=FLEET_SEED,
        mix=(FleetMixEntry(country, protocol),),
        trace="full",
        max_time=horizon,
    )
    world = FleetWorld(spec)
    (record,) = world.run()
    assert record["outcome"] == result.outcome
    assert record["succeeded"] == result.succeeded
    assert record["censored"] == result.censored
    assert record["trace_digest"] == result.trace.digest()
    assert world.active_flows == 0
    assert world.server_host.endpoints() == []


def flow_refs(flow):
    """Weak references to what a flow keeps of its own: its client app
    and the app's endpoint. (Its world slice is parked on purpose.)"""
    app = flow.client_app
    return [weakref.ref(app), weakref.ref(app.endpoint)]


def test_drained_flow_is_released_before_its_deadline():
    spec = FleetSpec(clients=30, seed=1, spacing=1.0)
    watched = {}
    checked = []

    def done(world, record):
        flow = world._flows.get(record["client_ip"])
        if not watched and flow is not None and flow.slice.censor is not None:
            # Finalized at drain time, long before its deadline.
            assert world.scheduler.now < record["arrival"] + spec.max_time / 4
            watched.update(
                refs=flow_refs(flow), deadline=record["arrival"] + spec.max_time
            )
            return
        if watched and not checked and world.scheduler.now > watched["deadline"] - 20:
            assert world.scheduler.now < watched["deadline"]
            gc.collect()
            checked.append([ref() for ref in watched["refs"]] == [None, None])

    FleetWorld(spec, on_flow_done=done).run()
    assert checked == [True]


def test_cancelled_timers_do_not_pin_a_retired_flow():
    """Flow 1 drains at 1.75 s, but its client cancelled an 8 s app timer
    whose heap entry stays queued until t=9: the entry must not keep the
    flow's callback, and through it the flow's client app and endpoint."""
    spec = FleetSpec(clients=30, seed=1, spacing=1.0)
    refs = []
    checked = []

    def done(world, record):
        if record["flow"] == 1:
            refs.extend(flow_refs(world._flows[record["client_ip"]]))
        elif record["flow"] == 2:
            gc.collect()
            checked.append([ref() for ref in refs] == [None, None])

    FleetWorld(spec, on_flow_done=done).run()
    assert checked == [True]


class ShapeWatchingWorld(FleetWorld):
    """Records each shape's peak number of flows in flight."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.peak_in_flight = {}

    def _admit(self, plan, handle):
        super()._admit(plan, handle)
        shape = plan.shape()
        in_flight = sum(flow.plan.shape() == shape for flow in self._flows.values())
        self.peak_in_flight[shape] = max(self.peak_in_flight.get(shape, 0), in_flight)


def test_parked_slices_hold_nothing_of_their_flows(dense_run):
    world = ShapeWatchingWorld(DENSE_SPEC)
    assert world.run() == dense_run[0].records
    assert world.active_flows == 0
    assert sorted(world._parked, key=str) == sorted(world.peak_in_flight, key=str)
    for shape, parked in world._parked.items():
        assert 1 <= len(parked) <= world.peak_in_flight[shape]
        for piece in parked:
            assert piece.client_host.endpoints() == []
            if piece.censor is not None:
                assert piece.censor.censorship_events == 0
    reused = world.admitted - sum(len(parked) for parked in world._parked.values())
    assert reused > world.admitted // 2


def test_at_most_one_deadline_entry_is_queued():
    """Flows retire long before their 40 s deadlines; a retired flow must
    leave no deadline entry behind in the heap, so the world keeps just
    one, armed at the oldest open flow's deadline."""
    queued = []

    def done(world, record):
        queued.append(
            sum(1 for entry in world.scheduler._queue if entry[3] == world._deadline)
        )

    run_fleet(FleetSpec(clients=200, seed=1, spacing=0.05), on_flow_done=done)
    assert len(queued) == 200
    assert max(queued) <= 1
