"""Reused world slices replay one-flow worlds.

When a flow is recycled its world slice (streams, client host, censor,
network) is parked under the flow's shape, and the next flow of that
shape is admitted into it, re-seeded. Eighty flows of one cohort a
virtual second apart reuse dozens of slices, after censored, evaded and
timed-out flows alike, and every record, full trace digest included,
must equal the record of a world that holds that flow alone.

Fewer flows would not do: a censored flow drains late, so in a short
run its slice is never taken again, and a censor left unreset would
pass unseen.
"""

from __future__ import annotations

import pytest

from repro.fleet import FleetMixEntry, FleetSpec, FleetWorld

COHORTS = [("china", "http"), ("china", "dns"), ("china", "https"), ("china", "ftp")]


@pytest.mark.parametrize(
    "country,protocol", COHORTS, ids=[f"{c}-{p}" for c, p in COHORTS]
)
def test_reused_slices_replay_one_flow_worlds(country, protocol):
    spec = FleetSpec(
        clients=80,
        seed=1,
        spacing=1.0,
        mix=(FleetMixEntry(country, protocol),),
        trace="full",
    )
    world = FleetWorld(spec)
    records = world.run()

    # Every slice is parked once the run is over, with no trace kept.
    parked = [piece for pieces in world._parked.values() for piece in pieces]
    assert world.admitted - len(parked) >= 40
    assert all(piece.network.trace.events == [] for piece in parked)
    for plan, record in zip(spec.flow_plans(), records):
        (alone,) = FleetWorld(spec, plans=[plan]).run()
        assert record == alone, plan.index
