"""A lost fleet worker fails the run at once instead of hanging it.

The kill runs in a child interpreter (:mod:`tests.worker_kill`), so a
regression back to a hanging pool fails here instead of stalling the suite.
"""

from ..worker_kill import run_child

KILLED_FLEET = """
import json, time
from concurrent.futures.process import BrokenProcessPool

from repro.fleet import FleetSpec, run_fleet, runner
from tests.worker_kill import arm

arm(runner, "_run_shard", "killed")
start = time.perf_counter()
try:
    run_fleet(FleetSpec(clients=40, seed=7), workers=2)
    error = None
except BrokenProcessPool as exc:
    error = type(exc).__name__
print(json.dumps({"error": error, "seconds": time.perf_counter() - start}))
"""


def test_lost_worker_fails_the_fleet_run(tmp_path):
    report = run_child(KILLED_FLEET, tmp_path)
    assert report["error"] == "BrokenProcessPool"
    assert report["seconds"] < 5.0
