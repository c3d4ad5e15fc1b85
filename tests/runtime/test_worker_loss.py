"""A lost pool worker fails its batch at once; a trial error keeps the pool.

The kill runs in a child interpreter (:mod:`tests.worker_kill`), so a
regression back to a hanging pool fails here instead of stalling the suite.
"""

import pytest

from repro.core import deployed_strategy
from repro.runtime import TrialExecutor, TrialSpec, trial_seed
from repro.runtime.cache import result_payload

from ..worker_kill import run_child

KILLED_BATCH = """
import json, time
from concurrent.futures.process import BrokenProcessPool

from repro.core import deployed_strategy
from repro.runtime import TrialExecutor, TrialSpec, executor, trial_seed
from repro.runtime.cache import result_payload
from tests.worker_kill import arm

strategy = deployed_strategy(1)
specs = [
    TrialSpec.build("china", "http", strategy, seed=trial_seed(0, index))
    for index in range(24)
]
serial = [result_payload(result) for result in TrialExecutor().run_batch(specs)]
arm(executor, "_execute_shard", "killed")
with TrialExecutor(workers=2) as pool:
    start = time.perf_counter()
    try:
        pool.run_batch(specs)
        error = None
    except BrokenProcessPool as exc:
        error = type(exc).__name__
    seconds = time.perf_counter() - start
    rerun = [result_payload(result) for result in pool.run_batch(specs)]
print(json.dumps({"error": error, "seconds": seconds, "rerun": rerun == serial}))
"""


def test_lost_worker_fails_the_batch_and_the_next_batch_runs(tmp_path):
    report = run_child(KILLED_BATCH, tmp_path)
    assert report["error"] == "BrokenProcessPool"
    assert report["seconds"] < 5.0
    # The broken pool was dropped: the executor's next batch ran on a
    # fresh pool and matched the serial results.
    assert report["rerun"]


def test_trial_error_in_a_worker_surfaces_and_keeps_the_pool():
    strategy = deployed_strategy(1)
    good = [
        TrialSpec.build("china", "http", strategy, seed=trial_seed(0, index))
        for index in range(24)
    ]
    bad = [
        TrialSpec.build("china", "http", None, seed=seed, ip_version=5)
        for seed in range(4)
    ]
    serial = [result_payload(result) for result in TrialExecutor().run_batch(good)]
    with TrialExecutor(workers=2) as executor:
        executor.run_batch(good)
        with pytest.raises(ValueError, match="ip_version"):
            executor.run_batch(bad)
        assert [result_payload(r) for r in executor.run_batch(good)] == serial
        # Every trial ran on the pool's first two workers: none was replaced.
        assert set(executor.total_stats.per_worker) <= {"w0", "w1"}
