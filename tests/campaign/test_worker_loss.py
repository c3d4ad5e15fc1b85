"""A campaign whose pool worker dies retries the shard and finishes intact.

The lost worker fails the shard's batch with ``BrokenProcessPool``; the
campaign's per-shard retry runs it again on a fresh pool, and the
finalized artifacts equal a serial run's byte for byte. The kill runs in
a child interpreter (:mod:`tests.worker_kill`), so a regression back to a
hanging pool fails here instead of stalling the suite.
"""

from repro.campaign import PRESETS, CampaignLedger, run_campaign

from ..worker_kill import run_child

KILLED_CAMPAIGN = """
import json

from repro.campaign import PRESETS, run_campaign
from repro.runtime import executor
from tests.worker_kill import arm

arm(executor, "_execute_shard", "killed")
spec = PRESETS["table2-china"](trials=2, shard_size=10)
result = run_campaign(spec, "pooled", workers=2)
print(json.dumps({"finalized": result.finalized}))
"""


def artifacts(out_dir):
    ledger = CampaignLedger(out_dir)
    return ledger.results_path.read_bytes(), ledger.report_path.read_bytes()


def test_killed_worker_is_retried_to_the_serial_artifacts(tmp_path):
    serial = tmp_path / "serial"
    run_campaign(PRESETS["table2-china"](trials=2, shard_size=10), serial)

    assert run_child(KILLED_CAMPAIGN, tmp_path) == {"finalized": True}
    assert (tmp_path / "killed").exists()
    assert artifacts(tmp_path / "pooled") == artifacts(serial)
    failures = [
        record
        for record in CampaignLedger(tmp_path / "pooled").journal_records()
        if record["event"] == "shard_attempt_failed"
    ]
    assert len(failures) == 1
    assert failures[0]["error"].startswith("BrokenProcessPool")
