"""Kill-and-resume integration: SIGKILL the runner mid-campaign, resume,
and require the final ledger to match an uninterrupted golden bit-for-bit.

This is the crash-safety acceptance test from the campaign design: the
content-addressed files of the campaign's result cache — not the journal
— define completion, so a hard kill at any instant loses at most the
in-flight shard and a resumed run converges on exactly the artifacts an
uninterrupted run produces.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignLedger, CampaignSpec, run_campaign

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

SPEC = {
    "name": "kill-resume",
    "shard_size": 4,
    "cells": [
        {
            "country": "kazakhstan",
            "protocol": "http",
            "server_strategy": 11,
            "trials": 20,
            "seed": 7,
        },
        {"country": "kazakhstan", "protocol": "http", "trials": 20, "seed": 9},
    ],
}


def write_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


def ledger_bytes(out_dir):
    ledger = CampaignLedger(out_dir)
    return ledger.results_path.read_bytes(), ledger.report_path.read_bytes()


@pytest.mark.slow
def test_sigkill_then_resume_matches_uninterrupted_golden(tmp_path):
    spec_path = write_spec(tmp_path)
    spec = CampaignSpec.from_file(spec_path)

    golden_dir = tmp_path / "golden"
    golden = run_campaign(spec, golden_dir)
    assert golden.finalized

    out_dir = tmp_path / "killed"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "campaign", "run", str(spec_path), "--out", str(out_dir),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # Wait until at least one shard checkpoint landed, then kill hard
        # — with 10 shards in the campaign we land mid-run, mid-shard.
        cache_dir = out_dir / CampaignLedger.CACHE_DIR
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if any(cache_dir.glob("shapes/*/*/*.json")):
                break
            time.sleep(0.005)
        else:
            pytest.fail("runner produced no shard checkpoint within 60s")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    ledger = CampaignLedger(out_dir)
    done_before = len(ledger.completed_shards(spec.shards()))
    assert done_before < len(spec.shards()), "campaign finished before the kill"
    assert not ledger.results_path.exists()

    resumed = run_campaign(spec, out_dir, resume=True)
    assert resumed.finalized
    assert resumed.shards_run + resumed.shards_skipped == len(spec.shards())
    assert ledger_bytes(out_dir) == ledger_bytes(golden_dir)
