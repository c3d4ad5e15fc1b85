"""Runner semantics: checkpointing, resume equality, retries, poison recovery."""

import json
import shutil
from pathlib import Path

import pytest

from repro.campaign import (
    PRESETS,
    CampaignError,
    CampaignLedger,
    CampaignSpec,
    CellSpec,
    LedgerError,
    run_campaign,
)
from repro.core import deployed_strategy
from repro.eval import success_rate


def small_spec(shard_size=3):
    """8 trials over 3 shards: one evading cell, one censored cell."""
    return CampaignSpec(
        name="runner-unit",
        cells=[
            CellSpec.build("kazakhstan", "http", 11, trials=4, seed=7),
            CellSpec.build("kazakhstan", "http", None, trials=4, seed=9),
        ],
        shard_size=shard_size,
    )


def ledger_bytes(out_dir):
    """The two deterministic final artifacts, as bytes."""
    ledger = CampaignLedger(out_dir)
    return ledger.results_path.read_bytes(), ledger.report_path.read_bytes()


def shape_files(out_dir):
    """Every shape file in a campaign directory's result cache."""
    return sorted((Path(out_dir) / CampaignLedger.CACHE_DIR).glob("shapes/*/*/*.json"))


def seeds_in(path):
    """The trial seeds one shape file holds results for."""
    return {seed for seed, _payload in json.loads(path.read_text())["records"]}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """One uninterrupted run of ``small_spec`` — the comparison baseline."""
    out = tmp_path_factory.mktemp("golden") / "camp"
    result = run_campaign(small_spec(), out)
    assert result.finalized
    return out, ledger_bytes(out), result


@pytest.fixture
def golden(golden_run):
    """(directory, deterministic artifact bytes) of the golden run."""
    out, baseline, _result = golden_run
    return out, baseline


class TestFullRun:
    def test_rates_match_direct_measurement(self, golden_run):
        _out, _baseline, result = golden_run
        evading, censored = result.cells
        assert evading.rate == success_rate(
            "kazakhstan", "http", deployed_strategy(11), trials=4, seed=7
        )
        assert censored.rate == success_rate(
            "kazakhstan", "http", None, trials=4, seed=9
        )
        assert evading.trials == censored.trials == 4

    def test_shards_are_stored_in_the_cache(self, golden):
        out, _ = golden
        shards = small_spec().shards()
        assert len(shards) == 3
        assert sorted(CampaignLedger(out).completed_shards(shards)) == [0, 1, 2]
        # One file per shape per shard's batch; shard 1 spans both cells.
        assert len(shape_files(out)) == 4
        assert sorted(path.name for path in out.iterdir()) == [
            "cache", "campaign.json", "ledger.jsonl", "report.json", "results.jsonl",
        ]

    def test_rerun_without_resume_refused(self, golden):
        out, _ = golden
        with pytest.raises(LedgerError, match="--resume"):
            run_campaign(small_spec(), out)

    def test_resume_of_complete_run_is_idempotent(self, golden):
        out, baseline = golden
        result = run_campaign(small_spec(), out, resume=True)
        assert result.shards_run == 0
        assert result.shards_skipped == result.shards_total == 3
        assert result.finalized
        assert ledger_bytes(out) == baseline


class TestResumeEquality:
    @pytest.mark.parametrize("boundary", [1, 2])
    def test_interrupt_at_every_shard_boundary(self, tmp_path, golden, boundary):
        """Stop after ``boundary`` shards, resume: bytes equal uninterrupted."""
        _, baseline = golden
        out = tmp_path / "camp"
        partial = run_campaign(small_spec(), out, max_shards=boundary)
        assert not partial.finalized
        assert partial.shards_run == boundary
        assert not CampaignLedger(out).results_path.exists()
        resumed = run_campaign(small_spec(), out, resume=True)
        assert resumed.finalized
        assert resumed.shards_skipped == boundary
        assert resumed.shards_run == 3 - boundary
        assert ledger_bytes(out) == baseline

    def test_two_machine_split_equals_golden(self, tmp_path, golden):
        _, baseline = golden
        out = tmp_path / "camp"
        first = run_campaign(small_spec(), out, shard=(1, 2))
        assert not first.finalized and first.shards_pending > 0
        second = run_campaign(small_spec(), out, resume=True, shard=(2, 2))
        # Whichever invocation completes the last shard finalizes.
        assert second.finalized
        assert first.shards_run + second.shards_run == 3
        assert ledger_bytes(out) == baseline

    def test_poisoned_shard_is_reexecuted(self, tmp_path, golden):
        _, baseline = golden
        out = tmp_path / "camp"
        run_campaign(small_spec(), out)
        shards = small_spec().shards()
        seeds = {trial.spec.seed for trial in shards[1].trials}
        path = next(p for p in shape_files(out) if seeds_in(p) <= seeds)
        path.write_text(path.read_text()[:-20] + "}")  # no longer its name's bytes
        ledger = CampaignLedger(out)
        assert sorted(ledger.completed_shards(shards)) == [0, 2]
        assert ledger.cache.stats.poisoned == 1
        assert not path.exists()
        resumed = run_campaign(small_spec(), out, resume=True)
        assert resumed.shards_run == 1
        assert resumed.shards_skipped == 2
        assert ledger_bytes(out) == baseline


class TestSharedCache:
    """Cache trees of the same trials merge by plain copying."""

    def test_union_of_two_machines_caches_finalizes_to_golden(self, tmp_path, golden):
        _, baseline = golden
        merged = tmp_path / "merged"
        for index in (1, 2):
            part = run_campaign(small_spec(), tmp_path / f"m{index}", shard=(index, 2))
            assert not part.finalized
            shutil.copytree(
                tmp_path / f"m{index}" / CampaignLedger.CACHE_DIR,
                merged / CampaignLedger.CACHE_DIR,
                dirs_exist_ok=True,
            )
        result = run_campaign(small_spec(), merged)
        assert result.finalized
        assert result.shards_run == 0
        assert ledger_bytes(merged) == baseline

    def test_cache_of_another_campaign_executes_nothing(self, tmp_path):
        china = PRESETS["table2-china"](trials=2)
        run_campaign(china, tmp_path / "fresh")
        run_campaign(PRESETS["table2"](trials=2), tmp_path / "table2")
        shutil.copytree(
            tmp_path / "table2" / CampaignLedger.CACHE_DIR,
            tmp_path / "reused" / CampaignLedger.CACHE_DIR,
        )
        reused = run_campaign(china, tmp_path / "reused")
        assert reused.finalized
        assert reused.shards_run == 0
        assert reused.shards_skipped == reused.shards_total
        trials = reused.metrics["repro_executor_trials_total"]["samples"]
        assert trials["state=executed"] == 0
        assert trials["state=cached"] == china.total_trials
        assert ledger_bytes(tmp_path / "reused") == ledger_bytes(tmp_path / "fresh")


class TestShapeFileReads:
    """A campaign's cache reads each shape file at most once per run,
    however many shards of one shape look it up."""

    def test_each_file_is_read_once_fresh_and_resumed(self, tmp_path, monkeypatch):
        from repro.runtime import cache as cache_module

        reads = []
        read_bytes = cache_module._read_bytes

        def counting(path):
            reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(cache_module, "_read_bytes", counting)
        spec = CampaignSpec(
            name="one-cell",
            cells=[CellSpec.build("kazakhstan", "http", 11, trials=10, seed=3)],
            shard_size=2,
        )
        assert run_campaign(spec, tmp_path / "fresh").finalized
        assert len(shape_files(tmp_path / "fresh")) == 5
        assert len(reads) == len(set(reads)) == 4  # each shard reads the last file

        out = tmp_path / "resumed"
        assert not run_campaign(spec, out, max_shards=3).finalized
        reads.clear()
        assert run_campaign(spec, out, resume=True).finalized
        assert len(reads) == len(set(reads)) == 4  # three at resume, one more
        assert ledger_bytes(out) == ledger_bytes(tmp_path / "fresh")


class TestRetries:
    def test_retry_budget_exhaustion_aborts(self, tmp_path, monkeypatch):
        from repro.runtime import TrialExecutor

        def boom(self, specs, **kwargs):
            raise RuntimeError("worker died")

        monkeypatch.setattr(TrialExecutor, "run_batch", boom)
        out = tmp_path / "camp"
        with pytest.raises(CampaignError, match="failed after 2 attempt"):
            run_campaign(small_spec(), out, retries=1)
        events = [r["event"] for r in CampaignLedger(out).journal_records()]
        assert events.count("shard_attempt_failed") == 2
        assert events.count("shard_failed") == 1

    def test_flaky_shard_recovers_within_budget(self, tmp_path, monkeypatch, golden):
        _, baseline = golden
        from repro.runtime import TrialExecutor

        real = TrialExecutor.run_batch
        calls = {"n": 0}

        def flaky(self, specs, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(self, specs, **kwargs)

        monkeypatch.setattr(TrialExecutor, "run_batch", flaky)
        out = tmp_path / "camp"
        result = run_campaign(small_spec(), out, retries=2)
        assert result.finalized
        assert ledger_bytes(out) == baseline
        events = [r["event"] for r in CampaignLedger(out).journal_records()]
        assert events.count("shard_attempt_failed") == 1


class TestJournalAudit:
    def test_journal_tells_the_run_story(self, tmp_path):
        out = tmp_path / "camp"
        run_campaign(small_spec(), out, max_shards=1)
        run_campaign(small_spec(), out, resume=True)
        events = [r["event"] for r in CampaignLedger(out).journal_records()]
        assert events.count("campaign_started") == 2
        assert "campaign_paused" in events
        assert events.count("shard_done") == 3
        assert "shard_skipped" in events
        assert events[-1] == "campaign_done"
