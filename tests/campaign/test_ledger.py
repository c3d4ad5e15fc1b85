"""Ledger durability: initialization guards, cached shards, journals."""

import json

import pytest

from repro.campaign import CampaignLedger, CampaignSpec, CellSpec, LedgerError
from repro.eval import TrialResult


def make_spec(seed=7):
    return CampaignSpec(
        name="ledger-unit",
        cells=[CellSpec.build("kazakhstan", "http", 11, trials=4, seed=seed)],
        shard_size=2,
    )


def fake_results(count):
    return [
        TrialResult(outcome="success", succeeded=True, censored=False)
        for _ in range(count)
    ]


def store(ledger, trials):
    """Put a result for each of ``trials`` into the ledger's cache."""
    ledger.cache.store_many([t.spec for t in trials], fake_results(len(trials)))


class TestInitialize:
    def test_fresh_directory_is_stamped(self, tmp_path):
        ledger = CampaignLedger(tmp_path / "camp")
        ledger.initialize(make_spec())
        stored = json.loads(ledger.spec_path.read_text())
        assert stored["campaign_hash"] == make_spec().campaign_hash()
        assert CampaignLedger.load_spec(tmp_path / "camp").name == "ledger-unit"

    def test_reuse_without_resume_refused(self, tmp_path):
        ledger = CampaignLedger(tmp_path)
        ledger.initialize(make_spec())
        with pytest.raises(LedgerError, match="--resume"):
            ledger.initialize(make_spec())

    def test_resume_reopens_same_campaign(self, tmp_path):
        ledger = CampaignLedger(tmp_path)
        ledger.initialize(make_spec())
        ledger.initialize(make_spec(), resume=True)  # no error

    def test_different_campaign_always_refused(self, tmp_path):
        ledger = CampaignLedger(tmp_path)
        ledger.initialize(make_spec(seed=7))
        for resume in (False, True):
            with pytest.raises(LedgerError, match="refusing"):
                ledger.initialize(make_spec(seed=8), resume=resume)

    def test_load_spec_missing_directory(self, tmp_path):
        with pytest.raises(LedgerError):
            CampaignLedger.load_spec(tmp_path / "nowhere")


class TestJournal:
    def test_records_round_trip(self, tmp_path):
        ledger = CampaignLedger(tmp_path)
        ledger.initialize(make_spec())
        ledger.journal("campaign_started", shards=2)
        ledger.journal("shard_done", shard=0)
        events = [r["event"] for r in ledger.journal_records()]
        assert events == ["campaign_started", "shard_done"]
        assert all("wall" in r for r in ledger.journal_records())

    def test_torn_final_line_is_skipped(self, tmp_path):
        ledger = CampaignLedger(tmp_path)
        ledger.initialize(make_spec())
        ledger.journal("shard_done", shard=0)
        with open(ledger.journal_path, "a") as handle:
            handle.write('{"event": "shard_done", "shard"')  # killed mid-append
        records = ledger.journal_records()
        assert [r["event"] for r in records] == ["shard_done"]


class TestCompletedShards:
    def test_empty_cache_means_no_shard_is_done(self, tmp_path):
        spec = make_spec()
        ledger = CampaignLedger(tmp_path)
        ledger.initialize(spec)
        assert ledger.completed_shards(spec.shards()) == {}
        assert ledger.cache.stats.poisoned == 0

    def test_shard_missing_one_trial_is_not_done(self, tmp_path):
        spec = make_spec()
        shards = spec.shards()
        ledger = CampaignLedger(tmp_path)
        ledger.initialize(spec)
        store(ledger, shards[0].trials[:-1])
        assert ledger.completed_shards(shards) == {}

    def test_mapping_lists_exactly_the_stored_shards(self, tmp_path):
        spec = make_spec()
        shards = spec.shards()
        ledger = CampaignLedger(tmp_path)
        ledger.initialize(spec)
        store(ledger, shards[1].trials)
        # A fresh ledger reads the files, not the writer's memory.
        done = CampaignLedger(tmp_path).completed_shards(shards)
        assert list(done) == [1]
        assert [r.outcome for r in done[1]] == ["success"] * len(shards[1].trials)

    def test_results_of_a_changed_spec_do_not_complete_it(self, tmp_path):
        spec, changed = make_spec(seed=7), make_spec(seed=8)
        ledger = CampaignLedger(tmp_path)
        ledger.initialize(spec)
        store(ledger, [t for shard in spec.shards() for t in shard.trials])
        assert list(ledger.completed_shards(spec.shards())) == [0, 1]
        assert ledger.completed_shards(changed.shards()) == {}


class TestFinalArtifacts:
    def test_results_and_report_bytes_are_deterministic(self, tmp_path):
        a, b = CampaignLedger(tmp_path / "a"), CampaignLedger(tmp_path / "b")
        lines = [{"seq": 0, "outcome": "success"}, {"seq": 1, "outcome": "censored"}]
        report = {"name": "x", "trials": 2}
        for ledger in (a, b):
            ledger.initialize(make_spec())
            assert ledger.write_results(lines) == 2
            ledger.write_report(report)
        assert a.results_path.read_bytes() == b.results_path.read_bytes()
        assert a.report_path.read_bytes() == b.report_path.read_bytes()
