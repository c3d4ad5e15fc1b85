"""CLI surface of the campaign subsystem: parsing, runs, status."""

import json

import pytest

from repro.campaign import CampaignLedger
from repro.cli import build_parser, main, shard_selector


def spec_file(tmp_path, trials=4, shard_size=3):
    """Write a small two-cell campaign spec JSON; returns its path."""
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "name": "cli-unit",
                "shard_size": shard_size,
                "cells": [
                    {
                        "country": "kazakhstan",
                        "protocol": "http",
                        "server_strategy": 11,
                        "trials": trials,
                        "seed": 7,
                    },
                    {
                        "country": "kazakhstan",
                        "protocol": "http",
                        "trials": trials,
                        "seed": 9,
                    },
                ],
            }
        )
    )
    return str(path)


class TestShardSelector:
    def test_accepts_valid_selector(self):
        assert shard_selector("2/4") == (2, 4)
        assert shard_selector("1/1") == (1, 1)

    @pytest.mark.parametrize("text", ["0/4", "5/4", "1/0", "abc", "2-4", "1/", "/4"])
    def test_rejects_bad_selectors(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            shard_selector(text)

    def test_parser_wires_the_type(self, tmp_path):
        args = build_parser().parse_args(
            ["campaign", "run", "table2-china", "--out", str(tmp_path), "--shard", "2/4"]
        )
        assert args.shard == (2, 4)

    @pytest.mark.parametrize("text", ["0/4", "5/4", "abc"])
    def test_parser_rejects_bad_selectors(self, tmp_path, text):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "run", "x", "--out", str(tmp_path), "--shard", text]
            )


class TestPresetsCommand:
    def test_lists_every_preset(self, capsys):
        assert main(["campaign", "presets"]) == 0
        out = capsys.readouterr().out
        for name in ("matrix", "robustness", "table2", "table2-china"):
            assert name in out


class TestRunCommand:
    def test_spec_file_run_and_status(self, tmp_path, capsys):
        spec = spec_file(tmp_path)
        out_dir = str(tmp_path / "camp")
        assert main(["campaign", "run", spec, "--out", out_dir]) == 0
        stdout = capsys.readouterr().out
        assert "campaign complete" in stdout
        assert "report:" in stdout
        assert main(["campaign", "status", out_dir]) == 0
        status = capsys.readouterr().out
        assert "3/3 complete" in status
        assert "8/8 complete" in status

    def test_status_of_partial_run_exits_nonzero(self, tmp_path, capsys):
        spec = spec_file(tmp_path)
        out_dir = str(tmp_path / "camp")
        assert main(
            ["campaign", "run", spec, "--out", out_dir, "--max-shards", "1"]
        ) == 0
        capsys.readouterr()
        assert main(["campaign", "status", out_dir]) == 1
        assert "1/3 complete" in capsys.readouterr().out

    def test_status_removes_and_reports_a_poisoned_cache_file(self, tmp_path, capsys):
        spec = spec_file(tmp_path)
        out_dir = tmp_path / "camp"
        main(["campaign", "run", spec, "--out", str(out_dir)])
        capsys.readouterr()
        victim = sorted(out_dir.glob("cache/shapes/*/*/*.json"))[0]
        victim.write_text(victim.read_text()[:-20] + "}")
        assert main(["campaign", "status", str(out_dir)]) == 1
        assert "poisoned:  1 cache file(s)" in capsys.readouterr().out
        assert not victim.exists()

    def test_rerun_without_resume_fails(self, tmp_path, capsys):
        spec = spec_file(tmp_path)
        out_dir = str(tmp_path / "camp")
        main(["campaign", "run", spec, "--out", out_dir])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--resume"):
            main(["campaign", "run", spec, "--out", out_dir])

    def test_resume_finishes_a_partial_run(self, tmp_path, capsys):
        spec = spec_file(tmp_path)
        out_dir = str(tmp_path / "camp")
        main(["campaign", "run", spec, "--out", out_dir, "--max-shards", "2"])
        capsys.readouterr()
        assert main(["campaign", "run", spec, "--out", out_dir, "--resume"]) == 0
        assert "campaign complete" in capsys.readouterr().out
        ledger = CampaignLedger(out_dir)
        assert ledger.results_path.exists() and ledger.report_path.exists()

    def test_preset_run_with_trials_override(self, tmp_path, capsys):
        out_dir = str(tmp_path / "camp")
        code = main(
            [
                "campaign", "run", "table2-china",
                "--out", out_dir, "--trials", "1", "--shard-size", "20",
            ]
        )
        assert code == 0
        report = json.loads(CampaignLedger(out_dir).report_path.read_text())
        assert report["name"] == "table2-china"
        assert report["trials"] == 45  # 9 strategies x 5 protocols x 1 trial

    def test_trials_flag_caps_spec_file_cells(self, tmp_path, capsys):
        spec = spec_file(tmp_path, trials=4)
        out_dir = str(tmp_path / "camp")
        assert main(
            ["campaign", "run", spec, "--out", out_dir, "--trials", "2"]
        ) == 0
        report = json.loads(CampaignLedger(out_dir).report_path.read_text())
        assert report["trials"] == 4  # two cells capped at 2 trials each

    def test_missing_spec_file_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="campaign run"):
            main(
                ["campaign", "run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "c")]
            )

    def test_status_of_uninitialized_dir_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="campaign status"):
            main(["campaign", "status", str(tmp_path / "empty")])
