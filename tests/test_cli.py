"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trial_arguments(self):
        args = build_parser().parse_args(
            ["trial", "china", "http", "--strategy", "1", "--seed", "3"]
        )
        assert args.command == "trial"
        assert args.strategy == "1"

    def test_rejects_unknown_country(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trial", "narnia", "http"])

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "china", "http", "--trials"],
            ["evolve", "china", "http", "--trials"],
            ["coevolve", "--trials"],
            ["coevolve", "--frontier-trials"],
            ["reproduce", "--trials"],
            ["profile", "--trials"],
            ["robustness", "--trials"],
            ["sni", "--trials"],
            ["campaign", "run", "sni", "--out", "unused", "--trials"],
        ],
    )
    def test_trial_counts_must_be_positive(self, argv, count, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [count])
        assert exit_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestCommands:
    def test_strategies_listing(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        assert "Sim. Open, Injected RST" in out
        assert "[TCP:flags:SA]" in out
        assert out.count("\n") >= 22  # 11 strategies, two lines each

    def test_trial_success_exit_code(self, capsys):
        code = main(["trial", "kazakhstan", "http", "--strategy", "11", "--seed", "1"])
        assert code == 0
        assert "evaded:   True" in capsys.readouterr().out

    def test_trial_censored_exit_code(self, capsys):
        code = main(["trial", "kazakhstan", "http", "--seed", "1"])
        assert code == 1
        assert "censored: True" in capsys.readouterr().out

    def test_trial_with_waterfall(self, capsys):
        main(["trial", "china", "http", "--strategy", "1", "--seed", "3", "--waterfall"])
        out = capsys.readouterr().out
        assert "--->" in out

    def test_rates_command(self, capsys):
        assert main(["rates", "kazakhstan", "http", "--strategy", "9", "--trials", "5"]) == 0
        assert "100.0%" in capsys.readouterr().out

    def test_strategy_string_accepted(self, capsys):
        code = main([
            "trial", "kazakhstan", "http", "--seed", "1",
            "--strategy", "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/",
        ])
        assert code == 0

    def test_invalid_strategy_number(self):
        with pytest.raises(SystemExit):
            main(["trial", "china", "http", "--strategy", "99"])

    def test_waterfall_command(self, capsys):
        assert main(["waterfall", "china", "ftp", "--strategy", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "outcome:" in out

    def test_matrix_command(self, capsys):
        assert main(["matrix"]) == 0
        assert "china" in capsys.readouterr().out

    def test_none_country(self, capsys):
        assert main(["trial", "none", "http", "--seed", "1"]) == 0

    def test_evolve_command(self, capsys):
        code = main([
            "evolve", "kazakhstan", "http",
            "--population", "8", "--generations", "3", "--seed", "1", "--trials", "1",
        ])
        assert code == 0
        assert "best strategy" in capsys.readouterr().out

    def test_client_os_option(self, capsys):
        code = main([
            "trial", "none", "http", "--seed", "1",
            "--client-os", "windows-10-enterprise-17134",
        ])
        assert code == 0


class TestPcapOption:
    def test_trial_writes_pcap(self, tmp_path, capsys):
        path = tmp_path / "trial.pcap"
        code = main([
            "trial", "china", "http", "--strategy", "1", "--seed", "3",
            "--pcap", str(path),
        ])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        from repro.netsim import read_pcap

        packets = read_pcap(str(path))
        assert len(packets) > 5

    def test_evolve_minimize_flag(self, capsys):
        code = main([
            "evolve", "kazakhstan", "http",
            "--population", "16", "--generations", "10", "--seed", "3",
            "--trials", "2", "--minimize",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "minimized:" in out


class TestRuntimeFlags:
    def test_rates_with_workers_matches_serial(self, capsys):
        assert main(["rates", "china", "http", "--strategy", "1",
                     "--trials", "10", "--seed", "4"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["rates", "china", "http", "--strategy", "1",
                     "--trials", "10", "--seed", "4", "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out.splitlines()[0] == parallel_out.splitlines()[0]

    def test_rates_stats_line(self, capsys):
        assert main(["rates", "kazakhstan", "http", "--strategy", "11",
                     "--trials", "4", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "stats:" in out
        assert "executed=4" in out

    def test_rates_cache_dir_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["rates", "kazakhstan", "http", "--strategy", "11",
                "--trials", "4", "--cache-dir", cache, "--stats"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "executed=4" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "executed=0" in second
        assert "cache_hits=4" in second
        assert first.splitlines()[0] == second.splitlines()[0]

    def test_no_cache_overrides_cache_dir(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["rates", "kazakhstan", "http", "--strategy", "11",
                "--trials", "2", "--cache-dir", cache, "--no-cache", "--stats"]
        assert main(args) == 0
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "executed=2" in out
        assert not (tmp_path / "cache").exists()

    def test_matrix_accepts_runtime_flags(self, capsys):
        assert main(["matrix", "--workers", "2", "--no-cache"]) == 0
        assert "china" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_metrics_json_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(["rates", "kazakhstan", "http", "--strategy", "11",
                     "--trials", "4", "--metrics-json", str(path)]) == 0
        assert "wrote metrics" in capsys.readouterr().out
        snapshot = json.loads(path.read_text())
        samples = snapshot["repro_trial_outcomes_total"]["samples"]
        assert sum(samples.values()) == 4

    def test_telemetry_tree_written(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "tele"
        assert main(["rates", "kazakhstan", "http", "--strategy", "11",
                     "--trials", "4", "--stats", "--telemetry", str(out_dir),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "telemetry artifacts" in out
        assert "cache:" in out  # --stats now reports cache health too
        for name in ("run.json", "metrics.json", "metrics.deterministic.json",
                     "metrics.prom", "runlog.jsonl"):
            assert (out_dir / name).exists(), name
        run = json.loads((out_dir / "run.json").read_text())
        assert run["command"] == "rates"
        assert run["run_stats"]["requested"] == 4
        assert len((out_dir / "runlog.jsonl").read_text().splitlines()) == 4

    def test_telemetry_deterministic_across_worker_counts(self, tmp_path, capsys):
        def run(workers, out_dir):
            assert main(["rates", "china", "http", "--strategy", "1",
                         "--trials", "6", "--seed", "4", "--workers", workers,
                         "--no-cache", "--telemetry", str(out_dir)]) == 0
            capsys.readouterr()
            return (out_dir / "metrics.deterministic.json").read_text()

        assert run("1", tmp_path / "serial") == run("2", tmp_path / "parallel")

    def test_off_by_default(self, tmp_path, capsys):
        assert main(["rates", "kazakhstan", "http", "--strategy", "11",
                     "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "telemetry" not in out
        assert "metrics" not in out


class TestProfileCommand:
    def test_profile_breakdown(self, capsys):
        assert main(["profile", "--country", "china", "--protocol", "http",
                     "--trials", "3", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "simulate" in out
        assert "trial total" in out
        assert "phase coverage:" in out
        coverage = float(out.split("phase coverage:")[1].split("%")[0])
        assert coverage >= 90.0

    def test_profile_metrics_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "profile.json"
        assert main(["profile", "--trials", "2", "--metrics-json", str(path)]) == 0
        capsys.readouterr()
        snapshot = json.loads(path.read_text())
        assert "repro_span_seconds_total" in snapshot

    def test_profile_rejects_bad_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--protocol", "gopher"])


class TestImpairmentFlags:
    def test_rates_accepts_impairment_flags(self, capsys):
        assert main([
            "rates", "china", "http", "--strategy", "1", "--trials", "4",
            "--loss", "0.05", "--net-seed", "1",
        ]) == 0
        assert "%" in capsys.readouterr().out

    def test_loss_flag_range_checked(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rates", "china", "http", "--loss", "1.5"])

    def test_robustness_json_deterministic(self, capsys):
        argv = [
            "robustness", "--trials", "2", "--loss-rates", "0.05",
            "--net-seed", "1", "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        import json

        payload = json.loads(first)
        assert sorted(payload) == [
            "china", "india", "iran", "kazakhstan", "russia", "southkorea",
        ]

    def test_robustness_table_output(self, capsys):
        assert main([
            "robustness", "--trials", "2", "--countries", "india",
            "--loss-rates", "0", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "india" in out

    def test_matrix_accepts_impairment_flags(self, capsys):
        assert main(["matrix", "--loss", "0.02", "--net-seed", "1"]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestFleetCommand:
    def test_fleet_report_and_artifact(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        code = main([
            "fleet", "--clients", "8", "--seed", "4", "--json", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "flows" in text and "evaded" in text
        import json

        payload = json.loads(out.read_text())
        assert payload["flows"] == 8
        assert len(payload["flow_records"]) == 8

    def test_fleet_artifact_identical_across_worker_counts(self, tmp_path, capsys):
        serial = tmp_path / "serial.json"
        sharded = tmp_path / "sharded.json"
        assert main(["fleet", "--clients", "8", "--seed", "4", "--json", str(serial)]) == 0
        assert main([
            "fleet", "--clients", "8", "--seed", "4", "--workers", "2",
            "--json", str(sharded),
        ]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == sharded.read_bytes()

    def test_fleet_status_lines(self, capsys):
        assert main(["fleet", "--clients", "4", "--seed", "2", "--status"]) == 0
        out = capsys.readouterr().out
        assert "admitted 4/4" in out

    def test_fleet_country_filter(self, capsys):
        assert main(["fleet", "--clients", "5", "--seed", "1", "--countries", "iran"]) == 0
        out = capsys.readouterr().out
        assert "iran/" in out
        assert "china/" not in out

    def test_fleet_empty_filter_rejected(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--clients", "5", "--countries"])  # empty list

    def test_fleet_metrics_json(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main([
            "fleet", "--clients", "4", "--seed", "2", "--metrics-json", str(metrics),
        ]) == 0
        capsys.readouterr()
        import json

        payload = json.loads(metrics.read_text())
        assert any("repro_fleet" in name for name in payload)


class TestEvolveFlags:
    ARGS = [
        "evolve", "kazakhstan", "http",
        "--population", "10", "--generations", "3", "--seed", "2", "--trials", "1",
    ]

    def test_json_deterministic_across_worker_counts(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--json", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        payload = json.loads(serial)
        assert payload["country"] == "kazakhstan"
        assert payload["config"]["population"] == 10
        assert len(payload["history"]) == payload["generations_run"]
        assert payload["hall_of_fame"]
        assert payload["best_fitness"] == payload["hall_of_fame"][0][1]

    def test_stats_reports_ga_and_executor_lines(self, capsys):
        assert main(self.ARGS + ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "stats: ga: submitted=" in out
        assert "evals_avoided=" in out
        assert "stats: trials=" in out  # executor line rides along
        assert "executed=" in out

    def test_cache_dir_makes_second_run_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = self.ARGS + ["--cache-dir", cache, "--stats"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache_hits=0" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "executed=0" in second
        assert first.split("stats:")[0] == second.split("stats:")[0]

    def test_telemetry_includes_ga_metrics(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "tele"
        assert main(self.ARGS + ["--telemetry", str(out_dir)]) == 0
        capsys.readouterr()
        snapshot = json.loads((out_dir / "metrics.json").read_text())
        assert "repro_ga_batches_total" in snapshot
        assert "repro_ga_dedup_total" in snapshot
        deterministic = json.loads(
            (out_dir / "metrics.deterministic.json").read_text()
        )
        assert "repro_ga_dedup_total" in deterministic

    def test_help_shows_strategy_range(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "--help"])
        out = capsys.readouterr().out
        from repro.core import SERVER_STRATEGIES

        expected = f"{min(SERVER_STRATEGIES)}-{max(SERVER_STRATEGIES)}"
        assert expected in out


class TestCoevolveCommand:
    ARGS = [
        "coevolve", "china",
        "--epochs", "2", "--strategy-population", "8",
        "--censor-population", "4", "--trials", "1",
        "--frontier-trials", "4", "--seed", "1",
    ]

    def test_table_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "china/http: 2 epochs of censor adaptation" in out
        assert "status" in out
        assert "strongest adapted censor" in out

    def test_json_deterministic_across_worker_counts(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--json", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        payload = json.loads(serial)
        assert payload["country"] == "china"
        assert payload["config"]["epochs"] == 2
        assert len(payload["frontier"]) == 8

    def test_default_country_and_protocol(self, capsys):
        assert main([
            "coevolve", "--epochs", "1", "--strategy-population", "6",
            "--censor-population", "3", "--trials", "1",
            "--frontier-trials", "2",
        ]) == 0
        assert "china/http" in capsys.readouterr().out

    def test_stats_flag(self, capsys):
        assert main(self.ARGS + ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "stats: coevolve: pairs=" in out
        assert "batches=" in out

    def test_telemetry_includes_coevolve_metrics(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "tele"
        assert main(self.ARGS + ["--telemetry", str(out_dir)]) == 0
        capsys.readouterr()
        snapshot = json.loads((out_dir / "metrics.json").read_text())
        assert "repro_coevolve_epochs_total" in snapshot
        assert "repro_coevolve_pairs_total" in snapshot
        assert "repro_coevolve_batches_total" in snapshot


class TestDeterministicJSONGuard:
    def test_nan_payload_rejected(self):
        from repro.cli import _dump_deterministic_json

        with pytest.raises(SystemExit, match="non-standard JSON"):
            _dump_deterministic_json({"fitness": float("nan")}, "evolve --json")

    def test_infinity_payload_rejected(self):
        from repro.cli import _dump_deterministic_json

        with pytest.raises(SystemExit, match="non-standard JSON"):
            _dump_deterministic_json({"fitness": float("inf")}, "coevolve --json")

    def test_clean_payload_sorted_and_indented(self):
        from repro.cli import _dump_deterministic_json

        out = _dump_deterministic_json({"b": 1, "a": 2}, "test")
        assert out.index('"a"') < out.index('"b"')
