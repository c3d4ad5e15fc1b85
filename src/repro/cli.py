"""Command-line interface: ``python -m repro <command>``.

Subcommands:

- ``trial``      run one censored request and print the outcome/waterfall;
- ``rates``      measure a strategy's success rate over many trials;
- ``strategies`` list the paper's 11 strategies (with their DSL);
- ``waterfall``  render the packet waterfall for a strategy;
- ``evolve``     run the genetic algorithm against a censor;
- ``coevolve``   co-evolve adaptive censor populations against strategy
  populations and report the strategy-robustness frontier
  (``coevolve china --epochs 3 --json``; see ``docs/coevolve.md``);
- ``matrix``     measure the Table 1 censorship matrix;
- ``robustness`` sweep strategy success against per-link packet loss;
- ``sni``        measure the SNI-era matrix (record-level server-side
  strategies vs the TLS-metadata censors; see ``docs/sni.md``);
- ``profile``    per-phase timing breakdown of a trial batch;
- ``campaign``   sharded, resumable experiment campaigns that checkpoint
  into a result cache inside their directory
  (``campaign run SPEC --out DIR [--resume] [--shard I/N]``,
  ``campaign presets``, ``campaign status DIR``; see
  ``docs/campaigns.md``);
- ``fleet``      long-lived serving simulation: one deployed server,
  thousands of concurrent client flows in a single world
  (``fleet --clients 1000 --workers 4 --json out.json``; see
  ``docs/fleet.md``).

``rates``, ``matrix`` and ``reproduce`` accept network-impairment flags
(``--loss/--dup/--reorder/--net-seed``) to run under a degraded path.

Batch commands accept ``--telemetry DIR`` (full observability artifact
tree: metrics JSON + Prometheus text + structured run log) and
``--metrics-json FILE`` (just the metric snapshot); see
``docs/observability.md``.

Examples::

    python -m repro trial china http --strategy 1 --seed 3
    python -m repro rates kazakhstan http --strategy 9 --trials 50
    python -m repro waterfall china ftp --strategy 5
    python -m repro evolve kazakhstan http --population 30 --generations 30
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .censors import COUNTRIES, countries_with
from .core import SERVER_STRATEGIES, Strategy, deployed_strategy
from .core.evolution import CensorTrialEvaluator, GAConfig, GeneticAlgorithm
from .eval import PROTOCOLS, run_trial, success_rate
from .eval.matrix import format_matrix, measure_censorship_matrix
from .eval.waterfall import render_waterfall

__all__ = ["main", "build_parser"]

#: Library strategy numbers, rendered dynamically so help text tracks
#: additions to the strategy library without edits here.
_STRATEGY_RANGE = f"{min(SERVER_STRATEGIES)}-{max(SERVER_STRATEGIES)}"


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    censors = list(COUNTRIES)  # read now: a country registered later is offered
    countries = censors + ["none"]
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Server-side censorship evasion (SIGCOMM 2020) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target(p):
        p.add_argument("country", choices=countries, help="censor to run against")
        p.add_argument("protocol", choices=PROTOCOLS, help="application protocol")
        p.add_argument(
            "--strategy",
            default=None,
            help=f"library strategy number ({_STRATEGY_RANGE}) "
                 "or a full Geneva strategy string",
        )
        p.add_argument("--seed", type=int, default=0, help="deterministic seed")
        p.add_argument(
            "--client-os",
            default="ubuntu-18.04.1",
            help="client OS personality (see repro.tcpstack.PERSONALITIES)",
        )

    p_trial = sub.add_parser("trial", help="run one trial")
    add_target(p_trial)
    p_trial.add_argument(
        "--waterfall", action="store_true", help="print the packet waterfall"
    )
    p_trial.add_argument(
        "--pcap", default=None, metavar="FILE",
        help="write the trial's packets to a pcap file (opens in Wireshark)",
    )

    def positive_int(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

    def add_runtime_flags(p):
        p.add_argument(
            "--workers", type=positive_int, default=1,
            help="worker processes for the trial batch (1 = serial in-process)",
        )
        p.add_argument(
            "--cache", action="store_true",
            help="enable the on-disk result cache (.repro_cache/)",
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="enable the on-disk result cache at DIR",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="disable the result cache entirely",
        )
        p.add_argument(
            "--stats", action="store_true",
            help="print executor counters (trials run, cache hits, wall time)",
        )
        p.add_argument(
            "--telemetry", default=None, metavar="DIR",
            help="write the observability artifact tree (metrics JSON, "
                 "Prometheus text, structured run log) to DIR",
        )
        p.add_argument(
            "--metrics-json", default=None, metavar="FILE",
            help="write the run's metric snapshot as JSON to FILE",
        )

    def probability(text):
        value = float(text)
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError("must be in [0, 1]")
        return value

    def add_impairment_flags(p):
        p.add_argument(
            "--loss", type=probability, default=0.0, metavar="P",
            help="per-link packet loss probability",
        )
        p.add_argument(
            "--dup", type=probability, default=0.0, metavar="P",
            help="per-link packet duplication probability",
        )
        p.add_argument(
            "--reorder", type=probability, default=0.0, metavar="P",
            help="per-link packet reordering probability",
        )
        p.add_argument(
            "--net-seed", type=int, default=None, metavar="N",
            help="pin the impairment randomness (default: split from each "
                 "trial's own seed)",
        )

    p_rates = sub.add_parser("rates", help="measure a success rate")
    add_target(p_rates)
    p_rates.add_argument("--trials", type=positive_int, default=100)
    add_runtime_flags(p_rates)
    add_impairment_flags(p_rates)

    p_water = sub.add_parser("waterfall", help="render a packet waterfall")
    add_target(p_water)

    sub.add_parser("strategies", help="list the paper's strategies")

    p_explain = sub.add_parser(
        "explain", help="describe what a strategy does on the wire"
    )
    p_explain.add_argument(
        "strategy",
        help=f"library strategy number ({_STRATEGY_RANGE}) "
             "or a Geneva strategy string",
    )
    p_explain.add_argument("--seed", type=int, default=0)

    p_evolve = sub.add_parser("evolve", help="run the genetic algorithm")
    p_evolve.add_argument("country", choices=censors)
    p_evolve.add_argument("protocol", choices=PROTOCOLS)
    p_evolve.add_argument("--population", type=int, default=30)
    p_evolve.add_argument("--generations", type=int, default=30)
    p_evolve.add_argument("--seed", type=int, default=3)
    p_evolve.add_argument("--trials", type=positive_int, default=3)
    p_evolve.add_argument(
        "--minimize",
        action="store_true",
        help="prune the winning strategy to its minimal working form",
    )
    p_evolve.add_argument(
        "--json", action="store_true",
        help="emit the GA result as deterministic JSON (identical for any "
             "--workers value)",
    )
    add_runtime_flags(p_evolve)

    p_coevolve = sub.add_parser(
        "coevolve",
        help="co-evolve adaptive censors against strategy populations",
    )
    p_coevolve.add_argument(
        "country", nargs="?", default="china", choices=censors,
        help="censor country to adapt (default: china)",
    )
    p_coevolve.add_argument(
        "protocol", nargs="?", default=None, choices=PROTOCOLS,
        help="application protocol (default: the country's paper protocol)",
    )
    p_coevolve.add_argument("--epochs", type=int, default=3)
    p_coevolve.add_argument(
        "--strategy-population", type=int, default=12,
        help="Geneva strategy population size (default: 12)",
    )
    p_coevolve.add_argument(
        "--censor-population", type=int, default=6,
        help="censor genome population size (default: 6)",
    )
    p_coevolve.add_argument(
        "--trials", type=positive_int, default=2,
        help="trials per strategy x censor pair during the search",
    )
    p_coevolve.add_argument(
        "--frontier-trials", type=positive_int, default=10,
        help="trials per pair for the final frontier report",
    )
    p_coevolve.add_argument("--seed", type=int, default=1)
    p_coevolve.add_argument(
        "--json", action="store_true",
        help="emit the robustness frontier as deterministic JSON "
             "(identical for any --workers value)",
    )
    add_runtime_flags(p_coevolve)

    p_matrix = sub.add_parser("matrix", help="measure the censorship matrix")
    p_matrix.add_argument("--seed", type=int, default=0)
    add_runtime_flags(p_matrix)
    add_impairment_flags(p_matrix)

    p_repro = sub.add_parser(
        "reproduce", help="regenerate the paper's tables and figures"
    )
    p_repro.add_argument("--out", default="results", help="output directory")
    p_repro.add_argument("--trials", type=positive_int, default=150)
    p_repro.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="subset of experiments (e.g. table2 figure3)",
    )
    add_runtime_flags(p_repro)
    add_impairment_flags(p_repro)

    p_profile = sub.add_parser(
        "profile", help="per-phase timing breakdown of a trial batch"
    )
    p_profile.add_argument(
        "--country", choices=countries, default="china",
        help="censor to profile against (default: china)",
    )
    p_profile.add_argument(
        "--protocol", choices=PROTOCOLS, default="http",
        help="application protocol (default: http)",
    )
    p_profile.add_argument(
        "--strategy", default=None,
        help=f"library strategy number ({_STRATEGY_RANGE}) "
             "or a Geneva strategy string",
    )
    p_profile.add_argument("--trials", type=positive_int, default=5)
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument(
        "--metrics-json", default=None, metavar="FILE",
        help="also write the profiled run's metric snapshot to FILE",
    )

    p_robust = sub.add_parser(
        "robustness", help="success-vs-loss curves per country"
    )
    p_robust.add_argument(
        "--loss-rates", type=probability, nargs="*", default=None, metavar="P",
        help="per-link loss probabilities to sweep (default: a small grid)",
    )
    p_robust.add_argument(
        "--countries", nargs="*", default=None, choices=censors,
        help="countries to sweep (default: every registered country)",
    )
    p_robust.add_argument("--trials", type=positive_int, default=20)
    p_robust.add_argument("--seed", type=int, default=0)
    p_robust.add_argument(
        "--net-seed", type=int, default=None, metavar="N",
        help="pin the impairment randomness",
    )
    p_robust.add_argument(
        "--json", action="store_true",
        help="emit the curves as deterministic JSON instead of a table",
    )
    add_runtime_flags(p_robust)

    p_sni = sub.add_parser(
        "sni", help="measure the SNI-era matrix (SNI censors vs strategies 12-15)"
    )
    p_sni.add_argument("--trials", type=positive_int, default=30)
    p_sni.add_argument("--seed", type=int, default=0)
    p_sni.add_argument(
        "--countries", nargs="*", default=None,
        choices=countries_with("sni"),
        help="SNI-censoring countries to measure (default: both)",
    )
    p_sni.add_argument(
        "--json", action="store_true",
        help="emit the grid as deterministic JSON instead of a table",
    )
    add_runtime_flags(p_sni)

    p_campaign = sub.add_parser(
        "campaign", help="sharded, checkpointed, resumable experiment campaigns"
    )
    camp_sub = p_campaign.add_subparsers(dest="campaign_command", required=True)

    c_run = camp_sub.add_parser(
        "run", help="run (or resume) a campaign spec or preset"
    )
    c_run.add_argument(
        "spec",
        help="campaign spec JSON file, or a preset name (see 'campaign presets')",
    )
    c_run.add_argument(
        "--out", required=True, metavar="DIR",
        help="campaign ledger directory (journal, result cache, report)",
    )
    c_run.add_argument(
        "--resume", action="store_true",
        help="continue an existing ledger; completed shards are skipped",
    )
    c_run.add_argument(
        "--shard", type=shard_selector, default=None, metavar="I/N",
        help="run only this machine's share of the shards (1-based I of N)",
    )
    c_run.add_argument(
        "--trials", type=positive_int, default=None, metavar="N",
        help="preset scale override / per-cell trial cap for file specs",
    )
    c_run.add_argument(
        "--seed", type=int, default=None, help="preset base-seed override"
    )
    c_run.add_argument(
        "--shard-size", type=positive_int, default=None, metavar="N",
        help="trials per shard (the checkpoint granularity)",
    )
    c_run.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="process at most N shards this invocation, then checkpoint "
             "and exit (continue later with --resume)",
    )
    c_run.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="extra attempts per failing shard before aborting (default 2)",
    )
    c_run.add_argument(
        "--workers", type=positive_int, default=1,
        help="worker processes for shard execution (1 = serial in-process)",
    )

    camp_sub.add_parser("presets", help="list the canned campaign presets")

    p_fleet = sub.add_parser(
        "fleet", help="one deployed server vs a stream of concurrent client flows"
    )
    p_fleet.add_argument(
        "--clients", type=positive_int, default=500,
        help="number of client flows in the arrival stream (default 500)",
    )
    p_fleet.add_argument("--seed", type=int, default=0, help="deterministic seed")
    p_fleet.add_argument(
        "--spacing", type=float, default=0.1, metavar="S",
        help="fixed inter-arrival gap in virtual seconds (default 0.1)",
    )
    p_fleet.add_argument(
        "--rate", type=float, default=None, metavar="R",
        help="Poisson arrival rate in flows per virtual second "
             "(overrides --spacing)",
    )
    p_fleet.add_argument(
        "--countries", nargs="*", default=None, choices=countries,
        help="restrict the default mix to these countries "
             "('none' keeps the uncensored cohort)",
    )
    p_fleet.add_argument(
        "--max-time", type=float, default=40.0, metavar="T",
        help="per-flow virtual deadline (default 40, the single-trial horizon)",
    )
    p_fleet.add_argument(
        "--trace", choices=["none", "ring", "full"], default="none",
        help="per-flow trace capture (default none; 'none' enables "
             "packet-arena leases)",
    )
    p_fleet.add_argument(
        "--workers", type=positive_int, default=1,
        help="worker processes (flows shard round-robin; records are "
             "byte-identical for any worker count)",
    )
    p_fleet.add_argument(
        "--status", action="store_true",
        help="print a live status line as flows complete (serial runs only)",
    )
    p_fleet.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the deterministic FleetStats JSON artifact to FILE",
    )
    p_fleet.add_argument(
        "--metrics-json", default=None, metavar="FILE",
        help="write the run's metric snapshot as JSON to FILE",
    )

    c_status = camp_sub.add_parser(
        "status", help="show a campaign ledger's progress"
    )
    c_status.add_argument("dir", help="campaign ledger directory")

    return parser


def shard_selector(text: str):
    """argparse type for ``--shard I/N``: returns ``(I, N)`` validated."""
    import re

    match = re.fullmatch(r"(\d+)/(\d+)", text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"must look like I/N (e.g. 2/4), got {text!r}"
        )
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1 or index < 1 or index > count:
        raise argparse.ArgumentTypeError(
            f"need 1 <= I <= N, got {index}/{count}"
        )
    return (index, count)


def _resolve_cache(args, default=None):
    """Turn the --cache/--cache-dir/--no-cache triplet into a cache arg."""
    from .runtime import DEFAULT_CACHE_DIR

    if args.no_cache:
        return None
    if args.cache_dir:
        return args.cache_dir
    if args.cache:
        return DEFAULT_CACHE_DIR
    return default


def _resolve_impairment(args):
    """Build an impairment policy from --loss/--dup/--reorder (or None)."""
    if not (args.loss or args.dup or args.reorder):
        return None
    from .netsim import Impairment

    return Impairment(loss=args.loss, dup=args.dup, reorder=args.reorder)


def _make_executor(args, cache_default=None):
    """Build the command's TrialExecutor, telemetry-enabled if requested.

    Metric collection turns on only when an output was asked for
    (``--telemetry``/``--metrics-json``), so unmeasured runs pay nothing
    for snapshot pickling; a run log is kept only for the full
    ``--telemetry`` tree.
    """
    from .runtime import TrialExecutor

    runlog = None
    if args.telemetry:
        from .obs import RunLog

        runlog = RunLog()
    return TrialExecutor(
        workers=args.workers,
        cache=_resolve_cache(args, default=cache_default),
        collect_metrics=bool(args.telemetry or args.metrics_json),
        runlog=runlog,
    )


def _finish_run(args, executor, command: str) -> None:
    """Shared epilogue for batch commands: --stats and telemetry output."""
    if args.stats:
        for line in executor.format_stats().splitlines():
            print(f"stats: {line}")
    if not (args.telemetry or args.metrics_json):
        return
    from .obs import write_metrics_json, write_telemetry

    snapshot = executor.metrics_snapshot()
    if args.metrics_json:
        write_metrics_json(args.metrics_json, snapshot)
        print(f"wrote metrics to {args.metrics_json}")
    if args.telemetry:
        meta = {
            "command": command,
            "run_stats": executor.total_stats.as_dict(),
        }
        if executor.cache is not None:
            meta["cache_stats"] = executor.cache.stats.as_dict()
        written = write_telemetry(
            args.telemetry, snapshot, runlog=executor.runlog, run_meta=meta
        )
        print(f"wrote {len(written)} telemetry artifacts to {args.telemetry}/")


def _dump_deterministic_json(payload, label: str) -> str:
    """Serialize a ``--json`` payload, refusing NaN/Infinity outright.

    ``json.dumps`` happily emits the non-standard tokens ``NaN`` and
    ``Infinity``, which most consumers (and ``json.loads`` in strict
    mode) reject. A NaN fitness means the run is broken; fail loudly
    instead of emitting JSON that breaks downstream parsers.
    """
    import json as _json

    try:
        return _json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise SystemExit(
            f"{label}: refusing to emit non-standard JSON "
            f"(NaN/Infinity in payload): {exc}"
        )


def _resolve_strategy(text: Optional[str]) -> Optional[Strategy]:
    if text is None:
        return None
    if text.isdigit():
        number = int(text)
        if number not in SERVER_STRATEGIES:
            valid = f"{min(SERVER_STRATEGIES)}-{max(SERVER_STRATEGIES)}"
            raise SystemExit(f"unknown strategy number {number} (valid: {valid})")
        return deployed_strategy(number)
    return Strategy.parse(text)


def _country(name: str) -> Optional[str]:
    return None if name == "none" else name


def _load_campaign_spec(args):
    """Resolve the campaign ``spec`` argument: preset name or JSON file."""
    from .campaign import PRESETS, CampaignSpec

    if args.spec in PRESETS:
        overrides = {}
        if args.trials is not None:
            overrides["trials"] = args.trials
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.shard_size is not None:
            overrides["shard_size"] = args.shard_size
        return PRESETS[args.spec](**overrides)
    spec = CampaignSpec.from_file(args.spec)
    if args.trials is not None:
        for cell in spec.cells:
            cell.trials = min(cell.trials, args.trials)
    if args.shard_size is not None:
        spec.shard_size = args.shard_size
    return spec


def _campaign(args) -> int:
    """Dispatch the ``campaign`` subcommands (run / presets / status)."""
    from .campaign import (
        PRESETS,
        CampaignError,
        CampaignLedger,
        LedgerError,
        format_campaign,
        run_campaign,
    )

    if args.campaign_command == "presets":
        for name in sorted(PRESETS):
            spec = PRESETS[name]()
            print(
                f"{name:<14} {len(spec.cells):>3} cells, "
                f"{spec.total_trials:>5} trials  {spec.description}"
            )
        return 0

    if args.campaign_command == "status":
        ledger = CampaignLedger(args.dir)
        try:
            spec = CampaignLedger.load_spec(args.dir)
        except (LedgerError, CampaignError) as exc:
            raise SystemExit(f"campaign status: {exc}")
        shards = spec.shards()
        done = ledger.completed_shards(shards)
        trials_done = sum(len(shards[i].trials) for i in done)
        print(f"campaign:  {spec.name} ({spec.campaign_hash()[:16]})")
        print(f"shards:    {len(done)}/{len(shards)} complete")
        print(f"trials:    {trials_done}/{spec.total_trials} complete")
        poisoned = ledger.cache.stats.poisoned
        if poisoned:
            print(f"poisoned:  {poisoned} cache file(s) failed verification")
        print(
            "report:    "
            + ("written" if ledger.report_path.exists() else "pending")
        )
        return 0 if len(done) == len(shards) else 1

    try:
        spec = _load_campaign_spec(args)
        result = run_campaign(
            spec,
            args.out,
            resume=args.resume,
            shard=args.shard,
            workers=args.workers,
            retries=args.retries,
            max_shards=args.max_shards,
            echo=print,
        )
    except (CampaignError, LedgerError) as exc:
        raise SystemExit(f"campaign run: {exc}")
    print(format_campaign(result))
    return 0


def _fleet(args) -> int:
    """Dispatch the ``fleet`` command."""
    from .fleet import DEFAULT_MIX, FleetSpec, run_fleet

    mix = DEFAULT_MIX
    if args.countries is not None:
        wanted = {None if name == "none" else name for name in args.countries}
        mix = tuple(entry for entry in DEFAULT_MIX if entry.country in wanted)
        if not mix:
            valid = sorted(
                (entry.country or "none") for entry in DEFAULT_MIX
            )
            raise SystemExit(
                "fleet: --countries filtered out the entire mix "
                f"(valid: {', '.join(dict.fromkeys(valid))})"
            )
    spec = FleetSpec(
        clients=args.clients,
        seed=args.seed,
        mix=mix,
        spacing=args.spacing,
        rate=args.rate,
        max_time=args.max_time,
        trace=args.trace,
    )

    on_flow_done = None
    if args.status and args.workers == 1:
        from .fleet import FleetStats

        step = max(1, args.clients // 25)
        status = FleetStats(spec, []).format_status

        def on_flow_done(world, record):
            done = len(world.records)
            if done % step == 0 or done == args.clients:
                print(status(world))

    if args.metrics_json:
        from .obs import write_metrics_json
        from .obs.metrics import collecting

        with collecting() as registry:
            result = run_fleet(spec, workers=args.workers, on_flow_done=on_flow_done)
        write_metrics_json(args.metrics_json, registry.snapshot())
        print(f"wrote metrics to {args.metrics_json}")
    else:
        result = run_fleet(spec, workers=args.workers, on_flow_done=on_flow_done)

    print(result.stats.format_report())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(result.stats.to_json())
        print(f"wrote fleet artifact to {args.json}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "campaign":
        return _campaign(args)

    if args.command == "fleet":
        return _fleet(args)

    if args.command == "strategies":
        for number, record in SERVER_STRATEGIES.items():
            countries = ",".join(record.countries)
            print(f"{number:>2}  {record.name:<28} [{countries}]")
            print(f"    {record.dsl}")
        return 0

    if args.command == "matrix":
        executor = _make_executor(args)
        print(
            format_matrix(
                measure_censorship_matrix(
                    seed=args.seed,
                    executor=executor,
                    impairment=_resolve_impairment(args),
                    net_seed=args.net_seed,
                )
            )
        )
        _finish_run(args, executor, "matrix")
        return 0

    if args.command == "profile":
        from .obs import format_profile, profile_run

        result = profile_run(
            _country(args.country),
            args.protocol,
            strategy=_resolve_strategy(args.strategy),
            trials=args.trials,
            seed=args.seed,
        )
        print(format_profile(result))
        if args.metrics_json:
            from .obs import write_metrics_json

            write_metrics_json(args.metrics_json, result.snapshot)
            print(f"wrote metrics to {args.metrics_json}")
        return 0

    if args.command == "sni":
        from .eval.sni_matrix import format_sni_matrix, sni_matrix

        executor = _make_executor(args)
        cells = sni_matrix(
            trials=args.trials,
            seed=args.seed,
            countries=args.countries,
            executor=executor,
        )
        if args.json:
            import json

            # Sorted dump => byte-identical output for identical
            # invocations (the CI smoke job diffs two runs).
            payload = {}
            for cell in cells:
                payload.setdefault(cell.country, {})[cell.column] = cell.measured
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print(format_sni_matrix(cells))
        _finish_run(args, executor, "sni")
        return 0

    if args.command == "robustness":
        from .eval.sweeps import (
            DEFAULT_LOSS_GRID,
            format_robustness,
            impairment_robustness_sweep,
        )

        executor = _make_executor(args)
        curves = impairment_robustness_sweep(
            loss_rates=tuple(args.loss_rates) if args.loss_rates else DEFAULT_LOSS_GRID,
            countries=args.countries,
            trials=args.trials,
            seed=args.seed,
            net_seed=args.net_seed,
            executor=executor,
        )
        if args.json:
            import json

            # String keys + sorted dump => byte-identical output for
            # identical invocations (the CI smoke job diffs two runs).
            payload = {
                country: {f"{loss:g}": rate for loss, rate in curve.items()}
                for country, curve in curves.items()
            }
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print(format_robustness(curves))
        _finish_run(args, executor, "robustness")
        return 0

    if args.command == "reproduce":
        from .eval.report import reproduce_all

        # Batch reproduction caches by default (under the output tree) so
        # re-runs only pay for what changed; --no-cache opts out.
        import pathlib

        default_cache = str(pathlib.Path(args.out) / ".repro_cache")
        executor = _make_executor(args, cache_default=default_cache)
        written = reproduce_all(
            args.out,
            trials=args.trials,
            only=args.only,
            impairment=_resolve_impairment(args),
            net_seed=args.net_seed,
            executor=executor,
        )
        print(f"wrote {len(written)} artifacts to {args.out}/")
        _finish_run(args, executor, "reproduce")
        return 0

    if args.command == "explain":
        from .core import explain

        strategy = _resolve_strategy(args.strategy)
        report = explain(strategy, seed=args.seed)
        print(report.render())
        return 1 if report.breaks_handshake else 0

    if args.command == "evolve":
        executor = _make_executor(args)
        evaluator = CensorTrialEvaluator(
            args.country, args.protocol, trials=args.trials, seed=5,
            executor=executor,
        )
        ga = GeneticAlgorithm(
            evaluator,
            config=GAConfig(
                population_size=args.population,
                generations=args.generations,
                seed=args.seed,
                convergence_patience=max(8, args.generations // 3),
            ),
        )
        def _search():
            outcome = ga.run()
            if args.minimize:
                from .core.evolution import minimize

                return outcome, minimize(outcome.best, evaluator)
            return outcome, None

        if executor.metrics is not None:
            # Route the GA's own counters (generations, dedup hits, batch
            # sizes) into the telemetry registry alongside trial metrics.
            from .obs.metrics import collecting

            with collecting(executor.metrics):
                result, minimized = _search()
        else:
            result, minimized = _search()
        if args.json:
            import json as _json

            payload = {
                "country": args.country,
                "protocol": args.protocol,
                "config": {
                    "population": args.population,
                    "generations": args.generations,
                    "seed": args.seed,
                    "trials": args.trials,
                },
                "generations_run": result.generations_run,
                "best_fitness": result.best_fitness,
                "best": str(result.best),
                "history": result.history,
                "hall_of_fame": [
                    [text, fitness] for text, fitness in result.hall_of_fame
                ],
            }
            if minimized is not None:
                payload["minimized"] = {
                    "strategy": str(minimized[0]),
                    "fitness": minimized[1],
                }
            print(_dump_deterministic_json(payload, "evolve --json"))
        else:
            print(f"generations run: {result.generations_run}")
            print(f"best fitness:    {result.best_fitness:.1f}")
            print(f"best strategy:   {result.best}")
            if minimized is not None:
                print(
                    f"minimized:       {minimized[0]} "
                    f"(fitness {minimized[1]:.1f})"
                )
        if args.stats:
            print(f"stats: {evaluator.stats.format()}")
        _finish_run(args, executor, "evolve")
        return 0

    if args.command == "coevolve":
        from .core.evolution import CoevolveConfig, run_coevolution

        executor = _make_executor(args)
        config = CoevolveConfig(
            epochs=args.epochs,
            strategy_population=args.strategy_population,
            censor_population=args.censor_population,
            trials=args.trials,
            frontier_trials=args.frontier_trials,
            seed=args.seed,
        )

        def _race():
            return run_coevolution(
                args.country,
                protocol=args.protocol,
                config=config,
                executor=executor,
            )

        if executor.metrics is not None:
            from .obs.metrics import collecting

            with collecting(executor.metrics):
                result = _race()
        else:
            result = _race()
        if args.json:
            print(_dump_deterministic_json(result.as_dict(), "coevolve --json"))
        else:
            print(
                f"{result.country}/{result.protocol}: "
                f"{len(result.epochs)} epochs of censor adaptation"
            )
            print(f"{'#':>3} {'strategy':<30} {'static':>7} {'adapted':>8}  status")
            for entry in result.frontier:
                print(
                    f"{entry.number:>3} {entry.name[:30]:<30} "
                    f"{entry.static_rate:>7.2f} {entry.adapted_rate:>8.2f}  "
                    f"{entry.status}"
                )
            for novel in result.novel_strategies:
                print(
                    f"novel: {novel['strategy']}  "
                    f"static={novel['static_rate']:.2f} "
                    f"adapted={novel['adapted_rate']:.2f}"
                )
            top = result.final_censor_hof[0]
            print(
                f"strongest adapted censor defeats "
                f"{top['defeat_rate']:.0%} of paper strategies: "
                f"{top['genome']['params']}"
            )
        if args.stats:
            print(f"stats: {result.stats.format()}")
        _finish_run(args, executor, "coevolve")
        return 0

    strategy = _resolve_strategy(args.strategy)
    country = _country(args.country)

    if args.command == "trial":
        result = run_trial(
            country, args.protocol, strategy, seed=args.seed, client_os=args.client_os
        )
        print(f"outcome:  {result.outcome}")
        print(f"evaded:   {result.succeeded}")
        print(f"censored: {result.censored}")
        if args.waterfall:
            print(render_waterfall(result.trace))
        if args.pcap:
            from .netsim import write_pcap

            count = write_pcap(result.trace, args.pcap)
            print(f"wrote {count} packets to {args.pcap}")
        return 0 if result.succeeded else 1

    if args.command == "rates":
        executor = _make_executor(args)
        rate = success_rate(
            country,
            args.protocol,
            strategy,
            trials=args.trials,
            seed=args.seed,
            client_os=args.client_os,
            executor=executor,
            impairment=_resolve_impairment(args),
            net_seed=args.net_seed,
        )
        label = args.strategy if args.strategy else "no evasion"
        print(
            f"{args.country}/{args.protocol} strategy={label}: "
            f"{rate * 100:.1f}% over {args.trials} trials"
        )
        _finish_run(args, executor, "rates")
        return 0

    if args.command == "waterfall":
        result = run_trial(
            country, args.protocol, strategy, seed=args.seed, client_os=args.client_os
        )
        print(render_waterfall(result.trace, title=f"outcome: {result.outcome}"))
        return 0

    raise SystemExit(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
