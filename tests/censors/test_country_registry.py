"""Dry run of a new censor: one Censor subclass plus one registry entry.

A throwaway country is registered with ``monkeypatch.setitem`` and then
driven through every consumer of the country registry: single trials
(traced and trace-free), the batch executor with its spec and cache, the
censor genome, campaign cells, the fleet and its per-client selector,
the Table 1 matrix and the CLI's choices. Every consumer must read the
registry when it runs, not a copy taken at import.
"""

import random

import pytest

from repro.campaign import CellSpec
from repro.censors import COUNTRIES, Censor, CountryProfile, ParamSpec
from repro.censors.adaptive import CensorGenome
from repro.cli import build_parser
from repro.core import deployed_strategy
from repro.eval.matrix import measure_censorship_matrix
from repro.eval.runner import Trial, success_rate
from repro.fleet import FleetMixEntry, FleetSpec, run_fleet
from repro.runtime import ResultCache, TrialExecutor

COUNTRY = "testland"
KEYWORD = b"forbidden.example.test"


class KeywordDropCensor(Censor):
    """Drops every client packet whose payload carries the keyword."""

    name = COUNTRY

    def __init__(self, enabled=True):
        super().__init__()
        self.enabled = enabled

    def process(self, packet, direction, ctx):
        """Drop (and count) a client packet carrying the keyword."""
        if (
            self.enabled
            and self.is_client_to_server(direction)
            and packet.tcp is not None
            and KEYWORD in packet.load
        ):
            self.record_censorship(ctx, packet, "keyword")
            return []
        return [packet]


@pytest.fixture
def testland(monkeypatch):
    profile = CountryProfile(
        workloads={"http": {"path": "/", "host_header": KEYWORD.decode()}},
        vantage_points=("Testville",),
        params=(ParamSpec("enabled", "bool", 0, 1, True),),
        builder=lambda params, rng: KeywordDropCensor(params["enabled"]),
        strategies={"http": 8},
        sweep_protocol="http",
        coevolve_protocol="http",
        fleet_prefix="10.9",
    )
    monkeypatch.setitem(COUNTRIES, COUNTRY, profile)
    return profile


def test_trial_traced_and_trace_free(testland):
    for capture in (True, False):
        trial = Trial(COUNTRY, "http", seed=1, capture_trace=capture)
        assert isinstance(trial.censor, KeywordDropCensor)
        blocked = trial.run()
        assert blocked.censored and not blocked.succeeded
        assert bool(blocked.trace.events) == capture
        evaded = Trial(
            COUNTRY, "http", deployed_strategy(8), seed=1, capture_trace=capture
        ).run()
        assert evaded.succeeded


def test_success_rate_through_executor_and_cache(testland, tmp_path):
    strategy = deployed_strategy(8)
    assert success_rate(COUNTRY, "http", None, trials=4, seed=3) == 0.0
    cold = TrialExecutor(cache=ResultCache(tmp_path))
    assert success_rate(COUNTRY, "http", strategy, trials=4, executor=cold) == 1.0
    assert cold.total_stats.executed == 4
    warm = TrialExecutor(cache=ResultCache(tmp_path))
    assert success_rate(COUNTRY, "http", strategy, trials=4, executor=warm) == 1.0
    assert warm.total_stats.executed == 0
    assert warm.total_stats.cache_hits == 4


def test_genome_mutates_and_builds(testland):
    base = CensorGenome.baseline(COUNTRY)
    assert base.params == {"enabled": True}
    assert base.build().enabled
    mutant = base.mutate(random.Random(0))
    assert mutant.params == {"enabled": False}
    censor = mutant.build()
    assert isinstance(censor, KeywordDropCensor) and not censor.enabled
    assert testland.defaults == {"enabled": True}  # the shared map is intact


def test_campaign_cell_expands(testland):
    cell = CellSpec.build(COUNTRY, "http", 8, trials=3, seed=5)
    specs = cell.trial_specs()
    assert len(specs) == 3
    assert {spec.country for spec in specs} == {COUNTRY}
    assert all(spec.run().succeeded for spec in specs)


def test_fleet_selector_picks_profile_strategy(testland):
    mix = (
        FleetMixEntry(COUNTRY, "http", "ubuntu-18.04.1", 1.0),
        FleetMixEntry(None, "http", "ubuntu-18.04.1", 1.0),
    )
    result = run_fleet(FleetSpec(clients=6, seed=1, spacing=0.5, mix=mix))
    ours = [r for r in result.records if r["country"] == COUNTRY]
    assert ours
    for record in ours:
        assert record["client_ip"].startswith("10.9.")
        assert record["strategy"] == 8
        assert record["succeeded"]
    assert all(r["strategy"] is None for r in result.records if r["country"] == "none")


def test_censorship_matrix_probes_new_country(testland):
    entries = {
        (e.country, e.protocol): e
        for e in measure_censorship_matrix(probes=1)
        if e.country == COUNTRY
    }
    assert set(entries) == {(COUNTRY, p) for p in ("dns", "ftp", "http", "https", "smtp")}
    for (_, protocol), entry in entries.items():
        assert entry.expected == (protocol == "http")
        assert entry.censored == entry.expected


def test_cli_choices_include_new_country(testland):
    parser = build_parser()
    args = parser.parse_args(["rates", COUNTRY, "http"])
    assert args.country == COUNTRY
    assert parser.parse_args(["evolve", COUNTRY, "http"]).country == COUNTRY
    assert parser.parse_args(["coevolve", COUNTRY]).country == COUNTRY
