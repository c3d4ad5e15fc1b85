"""Adaptive censor genomes: baseline fidelity, knob effects, validation."""

import pickle
import random

import pytest

from repro.censors import (
    CHINA_PROFILES,
    RUSSIA_KEYWORDS,
    RUSSIA_TRACKING_WINDOW,
    SOUTHKOREA_KEYWORDS,
    SOUTHKOREA_TRACKING_WINDOW,
    AirtelCensor,
    GreatFirewall,
    IranCensor,
    KazakhstanCensor,
    SNICensor,
)
from repro.censors.adaptive import (
    CensorGenome,
    axis_probe_genomes,
    build_censor,
    seeded_censor_population,
)
from repro.censors.countries import COUNTRIES
from repro.eval.runner import Trial, trial_rngs

COUNTRY_NAMES = sorted(COUNTRIES)


def _trace_digest(trace):
    return [
        (ev.time, ev.kind, ev.location, str(ev.packet), ev.detail)
        for ev in trace.events
    ]


def _hand_built(country, seed):
    """The paper-calibrated censor built by hand, not from a genome."""
    if country == "china":
        return GreatFirewall(rng=trial_rngs(seed).censor)
    if country == "india":
        return AirtelCensor()
    if country == "iran":
        return IranCensor()
    if country == "kazakhstan":
        return KazakhstanCensor()
    if country == "southkorea":
        return SNICensor(
            SOUTHKOREA_KEYWORDS,
            tracking_window=SOUTHKOREA_TRACKING_WINDOW,
            rst_count=3,
            rst_direction="client",
            strict=False,
            confirm_server_hello=True,
            honor_rst_teardown=True,
            name="southkorea",
        )
    assert country == "russia"
    return SNICensor(
        RUSSIA_KEYWORDS,
        tracking_window=RUSSIA_TRACKING_WINDOW,
        rst_count=1,
        rst_direction="both",
        strict=True,
        confirm_server_hello=False,
        honor_rst_teardown=False,
        name="russia",
    )


class TestBaselineFidelity:
    """A baseline genome must reproduce the calibrated censor exactly."""

    @pytest.mark.parametrize("country", COUNTRY_NAMES)
    def test_baseline_trial_matches_default_censor(self, country):
        protocol = "https" if country in ("southkorea", "russia") else "http"
        for seed in (1, 2, 3):
            plain = Trial(
                country,
                protocol,
                seed=seed,
                capture_trace=True,
                censor=_hand_built(country, seed),
            ).run()
            adaptive = Trial(
                country,
                protocol,
                seed=seed,
                capture_trace=True,
                censor_params=CensorGenome.baseline(country).params,
            ).run()
            default = Trial(country, protocol, seed=seed, capture_trace=True).run()
            for built in (adaptive, default):
                assert plain.outcome == built.outcome
                assert plain.succeeded == built.succeeded
                assert plain.censored == built.censored
                assert _trace_digest(plain.trace) == _trace_digest(built.trace)

    def test_baseline_gfw_profiles_equal_the_calibration(self):
        """Digests can miss a slightly scaled probability; the profiles cannot."""
        built = build_censor("china")
        assert {name: box.profile for name, box in built.boxes.items()} == CHINA_PROFILES

    @pytest.mark.parametrize("country", COUNTRY_NAMES)
    def test_baseline_flag(self, country):
        base = CensorGenome.baseline(country)
        assert base.is_baseline
        mutant = base.mutate(random.Random(1))
        assert not mutant.is_baseline


class TestKnobEffects:
    """Each decisive knob must actually change censor behaviour."""

    def test_resync_scale_zero_defeats_strategy_1(self):
        from repro.core import deployed_strategy

        strategy = deployed_strategy(1)
        params = {**CensorGenome.baseline("china").params, "resync_scale": 0.0}
        evaded = sum(
            Trial(
                "china", "http", server_strategy=strategy, seed=seed,
                censor_params=params,
            ).run().succeeded
            for seed in range(10)
        )
        baseline = sum(
            Trial("china", "http", server_strategy=strategy, seed=seed).run().succeeded
            for seed in range(10)
        )
        # Without resynchronization rules, the injected-RST desync never
        # happens and the forbidden request is seen in-stream.
        assert evaded == 0
        assert baseline > 0

    def test_payload_threshold_defeats_strategy_9(self):
        from repro.core import deployed_strategy

        strategy = deployed_strategy(9)
        base = Trial(
            "kazakhstan", "http", server_strategy=strategy, seed=1
        ).run()
        assert base.succeeded
        params = {
            **CensorGenome.baseline("kazakhstan").params,
            "payload_ignore_threshold": 8,
        }
        adapted = Trial(
            "kazakhstan", "http", server_strategy=strategy, seed=1,
            censor_params=params,
        ).run()
        # Three handshake payloads no longer convince the censor to give
        # up on the flow; the real GET is still matched.
        assert not adapted.succeeded

    def test_confirm_server_hello_off_defeats_strategy_12(self):
        from repro.core import deployed_strategy

        strategy = deployed_strategy(12)
        base = Trial(
            "southkorea", "https", server_strategy=strategy, seed=1
        ).run()
        assert base.succeeded
        params = {
            **CensorGenome.baseline("southkorea").params,
            "confirm_server_hello": False,
        }
        adapted = Trial(
            "southkorea", "https", server_strategy=strategy, seed=1,
            censor_params=params,
        ).run()
        assert not adapted.succeeded


class TestGenomeValidation:
    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            CensorGenome("china", {"no_such_knob": 1.0})

    def test_unknown_country_rejected(self):
        with pytest.raises(ValueError):
            CensorGenome.baseline("atlantis")

    def test_values_clamped_to_bounds(self):
        genome = CensorGenome("iran", {"blackhole_duration": 1e9})
        spec = {s.name: s for s in COUNTRIES["iran"].params}
        assert genome.params["blackhole_duration"] == spec["blackhole_duration"].hi

    def test_canonical_key_is_sorted_json(self):
        genome = CensorGenome.baseline("india")
        key = genome.canonical_key()
        assert key.startswith('{"country": "india"') or '"india"' in key
        assert CensorGenome.from_dict(genome.as_dict()).canonical_key() == key

    def test_build_censor_unknown_country(self):
        with pytest.raises(ValueError):
            build_censor("atlantis")


class TestPopulationSeeding:
    @pytest.mark.parametrize("country", COUNTRY_NAMES)
    def test_axis_probes_cover_every_param(self, country):
        probes = axis_probe_genomes(country)
        touched = set()
        base = CensorGenome.baseline(country)
        for probe in probes:
            changed = [
                name for name, value in probe.params.items()
                if value != base.params[name]
            ]
            assert len(changed) == 1  # one knob per probe
            touched.add(changed[0])
        assert touched == set(base.params)

    def test_seeded_population_starts_with_baseline(self):
        pop = seeded_censor_population("china", 6, random.Random(0))
        assert len(pop) == 6
        assert pop[0].is_baseline
        assert not any(p.is_baseline for p in pop[1:])

    def test_seeded_population_fills_with_mutants(self):
        probes = len(axis_probe_genomes("iran"))
        pop = seeded_censor_population("iran", probes + 5, random.Random(0))
        assert len(pop) == probes + 5

    def test_population_is_picklable(self):
        pop = seeded_censor_population("russia", 4, random.Random(0))
        clone = pickle.loads(pickle.dumps(pop))
        assert [g.canonical_key() for g in clone] == [
            g.canonical_key() for g in pop
        ]
