"""The country registry: one :class:`CountryProfile` per censoring country.

Every per-country fact the program uses lives in one entry of
:data:`COUNTRIES`. Adding a censor is one module (its
:class:`~repro.censors.base.Censor` subclass) plus one entry here.
Consumers read :data:`COUNTRIES` when they run and never copy it at
import, so a country registered later (for example with
``monkeypatch.setitem``) reaches every driver.

Every censor is built from its genome: ``build_censor`` (in
:mod:`repro.censors.adaptive`) hands the profile's normalized parameter
map to its builder. The baseline's map (:attr:`CountryProfile.defaults`)
and the baseline GFW's scaled profile set are computed once and shared
by every baseline build, so builders must not mutate what they receive;
any other genome is clamped and scaled afresh on each build. At default
values every builder reproduces the paper's calibration exactly, RNG
draw sequences included.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from .base import Censor
from .gfw import CHINA_PROFILES, BoxProfile, GreatFirewall
from .india import AirtelCensor
from .iran import BLACKHOLE_DURATION, IranCensor
from .kazakhstan import MITM_DURATION, PAYLOAD_IGNORE_THRESHOLD, KazakhstanCensor
from .keywords import RUSSIA_KEYWORDS, SOUTHKOREA_KEYWORDS
from .sni import (
    RUSSIA_TRACKING_WINDOW, SNI_REASSEMBLY_BYTES, SOUTHKOREA_TRACKING_WINDOW, SNICensor,
)

__all__ = ["COUNTRIES", "CountryProfile", "ParamSpec", "countries_with", "country_profile"]

Param = Union[float, int, bool]

#: Decimal places floats are rounded to at genome construction, so the
#: canonical JSON form is short and stable across platforms.
_FLOAT_DECIMALS = 6


@dataclasses.dataclass(frozen=True)
class ParamSpec:
    """One evolvable censor parameter: its type, bounds, and default.

    Attributes:
        name: Parameter key as it appears in ``CensorGenome.params``.
        kind: ``"float"``, ``"int"``, or ``"bool"``.
        lo: Inclusive lower bound (numeric kinds).
        hi: Inclusive upper bound (numeric kinds).
        default: The calibrated paper value — the baseline genome.
    """

    name: str
    kind: str
    lo: float
    hi: float
    default: Param

    def clamp(self, value: Param) -> Param:
        """Coerce ``value`` to this parameter's type and bounds."""
        if self.kind == "bool":
            return bool(value)
        if self.kind == "int":
            return int(min(self.hi, max(self.lo, int(value))))
        return round(float(min(self.hi, max(self.lo, float(value)))), _FLOAT_DECIMALS)

    def perturb(self, value, rng: random.Random):
        """One mutation step away from ``value``, clamped to bounds."""
        if self.kind == "bool":
            return not bool(value)
        if self.kind == "int":
            step = rng.choice((-2, -1, 1, 2))
            return self.clamp(int(value) + step)
        sigma = (self.hi - self.lo) / 6.0
        return self.clamp(float(value) + rng.gauss(0.0, sigma))


#: DPI trigger depth (payload bytes inspected). Every workload in the
#: evaluation suite fits inside the 2048-byte default, so the baseline
#: behaves exactly like unbounded inspection.
_INSPECT_DEPTH = ParamSpec("inspect_depth", "int", 64, 2048, 2048)


@dataclasses.dataclass(frozen=True, eq=False)
class CountryProfile:
    """Everything the program knows about one censoring country.

    Attributes:
        workloads: The censored request per protocol, in Table 1 order;
            its keys are the protocols the country censors.
        vantage_points: Table 1's client locations.
        params: The genome's evolvable parameters, sorted by name.
        builder: ``(normalized params, rng) -> Censor``. It must not
            mutate the parameter map: the baseline's is shared.
        strategies: The recommended deployed strategy per protocol.
        sweep_protocol: The protocol of the loss-robustness sweep.
        coevolve_protocol: The protocol co-evolution runs on by default.
        fleet_prefix: The fleet's ``a.b`` /16 client prefix.
        fleet_cohorts: The country's cohorts in the default fleet mix, as
            ``(protocol, client OS, weight)`` triples.
        paper: Whether the paper's Table 2 measures the country.
        sni: Whether the censor filters on the TLS SNI (the SNI matrix).
    """

    workloads: Mapping[str, Mapping[str, object]]
    vantage_points: Tuple[str, ...]
    params: Tuple[ParamSpec, ...]
    builder: Callable[[Mapping[str, Param], random.Random], Censor]
    strategies: Mapping[str, int]
    sweep_protocol: str
    coevolve_protocol: str
    fleet_prefix: str
    fleet_cohorts: Tuple[Tuple[str, str, float], ...] = ()
    paper: bool = False
    sni: bool = False

    @property
    def protocols(self) -> Tuple[str, ...]:
        """The protocols the country censors, in Table 1 order."""
        return tuple(self.workloads)

    @functools.cached_property
    def defaults(self) -> Dict[str, Param]:
        """The baseline genome's parameter map, computed once.

        Every baseline build shares it, so callers must not mutate it.
        """
        return self._clamped({})

    def normalize(
        self, params: Optional[Mapping[str, Param]] = None
    ) -> Dict[str, Param]:
        """The complete, clamped parameter map for ``params``.

        Missing keys take their calibrated defaults, out-of-bounds values
        clamp, and unknown keys raise ``ValueError``. ``None`` or an empty
        map is the baseline and returns the shared :attr:`defaults`; any
        other map is clamped into a fresh dict.
        """
        return self._clamped(params) if params else self.defaults

    def _clamped(self, params: Mapping[str, Param]) -> Dict[str, Param]:
        specs = {spec.name: spec for spec in self.params}
        unknown = set(params) - set(specs)
        if unknown:
            raise ValueError(
                f"unknown censor parameters: {', '.join(sorted(unknown))} "
                f"(valid: {', '.join(sorted(specs))})"
            )
        return {
            name: specs[name].clamp(params.get(name, specs[name].default))
            for name in sorted(specs)
        }


def countries_with(flag: str) -> List[str]:
    """The registered countries whose profile sets ``flag``, in table order.

    ``flag`` names a boolean :class:`CountryProfile` field: ``"paper"``
    (Table 2's countries) or ``"sni"`` (the SNI matrix's).
    """
    return [country for country, profile in COUNTRIES.items() if getattr(profile, flag)]


def country_profile(country: str) -> CountryProfile:
    """The registered profile for ``country``; ``ValueError`` if unknown."""
    try:
        return COUNTRIES[country]
    except KeyError:
        valid = ", ".join(COUNTRIES)
        raise ValueError(f"unknown country {country!r} (valid: {valid})") from None


#: The GFW genome: ``resync_scale`` multiplies the probabilities of
#: entering resynchronization, ``reassembly_skill`` and ``vigilance``
#: shrink the reassembly-failure and miss probabilities, and
#: ``residual_duration`` sets the HTTP box's residual-censorship window.
_GFW_PARAMS = (
    ParamSpec("reassembly_skill", "float", 0.0, 1.0, 0.0),
    ParamSpec("residual_duration", "float", 0.0, 240.0, 90.0),
    ParamSpec("resync_scale", "float", 0.0, 1.5, 1.0),
    ParamSpec("vigilance", "float", 0.0, 1.0, 0.0),
)


def _gfw_profiles(
    scale: float, skill: float, vigilance: float, residual: float
) -> Dict[str, BoxProfile]:
    """Scale the calibrated GFW profiles by the genome's knobs.

    At default parameter values every arithmetic identity below is exact
    (``p * 1.0 == p``, ``p * (1 - 0.0) == p``), so the baseline genome's
    profiles — and therefore the GFW's RNG draw sequence — are
    bit-identical to :data:`~repro.censors.gfw.CHINA_PROFILES`.
    """
    return {
        name: dataclasses.replace(
            profile,
            miss_prob=profile.miss_prob * (1.0 - vigilance),
            event_probs={e: min(1.0, p * scale) for e, p in profile.event_probs.items()},
            combo_probs={c: min(1.0, p * scale) for c, p in profile.combo_probs.items()},
            reassembly_fail_prob=profile.reassembly_fail_prob * (1.0 - skill),
            # Only boxes with residual censorship (HTTP) take the window.
            residual_duration=profile.residual_duration and residual,
        )
        for name, profile in CHINA_PROFILES.items()
    }


def _gfw_knobs(p: Mapping[str, Param]) -> Tuple[Param, ...]:
    return (p["resync_scale"], p["reassembly_skill"], p["vigilance"], p["residual_duration"])


#: The baseline genome's GFW knobs and their scaled profile set. Boxes
#: only read their profile, so every baseline build shares this one set.
_BASELINE_GFW_KNOBS = _gfw_knobs({spec.name: spec.clamp(spec.default) for spec in _GFW_PARAMS})
_BASELINE_GFW_PROFILES = _gfw_profiles(*_BASELINE_GFW_KNOBS)


def _china(p: Mapping[str, Param], rng: random.Random) -> Censor:
    knobs = _gfw_knobs(p)
    baseline = knobs == _BASELINE_GFW_KNOBS
    return GreatFirewall(
        rng=rng, profiles=_BASELINE_GFW_PROFILES if baseline else _gfw_profiles(*knobs)
    )


def _india(p: Mapping[str, Param], rng: random.Random) -> Censor:
    return AirtelCensor(inspect_depth=p["inspect_depth"], rst_count=p["rst_count"])


def _iran(p: Mapping[str, Param], rng: random.Random) -> Censor:
    return IranCensor(duration=p["blackhole_duration"], inspect_depth=p["inspect_depth"])


def _kazakhstan(p: Mapping[str, Param], rng: random.Random) -> Censor:
    return KazakhstanCensor(
        mitm_duration=p["mitm_duration"], inspect_depth=p["inspect_depth"],
        payload_ignore_threshold=p["payload_ignore_threshold"],
    )


def _southkorea(p: Mapping[str, Param], rng: random.Random) -> Censor:
    """South Korea's SNIC: lenient, confirm-then-RST, trusts wire RSTs."""
    return SNICensor(
        SOUTHKOREA_KEYWORDS, tracking_window=p["tracking_window"],
        reassembly_bytes=p["reassembly_bytes"], rst_count=p["rst_count"],
        rst_direction="client", strict=False,
        confirm_server_hello=p["confirm_server_hello"],
        honor_rst_teardown=p["honor_rst_teardown"], name="southkorea",
    )


def _russia(p: Mapping[str, Param], rng: random.Random) -> Censor:
    """Russia's TSPU-style box: strict, in-path, blackholing, RST-deaf."""
    return SNICensor(
        RUSSIA_KEYWORDS, tracking_window=p["tracking_window"],
        reassembly_bytes=p["reassembly_bytes"], rst_count=1,
        rst_direction="both", strict=True, confirm_server_hello=False,
        honor_rst_teardown=p["honor_rst_teardown"],
        blackhole_duration=p["blackhole_duration"], name="russia",
    )


#: Every censoring country, in table order: the paper's four (Table 1),
#: then the SNI-era boxes modelled after it.
COUNTRIES: Dict[str, CountryProfile] = {
    "china": CountryProfile(
        workloads={
            "dns": {"qname": "www.wikipedia.org"},
            "ftp": {"filename": "ultrasurf.txt"},
            "http": {"path": "/?q=ultrasurf", "host_header": "example.com"},
            "https": {"server_name": "www.wikipedia.org"},
            "smtp": {"recipient": "xiazai@upup.info"},
        },
        vantage_points=("Beijing", "Shanghai", "Shenzen", "Zhengzhou"),
        params=_GFW_PARAMS,
        builder=_china,
        # Best Table 2 strategy: 89%, 97%, 54%, 55%, 100%.
        strategies={"dns": 1, "ftp": 5, "http": 1, "https": 2, "smtp": 8},
        sweep_protocol="http", coevolve_protocol="http",
        fleet_prefix="10.1",  # fleet flow 0 lands on 10.1.0.2, the trial client
        fleet_cohorts=(
            ("http", "ubuntu-18.04.1", 3.0),
            ("https", "windows-10-enterprise-17134", 2.0),
            ("dns", "centos-7", 1.0),
            ("ftp", "ubuntu-16.04.4", 1.0),
            ("smtp", "ubuntu-14.04.3", 1.0),
        ),
        paper=True,
    ),
    "india": CountryProfile(
        workloads={"http": {"path": "/", "host_header": "blocked.example.in"}},
        vantage_points=("Bangalore",),
        params=(_INSPECT_DEPTH, ParamSpec("rst_count", "int", 1, 5, 1)),
        builder=_india,
        strategies={"http": 8},  # 100%
        sweep_protocol="http", coevolve_protocol="http",
        fleet_prefix="10.3", fleet_cohorts=(("http", "android-10", 2.0),),
        paper=True,
    ),
    "iran": CountryProfile(
        workloads={
            "http": {"path": "/", "host_header": "youtube.com"},
            "https": {"server_name": "youtube.com"},
        },
        vantage_points=("Tehran", "Zanjan"),
        params=(
            ParamSpec("blackhole_duration", "float", 5.0, 240.0, BLACKHOLE_DURATION),
            _INSPECT_DEPTH,
        ),
        builder=_iran,
        strategies={"http": 8, "https": 8},  # 100%
        sweep_protocol="https", coevolve_protocol="http",
        fleet_prefix="10.4",
        fleet_cohorts=(
            ("http", "windows-7-ultimate-sp1", 2.0),
            ("https", "macos-10.15", 2.0),
        ),
        paper=True,
    ),
    "kazakhstan": CountryProfile(
        workloads={"http": {"path": "/", "host_header": "blocked.example.kz"}},
        vantage_points=("Qaraghandy", "Almaty"),
        params=(
            _INSPECT_DEPTH,
            ParamSpec("mitm_duration", "float", 5.0, 60.0, MITM_DURATION),
            ParamSpec("payload_ignore_threshold", "int", 2, 8, PAYLOAD_IGNORE_THRESHOLD),
        ),
        builder=_kazakhstan,
        strategies={"http": 11},  # 100%, no payload quirks
        sweep_protocol="http", coevolve_protocol="http",
        fleet_prefix="10.2", fleet_cohorts=(("http", "windows-8.1-pro", 2.0),),
        paper=True,
    ),
    "southkorea": CountryProfile(
        workloads={"https": {"server_name": "blocked.example.kr"}},
        vantage_points=("Seoul",),
        params=(
            ParamSpec("confirm_server_hello", "bool", 0, 1, True),
            ParamSpec("honor_rst_teardown", "bool", 0, 1, True),
            ParamSpec("reassembly_bytes", "int", 512, 65536, SNI_REASSEMBLY_BYTES),
            ParamSpec("rst_count", "int", 1, 6, 3),
            ParamSpec("tracking_window", "float", 0.25, 10.0, SOUTHKOREA_TRACKING_WINDOW),
        ),
        builder=_southkorea,
        strategies={"https": 12},  # record split beats the confirm step
        sweep_protocol="https", coevolve_protocol="https",
        fleet_prefix="10.5", fleet_cohorts=(("https", "ios-13.3", 2.0),),
        sni=True,
    ),
    "russia": CountryProfile(
        workloads={"https": {"server_name": "blocked.example.ru"}},
        vantage_points=("Moscow",),
        params=(
            ParamSpec("blackhole_duration", "float", 5.0, 240.0, 60.0),
            ParamSpec("honor_rst_teardown", "bool", 0, 1, False),
            ParamSpec("reassembly_bytes", "int", 512, 65536, SNI_REASSEMBLY_BYTES),
            ParamSpec("tracking_window", "float", 0.25, 10.0, RUSSIA_TRACKING_WINDOW),
        ),
        builder=_russia,
        strategies={"https": 15},  # only deep migration outlasts the TSPU
        sweep_protocol="https", coevolve_protocol="https",
        fleet_prefix="10.6", fleet_cohorts=(("https", "windows-10-enterprise-17134", 2.0),),
        sni=True,
    ),
}
