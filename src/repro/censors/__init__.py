"""Censor models: China's GFW, India's Airtel, Iran, Kazakhstan, carriers.

Each censor is a :class:`~repro.netsim.Middlebox` implementing the
behaviour the paper reverse-engineered. See each module's docstring for
the paper sections the behaviour comes from, and
:mod:`repro.censors.gfw.profiles` for the calibration constants. The
country registry (:data:`COUNTRIES`, :mod:`repro.censors.countries`)
holds every per-country fact, and :func:`build_censor` builds each
country's censor from its genome.
"""

from .adaptive import (
    CensorGenome,
    axis_probe_genomes,
    build_censor,
    seeded_censor_population,
)
from .base import Censor, client_oriented_key, flow_key
from .carrier import CarrierNATBox, att_box, tmobile_box, wifi_box
from .countries import COUNTRIES, CountryProfile, ParamSpec, countries_with, country_profile
from .dpi import (
    looks_like_http_get,
    match_dns,
    match_ftp,
    match_http,
    match_https,
    match_smtp,
)
from .gfw import CHINA_PROFILES, BoxProfile, GreatFirewall, ProtocolBox
from .india import AirtelCensor, build_block_page
from .iran import BLACKHOLE_DURATION, IranCensor
from .kazakhstan import MITM_DURATION, PAYLOAD_IGNORE_THRESHOLD, KazakhstanCensor
from .keywords import (
    CHINA_KEYWORDS,
    INDIA_KEYWORDS,
    IRAN_KEYWORDS,
    KAZAKHSTAN_KEYWORDS,
    RUSSIA_KEYWORDS,
    SOUTHKOREA_KEYWORDS,
    KeywordSet,
)
from .sni import (
    SNI_REASSEMBLY_BYTES,
    RUSSIA_TRACKING_WINDOW,
    SOUTHKOREA_TRACKING_WINDOW,
    SNICensor,
)

__all__ = [
    "AirtelCensor",
    "BLACKHOLE_DURATION",
    "BoxProfile",
    "CHINA_KEYWORDS",
    "COUNTRIES",
    "CHINA_PROFILES",
    "CarrierNATBox",
    "Censor",
    "CensorGenome",
    "CountryProfile",
    "GreatFirewall",
    "INDIA_KEYWORDS",
    "IRAN_KEYWORDS",
    "IranCensor",
    "KAZAKHSTAN_KEYWORDS",
    "KazakhstanCensor",
    "KeywordSet",
    "MITM_DURATION",
    "PAYLOAD_IGNORE_THRESHOLD",
    "ParamSpec",
    "ProtocolBox",
    "RUSSIA_KEYWORDS",
    "RUSSIA_TRACKING_WINDOW",
    "SNICensor",
    "SNI_REASSEMBLY_BYTES",
    "SOUTHKOREA_KEYWORDS",
    "SOUTHKOREA_TRACKING_WINDOW",
    "att_box",
    "axis_probe_genomes",
    "build_block_page",
    "build_censor",
    "client_oriented_key",
    "countries_with",
    "country_profile",
    "flow_key",
    "looks_like_http_get",
    "match_dns",
    "match_ftp",
    "match_http",
    "match_https",
    "match_smtp",
    "seeded_censor_population",
    "tmobile_box",
    "wifi_box",
]
