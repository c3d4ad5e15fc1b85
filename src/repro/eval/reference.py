"""Reference values from the paper, for paper-vs-measured comparisons.

Every benchmark prints measured values next to these so EXPERIMENTS.md
can record the reproduction fidelity. Values are percentages from
Table 2 unless noted.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..censors.countries import COUNTRIES

__all__ = [
    "TABLE2_CHINA",
    "TABLE2_OTHER",
    "paper_rate",
    "CHINA_PROTOCOLS",
]

#: The protocols China censors, in Table 1 order (its registry profile's).
CHINA_PROTOCOLS: Tuple[str, ...] = COUNTRIES["china"].protocols

#: Table 2, China block: strategy number (0 = no evasion) -> per-protocol
#: success percentage.
TABLE2_CHINA: Dict[int, Dict[str, int]] = {
    0: {"dns": 2, "ftp": 3, "http": 3, "https": 3, "smtp": 26},
    1: {"dns": 89, "ftp": 52, "http": 54, "https": 14, "smtp": 70},
    2: {"dns": 83, "ftp": 36, "http": 54, "https": 55, "smtp": 59},
    3: {"dns": 26, "ftp": 65, "http": 4, "https": 4, "smtp": 23},
    4: {"dns": 7, "ftp": 33, "http": 5, "https": 5, "smtp": 22},
    5: {"dns": 15, "ftp": 97, "http": 4, "https": 3, "smtp": 25},
    6: {"dns": 82, "ftp": 55, "http": 52, "https": 54, "smtp": 55},
    7: {"dns": 83, "ftp": 85, "http": 54, "https": 4, "smtp": 66},
    8: {"dns": 3, "ftp": 47, "http": 2, "https": 3, "smtp": 100},
}

#: Table 2, India/Iran/Kazakhstan blocks: (country, strategy#, protocol)
#: -> success percentage. Strategy 0 is "no evasion". Protocols a country
#: does not censor succeed 100% with no evasion.
TABLE2_OTHER: Dict[Tuple[str, int, str], int] = {
    ("india", 0, "http"): 2,
    ("india", 8, "http"): 100,
    ("iran", 0, "http"): 0,
    ("iran", 0, "https"): 0,
    ("iran", 8, "http"): 100,
    ("iran", 8, "https"): 100,
    ("kazakhstan", 0, "http"): 0,
    ("kazakhstan", 8, "http"): 100,
    ("kazakhstan", 9, "http"): 100,
    ("kazakhstan", 10, "http"): 100,
    ("kazakhstan", 11, "http"): 100,
}


def paper_rate(country: str, number: int, protocol: str) -> Optional[int]:
    """The paper's Table 2 value for (country, strategy number, protocol).

    Returns ``None`` when the paper reports no value for that cell (a dash
    in Table 2).
    """
    if country == "china":
        row = TABLE2_CHINA.get(number)
        return None if row is None else row.get(protocol)
    return TABLE2_OTHER.get((country, number, protocol))
