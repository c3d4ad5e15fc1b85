"""Malformed tampers are rejected when the strategy is parsed.

A tamper naming an unknown field, or a replace value its field cannot
parse, used to parse and then raise inside the trial, the first time the
action fired. ``Strategy.parse`` now looks the field up in the layer
registries and parses the replace value, so every strategy either fails
to parse or runs to a verdict, which must not depend on trace capture.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.censors import COUNTRIES
from repro.core import Strategy
from repro.eval.runner import run_trial
from repro.packets import TCP, IPv4

#: The tampers that parsed and then raised mid-simulation.
MALFORMED = (
    "tamper{TCP:options-sackok:replace:garbage}",
    "tamper{TCP:window:replace:abc}",
    "tamper{TCP:flags:replace:XYZ}",
    "tamper{TCP:nosuch:replace:1}",
    "tamper{TCP:nosuch:corrupt}",
)

#: Every tamperable field a trial's (IPv4, TCP) packets carry.
FIELDS = [("TCP", name) for name in sorted(TCP.FIELDS)] + [
    ("IP", name) for name in sorted(IPv4.FIELDS)
]

PAIRS = [
    (country, protocol)
    for country in sorted(COUNTRIES)
    for protocol in COUNTRIES[country].protocols
]

#: Where the tamper sits: alone, or under duplicate or fragment.
WRAPS = (
    "[TCP:flags:SA]-{}-| \\/",
    "[TCP:flags:SA]-duplicate({},)-| \\/",
    "[TCP:flags:PA]-fragment{{tcp:8:True}}({},)-| \\/",
)

values = st.one_of(
    st.sampled_from(["", "0", "1", "10", "65535", "-1", "SA", "R", "FRAPUEC", "1.2.3.4"]),
    st.text(alphabet="abcXYZ019.-:", max_size=6),
)


@pytest.mark.parametrize("tamper", MALFORMED)
def test_malformed_tamper_rejected_at_parse(tamper):
    with pytest.raises(ValueError):
        Strategy.parse(f"[TCP:flags:SA]-{tamper}-| \\/")


def test_well_formed_tampers_still_parse():
    for tamper in (
        "tamper{TCP:window:replace:10}",
        "tamper{TCP:options-wscale:replace:}",
        "tamper{TCP:flags:replace:R}",
        "tamper{TCP:chksum:corrupt}",
        "tamper{IP:ttl:replace:3}",
    ):
        Strategy.parse(f"[TCP:flags:SA]-{tamper}-| \\/")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    field=st.sampled_from(FIELDS),
    replace=st.booleans(),
    value=values,
    wrap=st.sampled_from(WRAPS),
    pair=st.sampled_from(PAIRS),
    seed=st.integers(0, 2**16),
)
def test_hostile_tamper_parses_clean_or_is_rejected(field, replace, value, wrap, pair, seed):
    protocol, name = field
    spec = f"{protocol}:{name}:replace:{value}" if replace else f"{protocol}:{name}:corrupt"
    try:
        strategy = Strategy.parse(wrap.format(f"tamper{{{spec}}}"))
    except ValueError:
        return
    country, app = pair
    traced = run_trial(country, app, strategy, seed=seed, capture_trace=True)
    bare = run_trial(country, app, strategy, seed=seed, capture_trace=False)
    assert (traced.outcome, traced.succeeded, traced.censored) == (
        bare.outcome, bare.succeeded, bare.censored,
    )
