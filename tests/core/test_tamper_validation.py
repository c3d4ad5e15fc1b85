"""Malformed tampers are rejected before the trial runs.

A tamper naming an unknown field, a replace value its field cannot
parse, a transport its trigger's packets lack, a UDP field (no trial
protocol runs over UDP), or an IP field the trial's IP version lacks
used to parse and then raise inside the trial, the first time the
action fired. ``Strategy.parse`` now rejects the first three and
``Trial`` the last two when it is built, so every strategy fails to
parse, fails to build, or runs to a verdict, which must not depend on
trace capture.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.censors import COUNTRIES
from repro.core import Strategy
from repro.eval.runner import Trial
from repro.packets import TCP, UDP, IPv4, IPv6

#: The tampers that parsed and then raised mid-simulation.
MALFORMED = (
    "tamper{TCP:options-sackok:replace:garbage}",
    "tamper{TCP:window:replace:abc}",
    "tamper{TCP:flags:replace:XYZ}",
    "tamper{TCP:nosuch:replace:1}",
    "tamper{TCP:nosuch:corrupt}",
    "tamper{UDP:sport:replace:1}",
)

#: Every tamperable field: TCP and UDP, IPv4 and the IPv6-only ones.
FIELDS = (
    [("TCP", name) for name in sorted(TCP.FIELDS)]
    + [("UDP", name) for name in sorted(UDP.FIELDS)]
    + [("IP", name) for name in sorted(IPv4.FIELDS)]
    + [("IP", name) for name in sorted(set(IPv6.FIELDS) - set(IPv4.FIELDS))]
)

PAIRS = [
    (country, protocol)
    for country in sorted(COUNTRIES)
    for protocol in COUNTRIES[country].protocols
]

#: Where the tamper sits: alone, under duplicate or fragment, or under
#: an IP trigger, which matches either transport.
WRAPS = (
    "[TCP:flags:SA]-{}-| \\/",
    "[IP:version:4]-{}-| \\/",
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


def test_transport_tamper_under_other_transport_trigger_rejected():
    with pytest.raises(ValueError, match="no UDP layer"):
        Strategy.parse("[TCP:flags:SA]-duplicate(,tamper{UDP:chksum:corrupt})-| \\/")
    with pytest.raises(ValueError, match="no TCP layer"):
        Strategy.parse("[UDP:dport:53]-tamper{TCP:window:replace:1}-| \\/")
    # An IP trigger matches either transport, so both stay legal under it.
    Strategy.parse("[IP:ttl:64]-tamper{UDP:sport:replace:1}-| \\/")


@pytest.mark.parametrize(
    "tamper, ip_version",
    [("tamper{IP:fl:corrupt}", 4), ("tamper{IP:tc:replace:1}", 4), ("tamper{IP:id:replace:3}", 6)],
)
def test_ip_field_of_the_other_version_rejected_at_build(tamper, ip_version):
    strategy = Strategy.parse(f"[TCP:flags:SA]-{tamper}-| \\/")
    field = tamper.split(":")[1]
    with pytest.raises(ValueError, match=f"IP:{field}.*IPv{ip_version}"):
        Trial("china", "http", strategy, ip_version=ip_version)
    with pytest.raises(ValueError, match=f"IP:{field}.*IPv{ip_version}"):
        Trial("china", "http", client_strategy=strategy, ip_version=ip_version)
    Trial("china", "http", strategy, ip_version=10 - ip_version)


@pytest.mark.parametrize(
    "text",
    [
        "[IP:proto:6]-tamper{UDP:sport:replace:1}-| \\/",
        "[IP:version:4]-tamper{UDP:dport:corrupt}-| \\/",
    ],
)
@pytest.mark.parametrize("protocol", ["http", "dns"])
def test_udp_tamper_rejected_at_build(text, protocol):
    strategy = Strategy.parse(text)
    message = re.escape(str(next(strategy.tampers()))) + ".*no UDP"
    with pytest.raises(ValueError, match=message):
        Trial("china", protocol, strategy)
    with pytest.raises(ValueError, match=message):
        Trial("china", protocol, client_strategy=strategy)


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
    try:
        traced = Trial(country, app, strategy, seed=seed, capture_trace=True)
    except ValueError:
        return
    traced = traced.run()
    bare = Trial(country, app, strategy, seed=seed, capture_trace=False).run()
    assert (traced.outcome, traced.succeeded, traced.censored) == (
        bare.outcome, bare.succeeded, bare.censored,
    )
