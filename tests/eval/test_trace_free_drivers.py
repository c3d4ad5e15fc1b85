"""Rate-only drivers read verdicts alone, so their trials record no trace.

Verdicts do not depend on trace capture (``tests/perf``), so a driver
that reads only ``.succeeded`` must build its trials with
``capture_trace=False``: recording a trace copies every packet event
and keeps the trial off the packet arena. With
``repro.eval.runner.Trace`` stubbed to raise, any trial that still
records one fails here.
"""

import random

import pytest

from repro.censors import GreatFirewall
from repro.eval import runner


@pytest.fixture
def no_traces(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rate-only driver recorded a trace")

    monkeypatch.setattr(runner, "Trace", refuse)


def test_protocol_dependence(no_traces):
    from repro.eval.multibox import protocol_dependence, single_box_profiles

    for profiles in (None, single_box_profiles()):
        rates = protocol_dependence(trials=2, profiles=profiles, protocols=("http", "dns"))
        assert set(rates) == {"http", "dns"}


def test_client_compat_matrices(no_traces):
    from repro.eval.client_compat import run_network_matrix, run_os_matrix

    matrix = run_os_matrix(strategy_numbers=(1,))
    assert matrix.works and matrix.compat_works
    assert set(run_network_matrix(strategy_numbers=(1,))) == {"wifi", "t-mobile", "att"}


def test_vantages(no_traces):
    from repro.eval.vantage import measure_across_vantages

    assert all(0.0 <= rate <= 1.0 for rate in measure_across_vantages(trials=1).values())


def test_resync_probability_sweep(no_traces):
    from repro.eval.sweeps import resync_probability_sweep

    assert set(resync_probability_sweep(probabilities=(0.5,), trials=2)) == {0.5}


def test_generalization(no_traces):
    from repro.eval.generalization import run_generalization

    assert run_generalization(trials=1).client_side_working


def test_success_rate_in_process_fallback(no_traces):
    """A live censor cannot ride a spec: success_rate runs in-process."""
    rate = runner.success_rate(
        "china", "http", None, trials=2, censor=GreatFirewall(rng=random.Random(0))
    )
    assert 0.0 <= rate <= 1.0
