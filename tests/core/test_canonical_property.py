"""Property tests: canonicalization is semantics-preserving, and the
batched GA is worker-count independent.

The contract canonicalization must honour is *trace equality*: for any
genome ``s``, ``simulate(s)`` and ``simulate(canonical(s))`` produce
byte-identical event traces (compared via :meth:`Trace.digest`) against
every censor model and protocol. Random genomes are drawn from the GA's
own gene pool and then wrapped in the redundancy patterns the rewrite
rules target — dead trees, aliased trigger spellings, ``duplicate`` with
a dropped branch, zero-count wrappers, dead-store tampers — so the rules
are exercised, not just tiptoed around.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Strategy, canonical_strategy
from repro.core.dsl import (
    DropAction,
    DuplicateAction,
    FragmentAction,
    RecordSplitAction,
    SendAction,
    StallAction,
    TamperAction,
    Trigger,
)
from repro.core.evolution import server_side_pool
from repro.censors.countries import COUNTRIES as REGISTRY
from repro.eval.runner import PROTOCOLS

COUNTRIES = sorted(REGISTRY)

_TRIGGERS = [
    Trigger("TCP", "flags", "SA"),
    Trigger("TCP", "flags", "A"),
    Trigger("TCP", "flags", "PA"),
]


def _respell(trigger: Trigger, rng: random.Random) -> Trigger:
    """An aliased spelling of the same predicate (AS for SA, 010 for 10)."""
    if trigger.field == "flags" and len(trigger.value) > 1:
        letters = list(trigger.value)
        rng.shuffle(letters)
        return Trigger(trigger.protocol, trigger.field, "".join(letters))
    return trigger


def _inject_redundancy(action, rng: random.Random):
    """Wrap an action in a behaviour-preserving layer of noise."""
    wrappers = [
        lambda a: DuplicateAction(a, DropAction()),
        lambda a: DuplicateAction(DropAction(), a),
        lambda a: StallAction(0, a),
        lambda a: RecordSplitAction(0, a),
        lambda a: FragmentAction("tcp", 0, True, a, SendAction()),
        lambda a: TamperAction(
            "TCP", "window", "replace", "99",
            TamperAction("TCP", "window", "replace", "010", a),
        ),
        lambda a: a,
    ]
    return rng.choice(wrappers)(action)


def random_redundant_strategy(seed: int) -> Strategy:
    """A random server-side genome with canonicalizable noise layered in."""
    rng = random.Random(seed)
    pool = server_side_pool()
    forest = []
    used = []
    for trigger in rng.sample(_TRIGGERS, rng.randint(1, 2)):
        action = _inject_redundancy(pool.random_action(rng), rng)
        forest.append((_respell(trigger, rng), action))
        used.append(trigger)
    if rng.random() < 0.5:
        # Dead tree: repeats an earlier (respelled) trigger, so the
        # first-match-wins walk can never reach it.
        forest.append((_respell(rng.choice(used), rng), pool.random_action(rng)))
    if rng.random() < 0.5:
        # Dead tree: a trigger that matches no packet at all.
        forest.append((Trigger("TCP", "bogus", "1"), pool.random_action(rng)))
    if rng.random() < 0.5:
        forest.append((Trigger("IP", "ttl", "200"), SendAction()))
    return Strategy(forest, [])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_canonical_trace_identical_everywhere(seed):
    from repro.eval.runner import run_trial

    raw = random_redundant_strategy(seed)
    canon = canonical_strategy(raw)
    for country in COUNTRIES:
        for protocol in PROTOCOLS:
            a = run_trial(country, protocol, raw, seed=seed % 1000)
            b = run_trial(country, protocol, canon, seed=seed % 1000)
            assert a.outcome == b.outcome, (country, protocol, str(raw))
            assert a.trace.digest() == b.trace.digest(), (
                country, protocol, str(raw), str(canon),
            )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_canonical_idempotent(seed):
    once = canonical_strategy(random_redundant_strategy(seed))
    assert str(canonical_strategy(once)) == str(once)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_canonical_never_grows(seed):
    raw = random_redundant_strategy(seed)
    assert canonical_strategy(raw).tree_size() <= raw.tree_size()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_canonical_text_round_trips(seed):
    # Canonical text reparses to the same canonical form — required for
    # the persistent result cache, which is keyed on the text.
    canon = canonical_strategy(random_redundant_strategy(seed))
    assert str(canonical_strategy(Strategy.parse(str(canon)))) == str(canon)


def _ga_result(workers: int):
    from repro.core.evolution import CensorTrialEvaluator, GAConfig, GeneticAlgorithm
    from repro.runtime import TrialExecutor

    executor = TrialExecutor(workers=workers)
    evaluator = CensorTrialEvaluator(
        country="kazakhstan", protocol="http", trials=2, seed=7,
        executor=executor,
    )
    algorithm = GeneticAlgorithm(
        evaluator, config=GAConfig(population_size=12, generations=4, seed=13),
    )
    return algorithm.run()


def test_ga_worker_count_invariance():
    """GAResult is bit-identical at 1 worker and 4 workers.

    Trial seeds are derived from the canonical genome text and trial
    index — never from submission order or worker assignment — so the
    whole search (history, best, hall of fame) must not depend on the
    degree of parallelism.
    """
    serial = _ga_result(1)
    parallel = _ga_result(4)
    assert str(serial.best) == str(parallel.best)
    assert serial.best_fitness == parallel.best_fitness
    assert serial.history == parallel.history
    assert serial.generations_run == parallel.generations_run
    assert [(str(s), f) for s, f in serial.hall_of_fame] == [
        (str(s), f) for s, f in parallel.hall_of_fame
    ]
