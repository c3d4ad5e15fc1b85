"""A re-seeded trial world runs exactly the trials that fresh worlds run.

The executor builds one :class:`~repro.eval.runner.Trial` per shard of
same-shape specs and re-seeds it for each later seed
(:meth:`Trial.reseed`, driven through :class:`ShardWorld`). Each shape
below runs its seeds on one world, in order, after censored and failed
trials as well as successful ones, and every verdict and full trace
digest must equal a fresh ``Trial(...)``'s. A new stateful component
resets its per-run state in ``reset()``, which its ``__init__`` calls,
and gets a row in :data:`SHAPES` that exercises it.
"""

from functools import lru_cache

import pytest

from repro.core import Strategy, deployed_strategy
from repro.eval import Trial
from repro.runtime import CellSpec, TrialExecutor, TrialSpec, trial_seed
from repro.runtime.spec import ShardWorld

SEEDS = tuple(trial_seed(20261019, index) for index in range(10))

#: A client-side TCB teardown whose insertion RST carries a corrupted
#: checksum: its corrupt tamper draws from the strategy stream.
CLIENT_TEARDOWN = (
    "[TCP:flags:A]-duplicate(,tamper{TCP:flags:replace:R}"
    "(tamper{TCP:chksum:corrupt},))-| \\/"
)

#: name -> (country, protocol, server strategy number or None, options).
SHAPES = {
    "table2-china": ("china", "http", 1, {}),
    "table2-india": ("india", "http", None, {}),
    "table2-iran": ("iran", "https", None, {}),
    "table2-kazakhstan": ("kazakhstan", "http", None, {}),
    "sni": ("southkorea", "https", None, {}),
    "impaired": ("china", "http", 1, {"impairment": {"loss": 0.05}}),
    "vantage": ("china", "dns", 2, {"censor_hop": 5, "server_hop": 12}),
    "client-strategy": ("china", "http", None, {"client_strategy": CLIENT_TEARDOWN}),
    "stateful-strategy": ("southkorea", "https", 14, {}),
    "strategy-at-hop": ("china", "http", 1, {"strategy_at_hop": 6}),
    "censor-params": (
        "china", "http", 1, {"censor_params": {"resync_scale": 0.5, "vigilance": 0.8}},
    ),
}

#: The streams a re-seed must re-seed, by where the trial keeps them.
STREAMS = ("censor", "client", "server", "strategy", "net")


def _spec(name, seed):
    country, protocol, number, options = SHAPES[name]
    options = dict(options)
    return TrialSpec.build(
        country,
        protocol,
        deployed_strategy(number) if number else None,
        seed=seed,
        client_strategy=options.pop("client_strategy", None),
        impairment=options.pop("impairment", None),
        **options,
    )


def _verdict(result):
    return (result.outcome, result.detail, result.censored, result.trace.digest())


def _tables(component):
    """A component's counters and the sizes of its tables, by name."""
    return sorted(
        (name, len(value) if isinstance(value, (dict, set)) else value)
        for name, value in vars(component).items()
        if isinstance(value, (dict, set, int)) and not isinstance(value, bool)
    )


def _state(trial):
    """Per-run state a missed reset would carry into the next trial."""
    engines = [e for e in (trial.server_engine, trial.client_engine) if e is not None]
    return (
        trial.scheduler.now,
        len(trial.client_host.endpoints()),
        len(trial.server_host.endpoints()),
        len(trial.server_app.connections),
        _tables(trial.censor),
        [_tables(box) for box in getattr(trial.censor, "boxes", {}).values()],
        [getattr(e, "packets_intercepted", getattr(e, "packets_rewritten", None)) for e in engines],
    )


@lru_cache(maxsize=None)
def _fresh(name):
    """Each seed's verdict and end state from its own fresh trial."""
    country, protocol, number, options = SHAPES[name]
    options = dict(options)
    if "client_strategy" in options:
        options["client_strategy"] = Strategy.parse(options["client_strategy"])
    strategy = deployed_strategy(number) if number else None
    runs = []
    for seed in SEEDS:
        trial = Trial(country, protocol, strategy, seed=seed, **options)
        runs.append((_verdict(trial.run()), _state(trial)))
    return tuple(runs)


def _reseeded(name, sabotage=None):
    """Each seed's verdict and end state from one re-seeded world.

    Digests are taken after the last run, so a re-seed that appended to
    an earlier trial's trace would show. ``sabotage`` is applied to the
    world's trial after each run.
    """
    world = ShardWorld()
    results, states = [], []
    for seed in SEEDS:
        results.append(_spec(name, seed).run(keep_trace=True, world=world))
        states.append(_state(world.trial))
        if sabotage is not None:
            sabotage(world.trial)
    return tuple(zip((_verdict(result) for result in results), states))


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_reseeded_world_matches_fresh_trials(name):
    assert _reseeded(name) == _fresh(name)


def test_reseeds_follow_censored_and_failed_trials():
    followed = [
        name
        for name in SHAPES
        if any(
            outcome != "success" or censored
            for (outcome, _, censored, _), _ in _fresh(name)[:-1]
        )
    ]
    assert len(followed) >= 8, followed
    assert any(
        verdict[0] == "success" for name in followed for verdict, _ in _fresh(name)
    )


def _skip_seed(*args):
    """Stands in for ``Random.seed``: the stream keeps its old state."""


@pytest.mark.parametrize("stream", STREAMS)
def test_skipping_any_stream_is_caught(stream):
    def sabotage(trial):
        rng = trial.net_rng if stream == "net" else getattr(trial.rngs, stream)
        if rng is not None:  # only impaired shapes have a net stream
            rng.seed = _skip_seed

    assert any(_reseeded(name, sabotage) != _fresh(name) for name in SHAPES)


def test_a_shard_builds_one_world(monkeypatch):
    builds = []
    init = Trial.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args[:2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Trial, "__init__", counting_init)
    cells = [
        CellSpec.build("china", "http", deployed_strategy(1), trials=6, seed=3),
        CellSpec.build("iran", "https", None, trials=5, seed=3),
    ]
    TrialExecutor(workers=1).run_cells(cells)
    assert builds == [("china", "http"), ("iran", "https")]


def test_executor_batch_of_impaired_shape_matches_fresh_trials():
    cell = CellSpec.build(
        "china", "http", deployed_strategy(1), trials=12, seed=5,
        impairment={"loss": 0.05},
    )
    results = TrialExecutor(workers=1).run_cells([cell])[0]
    fresh = [
        Trial(
            "china", "http", deployed_strategy(1), seed=seed,
            impairment=cell.impairment, net_seed=net_seed, capture_trace=False,
        ).run()
        for seed, net_seed in cell.seeds()
    ]
    assert [(r.outcome, r.detail, r.censored) for r in results] == [
        (r.outcome, r.detail, r.censored) for r in fresh
    ]


def test_a_trial_that_raises_is_not_reused():
    world = ShardWorld()
    _spec("table2-china", SEEDS[0]).run(world=world)
    failing = world.trial

    def explode():
        raise RuntimeError("boom")

    failing.run = explode
    with pytest.raises(RuntimeError):
        _spec("table2-china", SEEDS[1]).run(world=world)
    assert world.trial is None
    result = _spec("table2-china", SEEDS[1]).run(keep_trace=True, world=world)
    assert world.trial is not None and world.trial is not failing
    assert _verdict(result) == _fresh("table2-china")[1][0]
