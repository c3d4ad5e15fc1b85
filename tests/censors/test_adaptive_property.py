"""Property tests: genome operators stay canonical, bounded, picklable."""

import pickle
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.censors.adaptive import CensorGenome, _spec_map
from repro.censors.countries import COUNTRIES

countries = st.sampled_from(sorted(COUNTRIES))
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_genome(country, seed):
    rng = random.Random(seed)
    genome = CensorGenome.baseline(country)
    for _ in range(rng.randrange(4)):
        genome = genome.mutate(rng)
    return genome


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(country=countries, seed=seeds)
def test_mutate_crossover_roundtrip_pickle_and_canonical(country, seed):
    """mutate/crossover products survive pickle with identical canonical keys."""
    rng = random.Random(seed)
    a = _random_genome(country, seed)
    b = _random_genome(country, seed ^ 0x5DEECE66D)
    for genome in (a, b, a.mutate(rng), a.crossover(b, rng)):
        clone = pickle.loads(pickle.dumps(genome))
        assert clone.canonical_key() == genome.canonical_key()
        assert clone.params == genome.params
        assert clone.is_baseline == genome.is_baseline


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(country=countries, seed=seeds)
def test_canonical_key_independent_of_param_order(country, seed):
    """Reversed-order param dicts canonicalize to the same key."""
    genome = _random_genome(country, seed)
    shuffled = dict(reversed(list(genome.params.items())))
    assert CensorGenome(country, shuffled).canonical_key() == genome.canonical_key()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(country=countries, seed=seeds, operations=st.integers(min_value=1, max_value=5))
def test_mutation_stays_in_bounds(country, seed, operations):
    genome = CensorGenome.baseline(country).mutate(
        random.Random(seed), operations=operations
    )
    for name, spec in _spec_map(country).items():
        value = genome.params[name]
        if spec.kind == "bool":
            assert isinstance(value, bool)
        else:
            assert spec.lo <= value <= spec.hi


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(country=countries, seed=seeds)
def test_crossover_takes_every_param_from_a_parent(country, seed):
    rng = random.Random(seed)
    a = _random_genome(country, seed)
    b = _random_genome(country, seed ^ 0xDEADBEEF)
    child = a.crossover(b, rng)
    for name, value in child.params.items():
        assert value in (a.params[name], b.params[name])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(country=countries, seed=seeds)
def test_same_seed_same_mutation(country, seed):
    """Genome operators are pure functions of the RNG stream."""
    base = CensorGenome.baseline(country)
    first = base.mutate(random.Random(seed))
    second = base.mutate(random.Random(seed))
    assert first.canonical_key() == second.canonical_key()
