"""Adaptive censors: every censor model as an evolvable parameter vector.

The paper evaluates server-side strategies against *static* censor
models. Real censors retrain: the GFW patched the simultaneous-open bugs,
South Korea's SNIC grew reassembly, Russia's TSPU lengthened its flow
tracking. This module makes that escalation expressible by collapsing
each censor model's behavioural knobs into a :class:`CensorGenome` — a
picklable, JSON-able bag of bounded parameters with mutation and
crossover operators — and a :func:`build_censor` factory that turns a
genome back into a live censor box.

Every censor is built this way: ``make_censor`` in
:mod:`repro.eval.runner` calls :func:`build_censor`, and a trial without
``censor_params`` gets the baseline genome. Each country's parameter
menu (its profile's ``params``: the GFW's resynchronization scale,
reassembly skill, vigilance and residual window; the DPI boxes' trigger
depth and probe knobs; the SNI boxes' reassembly, RST and trust bits)
and builder live in the country registry
(:data:`~repro.censors.countries.COUNTRIES`).

Design constraints, in priority order:

- **Baseline fidelity.** ``CensorGenome.baseline(country)`` must build a
  censor whose behaviour is bit-identical to the hand-built, calibrated
  censor (``GreatFirewall(rng=...)``, ``IranCensor()``, ...): every
  default parameter value reproduces the paper's calibration exactly,
  including RNG draw sequences.
- **Canonical form.** Genomes serialize to sorted compact JSON
  (:meth:`CensorGenome.canonical_key`), with floats rounded at
  construction time, so equal behaviours always hash equally — the
  co-evolution engine keys its pair memo and the trial cache on this.
- **Spec transparency.** A genome's ``params`` dict rides through
  :class:`repro.runtime.TrialSpec` options (``censor_params=...``)
  unchanged, so adaptive censors work with worker pools, the
  content-addressed result cache, and campaign shards with no runtime
  changes.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .base import Censor
from .countries import ParamSpec, country_profile

__all__ = [
    "CensorGenome",
    "ParamSpec",
    "axis_probe_genomes",
    "build_censor",
    "seeded_censor_population",
]


def _spec_map(country: str) -> Dict[str, ParamSpec]:
    return {spec.name: spec for spec in country_profile(country).params}


@dataclasses.dataclass
class CensorGenome:
    """One censor configuration as an evolvable, picklable genome.

    Attributes:
        country: Which censor model the parameters configure.
        params: Complete parameter map (every :class:`ParamSpec` for the
            country is present; values are clamped and canonically
            rounded at construction).
    """

    country: str
    params: Dict[str, Union[float, int, bool]] = dataclasses.field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        # A private copy: the baseline's normalized map is shared.
        self.params = dict(country_profile(self.country).normalize(self.params))

    # ------------------------------------------------------------------
    # Construction helpers

    @classmethod
    def baseline(cls, country: str) -> "CensorGenome":
        """The calibrated paper configuration for ``country``."""
        return cls(country, {})

    @classmethod
    def from_dict(cls, data: Mapping) -> "CensorGenome":
        """Rebuild a genome from its :meth:`as_dict` form."""
        return cls(data["country"], dict(data.get("params", {})))

    def as_dict(self) -> Dict[str, object]:
        """Plain JSON-able form (round-trips through :meth:`from_dict`)."""
        return {"country": self.country, "params": dict(self.params)}

    # ------------------------------------------------------------------
    # Canonical form

    def canonical_key(self) -> str:
        """Deterministic string form: sorted-key compact JSON."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def is_baseline(self) -> bool:
        """Whether every parameter sits at its calibrated default."""
        return self.params == country_profile(self.country).normalize()

    # ------------------------------------------------------------------
    # Evolutionary operators

    def mutate(self, rng: random.Random, operations: int = 1) -> "CensorGenome":
        """A mutated copy: ``operations`` single-parameter perturbations."""
        specs = _spec_map(self.country)
        names = sorted(specs)
        params = dict(self.params)
        for _ in range(max(1, operations)):
            name = rng.choice(names)
            params[name] = specs[name].perturb(params[name], rng)
        return CensorGenome(self.country, params)

    def crossover(self, other: "CensorGenome", rng: random.Random) -> "CensorGenome":
        """A uniform-crossover child of ``self`` and ``other``."""
        if other.country != self.country:
            raise ValueError(
                f"cannot cross {self.country!r} with {other.country!r}"
            )
        params = {
            name: (self.params[name] if rng.random() < 0.5 else other.params[name])
            for name in sorted(self.params)
        }
        return CensorGenome(self.country, params)

    def build(self, rng: Optional[random.Random] = None) -> Censor:
        """Instantiate the live censor this genome describes."""
        return build_censor(self.country, self.params, rng)


def build_censor(
    country: str,
    params: Optional[Mapping[str, Union[float, int, bool]]] = None,
    rng: Optional[random.Random] = None,
) -> Censor:
    """Build the live censor for ``country`` configured by ``params``.

    ``params`` may be partial or ``None`` (missing keys take their
    calibrated defaults); it is normalized by the country's profile
    first, so out-of-bounds values clamp and unknown keys raise. ``rng``
    feeds the probabilistic censors (currently only China's GFW).
    """
    profile = country_profile(country)
    return profile.builder(
        profile.normalize(params), rng if rng is not None else random.Random(0)
    )


def axis_probe_genomes(country: str) -> List[CensorGenome]:
    """One genome per parameter extreme, in deterministic order.

    For every parameter (sorted by name) this yields the baseline genome
    with that single parameter pushed to its low then its high bound
    (booleans: flipped once), skipping probes identical to the baseline.
    Seeding a censor population with these axis-aligned extremes lets a
    short co-evolution run discover decisive single-knob escalations —
    e.g. ``resync_scale=0`` disabling the GFW's resynchronization rules —
    that a Gaussian mutation walk would take many generations to reach.
    """
    base = CensorGenome.baseline(country)
    probes: List[CensorGenome] = []
    for name, spec in sorted(_spec_map(country).items()):
        if spec.kind == "bool":
            extremes: Tuple[object, ...] = (not spec.default,)
        else:
            extremes = (spec.lo, spec.hi)
        for value in extremes:
            clamped = spec.clamp(value)
            if clamped == base.params[name]:
                continue
            probes.append(
                CensorGenome(country, {**base.params, name: clamped})
            )
    return probes


def seeded_censor_population(
    country: str, size: int, rng: random.Random
) -> List[CensorGenome]:
    """Baseline, then axis-extreme probes, then single-mutation variants.

    The first genome is always the calibrated baseline; the next slots
    are :func:`axis_probe_genomes` extremes (truncated to fit); any
    remaining slots are filled with random single mutations of the
    baseline drawn from ``rng``.
    """
    base = CensorGenome.baseline(country)
    population = [base] + axis_probe_genomes(country)
    population = population[:size]
    while len(population) < size:
        population.append(base.mutate(rng))
    return population
