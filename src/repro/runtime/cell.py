"""Grid cells: one trial shape measured with ``trials`` seeded trials.

Every batched experiment is a grid of :class:`CellSpec` cells, and
:meth:`CellSpec.trial_specs` is the one place where a cell's base seed
(and impairment seed) fan out into per-trial seeds through
:func:`~repro.runtime.seeds.trial_seed`. The evaluation drivers measure
their grids with :meth:`~repro.runtime.TrialExecutor.run_cells`, the
campaign presets wrap the same grids, and campaign files spell cells in
the :meth:`CellSpec.as_dict` form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from .seeds import trial_seed
from .spec import SpecError, TrialSpec, _ensure_jsonable, _parse_strategy, impairment_dict

__all__ = ["CampaignError", "CellSpec"]


class CampaignError(ValueError):
    """Raised when a campaign spec or one of its cells is malformed."""


def _strategy_dsl(value: Any) -> Optional[str]:
    """Canonical strategy DSL text for a cell's strategy field.

    Accepts ``None``/``0`` (no evasion), a paper strategy number
    (resolved to its deployed DSL), a Geneva DSL string (validated by
    parsing it) or a parsed strategy (its DSL text).
    """
    if value is None or value == 0:
        return None
    if isinstance(value, bool):
        raise CampaignError(f"bad strategy {value!r}")
    if isinstance(value, int):
        from ..core import SERVER_STRATEGIES, deployed_strategy

        if value not in SERVER_STRATEGIES:
            valid = f"{min(SERVER_STRATEGIES)}-{max(SERVER_STRATEGIES)}"
            raise CampaignError(
                f"unknown strategy number {value} (valid: {valid})"
            )
        return str(deployed_strategy(value))
    if isinstance(value, str):
        try:
            _parse_strategy(value)
        except Exception as exc:
            raise CampaignError(f"unparseable strategy {value!r}: {exc}") from None
        return value
    if hasattr(value, "apply_outbound"):
        return str(value)
    raise CampaignError(f"bad strategy {value!r}")


@dataclass
class CellSpec:
    """One grid cell: a (country, protocol, strategy) point measured with
    ``trials`` independent seeded trials.

    Attributes:
        country: Censor country, or ``None`` for an uncensored path.
        protocol: Application protocol (``"http"``, ``"dns"``, ...).
        server_strategy: Canonical server-side strategy DSL, or ``None``.
        trials: Number of independent trials for this cell (>= 1).
        seed: Cell base seed; trial ``i`` runs with
            ``trial_seed(seed, i)``.
        client_strategy: Client-side strategy DSL, or ``None``.
        impairment: Canonical network-impairment dict, or ``None``.
        net_seed: Optional base seed for the impairment stream; trial
            ``i`` pins it to ``trial_seed(net_seed, i)``.
        options: Extra JSON-able :class:`~repro.eval.runner.Trial`
            keyword arguments (workloads, hop placement, ...).
        label: Optional human-readable name carried into reports.
    """

    country: Optional[str]
    protocol: str
    server_strategy: Optional[str] = None
    trials: int = 1
    seed: int = 0
    client_strategy: Optional[str] = None
    impairment: Optional[Dict[str, Any]] = None
    net_seed: Optional[int] = None
    options: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    @classmethod
    def build(
        cls,
        country: Optional[str],
        protocol: str,
        server_strategy: Any = None,
        trials: int = 1,
        seed: int = 0,
        client_strategy: Any = None,
        impairment: Any = None,
        net_seed: Optional[int] = None,
        options: Optional[Dict[str, Any]] = None,
        label: Optional[str] = None,
    ) -> "CellSpec":
        """Validate and canonicalize ``run_trial``-style cell arguments
        (options are checked when the cell expands)."""
        from ..censors.countries import COUNTRIES
        from ..eval.runner import PROTOCOLS

        if country is not None and country not in COUNTRIES:
            raise CampaignError(
                f"unknown country {country!r} (valid: {', '.join(COUNTRIES)}, null)"
            )
        if protocol not in PROTOCOLS:
            raise CampaignError(
                f"unknown protocol {protocol!r} (valid: {', '.join(PROTOCOLS)})"
            )
        if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
            raise CampaignError(f"cell trials must be a positive int, got {trials!r}")
        try:
            canonical_impairment = impairment_dict(impairment)
        except SpecError as exc:
            raise CampaignError(str(exc)) from None
        return cls(
            country=country,
            protocol=protocol,
            server_strategy=_strategy_dsl(server_strategy),
            trials=trials,
            seed=int(seed),
            client_strategy=_strategy_dsl(client_strategy),
            impairment=canonical_impairment,
            net_seed=None if net_seed is None else int(net_seed),
            options=dict(options or {}),
            label=label,
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellSpec":
        """Build a cell from its JSON form (unknown keys rejected)."""
        if not isinstance(data, dict):
            raise CampaignError(f"cell must be an object, got {data!r}")
        unknown = set(data) - {spec.name for spec in fields(cls)}
        if unknown:
            raise CampaignError(f"unknown cell keys: {', '.join(sorted(unknown))}")
        if "protocol" not in data:
            raise CampaignError("cell is missing required key 'protocol'")
        return cls.build(**{"country": None, **data})

    def as_dict(self) -> Dict[str, Any]:
        """Canonical minimal JSON form (``None``/empty fields omitted)."""
        out: Dict[str, Any] = {
            "country": self.country,
            "protocol": self.protocol,
            "trials": self.trials,
            "seed": self.seed,
        }
        for name in (
            "server_strategy", "client_strategy", "impairment", "net_seed", "options", "label",
        ):
            value = getattr(self, name)
            if value is not None and value != {}:
                out[name] = value
        return out

    def seeds(self) -> List[Tuple[int, Optional[int]]]:
        """Each trial's ``(seed, net_seed)``, in trial order (``net_seed``
        is ``None`` unless the cell pins the impairment stream)."""
        pinned = self.net_seed is not None
        return [
            (trial_seed(self.seed, i), trial_seed(self.net_seed, i) if pinned else None)
            for i in range(self.trials)
        ]

    def trial_specs(self) -> List[TrialSpec]:
        """Expand this cell into its ``trials`` ordered trial specs.

        Raises :class:`~repro.runtime.SpecError` when an option cannot be
        carried as data (a live censor instance, middlebox objects, ...).
        """
        _ensure_jsonable(self.options, "options")
        specs: List[TrialSpec] = []
        for seed, net_seed in self.seeds():
            options = dict(self.options)
            if net_seed is not None:
                options["net_seed"] = net_seed
            specs.append(
                TrialSpec(
                    self.country, self.protocol, self.server_strategy, seed,
                    self.client_strategy, options, self.impairment,
                )
            )
        return specs
