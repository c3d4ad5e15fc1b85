"""Picklable trial descriptions.

A :class:`TrialSpec` captures *everything* that determines a trial's
outcome — country, protocol, the strategy DSL strings, the seed, and any
extra :class:`~repro.eval.runner.Trial` options — as plain JSON-able
data. That buys three things at once:

- specs can cross a ``multiprocessing`` boundary to worker processes;
- specs have a canonical string form, and a seedless *shape* that
  groups a batch's trials, so a content-addressed cache can key results
  on them;
- serial and parallel execution run literally the same description, so
  parity is structural rather than hoped-for.

Strategies are carried as their Geneva DSL strings (``str(strategy)``
round-trips by construction — see ``tests/core/test_parser_property.py``),
which is also what makes the cache key stable across processes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..obs.metrics import Counter

__all__ = [
    "ShardWorld",
    "SpecError",
    "TrialSpec",
    "canonical_json",
    "impairment_dict",
    "key_address",
    "strategy_text",
]

#: Every executed trial, by target and outcome. Deterministic: the same
#: spec batch yields the same tallies whatever the worker count.
_TRIAL_OUTCOMES = Counter(
    "repro_trial_outcomes_total",
    "Trials executed, by country/protocol/outcome/evasion-success",
    ("country", "protocol", "outcome", "succeeded"),
)


#: The one canonical JSON encoder: sorted keys, compact separators. Its
#: output is byte-identical to ``json.dumps(value, sort_keys=True,
#: separators=(",", ":"))``, which builds a fresh encoder on every call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def key_address(key: str) -> str:
    """Content address of a canonical key: its SHA-256 hex digest."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


class SpecError(ValueError):
    """Raised when trial arguments cannot be represented as a spec
    (e.g. a live censor instance or middlebox objects were passed)."""


#: Parsed-strategy memo keyed by DSL text. A batch of trials re-parses
#: the same handful of strategy strings thousands of times; parsed
#: strategies are never mutated after construction (the GA copies before
#: mutating), so sharing one instance is safe.
_PARSE_CACHE: dict = {}
_PARSE_CACHE_MAX = 512


def _parse_strategy(text: str):
    strategy = _PARSE_CACHE.get(text)
    if strategy is None:
        from ..core import Strategy

        strategy = Strategy.parse(text)
        if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[text] = strategy
    return strategy


def _copy_tree(value: Any) -> Any:
    """Deep-copy a JSON tree (much cheaper than ``copy.deepcopy``).

    Spec options are validated JSON-able at build time, so the only
    containers are dicts/lists/tuples and every leaf is an immutable
    scalar that can be shared.
    """
    if isinstance(value, dict):
        return {key: _copy_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_tree(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_copy_tree(item) for item in value)
    return value


def strategy_text(strategy: Any) -> Optional[str]:
    """Canonical DSL text for a strategy argument (str/Strategy/None)."""
    if strategy is None:
        return None
    if isinstance(strategy, str):
        return strategy
    text = str(strategy)
    if not hasattr(strategy, "apply_outbound"):
        raise SpecError(f"not a strategy: {strategy!r}")
    return text


def impairment_dict(value: Any) -> Optional[Dict[str, Any]]:
    """Canonical minimal dict for an ``impairment=`` argument.

    Accepts ``None``, an :class:`repro.netsim.Impairment`, or a dict of
    knobs (validated). Null policies (all knobs zero) collapse to
    ``None`` so they share the unimpaired spec's cache key.
    """
    if value is None:
        return None
    from ..netsim import Impairment

    try:
        policy = Impairment.from_value(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad impairment: {exc}") from None
    if policy.is_null():
        return None
    return policy.as_dict()


def _ensure_jsonable(value: Any, path: str) -> None:
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _ensure_jsonable(item, f"{path}[{i}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise SpecError(f"non-string key {key!r} at {path}")
            _ensure_jsonable(item, f"{path}.{key}")
        return
    raise SpecError(f"option {path} = {value!r} is not JSON-representable")


class ShardWorld:
    """The one trial world that a shard's specs run on, in turn.

    A shard is a run of specs that differ only in their seeds. The first
    :meth:`TrialSpec.run` given this world builds its
    :class:`~repro.eval.runner.Trial`, and each later run re-seeds that
    trial for its own seed (:meth:`~repro.eval.runner.Trial.reseed`), so
    the strategy parse, the censor, the path and the network are built
    once per shard. Every run through one world must share the spec
    shape and ``keep_trace``. A run that raises drops the trial, and the
    next run builds afresh. The world lives as long as its shard.
    """

    __slots__ = ("trial",)

    def __init__(self) -> None:
        self.trial = None


@dataclass
class TrialSpec:
    """One trial, fully described as picklable data.

    Attributes:
        country: Censor country or ``None`` for no censor.
        protocol: Application protocol (``"http"``, ``"dns"``, ...).
        server_strategy: Server-side strategy DSL text, or ``None``.
        seed: The exact per-trial seed (already derived; specs do not
            fan seeds out themselves).
        client_strategy: Client-side strategy DSL text, or ``None``.
        impairment: Canonical network-impairment dict (see
            :class:`repro.netsim.Impairment`), or ``None`` for a perfect
            path. Part of the canonical key — impaired results can never
            be served for unimpaired specs or vice versa. ``None`` is
            *omitted* from the canonical form, so pre-impairment cache
            entries stay addressable (cache-key schema v2, additive).
        options: Extra keyword arguments for
            :class:`~repro.eval.runner.Trial` (JSON-able values only).
    """

    country: Optional[str]
    protocol: str
    server_strategy: Optional[str] = None
    seed: int = 0
    client_strategy: Optional[str] = None
    options: Dict[str, Any] = field(default_factory=dict)
    impairment: Optional[Dict[str, Any]] = None

    @classmethod
    def build(
        cls,
        country: Optional[str],
        protocol: str,
        server_strategy: Any = None,
        seed: int = 0,
        client_strategy: Any = None,
        impairment: Any = None,
        **kwargs: Any,
    ) -> "TrialSpec":
        """Build a spec from ``run_trial``-style arguments.

        ``impairment`` accepts an :class:`repro.netsim.Impairment`, its
        dict form, or ``None``; it is canonicalized (minimal sorted
        dict, null policies collapse to ``None``) so equal policies
        always hash equally.

        Raises :class:`SpecError` when any argument cannot be expressed
        as picklable data (callers then fall back to in-process
        execution with live objects).
        """
        _ensure_jsonable(kwargs, "options")
        return cls(
            country=country,
            protocol=protocol,
            server_strategy=strategy_text(server_strategy),
            seed=seed,
            client_strategy=strategy_text(client_strategy),
            options=dict(kwargs),
            impairment=impairment_dict(impairment),
        )

    # ------------------------------------------------------------------
    # Canonical form / hashing

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (also the multiprocessing payload).

        The ``impairment`` key is present only when set: unimpaired
        specs keep the exact canonical form (and therefore cache keys)
        they had before the impairment layer existed.
        """
        out = {
            "country": self.country,
            "protocol": self.protocol,
            "server_strategy": self.server_strategy,
            "client_strategy": self.client_strategy,
            "seed": self.seed,
            "options": self.options,
        }
        if self.impairment is not None:
            out["impairment"] = self.impairment
        return out

    def canonical_key(self) -> str:
        """Deterministic string form: sorted-key compact JSON."""
        return canonical_json(self.as_dict())

    def spec_hash(self) -> str:
        """Content address of this spec (SHA-256 of the canonical key)."""
        return key_address(self.canonical_key())

    def shape(self) -> tuple:
        """This spec minus its seed, as a cheap hashable tuple.

        Specs of equal shape differ at most in their seeds: the executor
        runs them as one shard and the result cache keeps their results
        together. Options and impairment enter as canonical JSON, so
        equal values give equal shapes whatever their key order.
        """
        return (
            self.country,
            self.protocol,
            self.server_strategy,
            self.client_strategy,
            canonical_json(self.options) if self.options else "{}",
            None if self.impairment is None else canonical_json(self.impairment),
        )

    # ------------------------------------------------------------------
    # Execution

    def run(self, keep_trace: bool = False, world: Optional[ShardWorld] = None):
        """Execute this trial and return its :class:`TrialResult`.

        With ``world``, the trial runs on that shard's world: built here
        if the world is empty, else re-seeded for this spec's seed, which
        skips the decode and the build (see :class:`ShardWorld`).

        A trace is captured only when ``keep_trace`` is set or a run log
        is active (a flight dump on error needs it); otherwise the trial
        records nothing and pools its packets (see
        :meth:`~repro.eval.runner.Trial.run`). It is returned only with
        ``keep_trace``: traces hold full packet copies, which batch
        consumers never need and which must not cross process or cache
        boundaries.

        Execution is bracketed into observability phases (spec decode,
        trial build, simulate, finalize) — timed only when span
        profiling is on — and reports outcome counters to the active
        metrics registry. If the trial raises and a run log is active,
        the tail of the packet trace is flight-dumped before the
        exception propagates.
        """
        from ..obs import runlog as obs_runlog
        from ..obs import spans

        log = obs_runlog.active_runlog()
        with spans.span("trial"):
            trial = None
            if world is not None:
                # Taken out until this run returns: a trial that raises
                # is never reused.
                trial, world.trial = world.trial, None
            if trial is not None:
                with spans.span("trial/build"):
                    trial.reseed(self.seed)
            else:
                trial = self._build(keep_trace or log is not None)
            try:
                with spans.span("trial/simulate", clock=trial.scheduler):
                    result = trial.run()
            except Exception as exc:
                if log is not None:
                    log.record_exception(self, exc, trace=trial.network.trace)
                raise
            if world is not None:
                world.trial = trial
            with spans.span("trial/finalize"):
                _TRIAL_OUTCOMES.inc(
                    country=self.country if self.country is not None else "none",
                    protocol=self.protocol,
                    outcome=result.outcome,
                    succeeded=result.succeeded,
                )
                if not keep_trace:
                    result.trace = None
        return result

    def _build(self, capture_trace: bool):
        """Decode this spec and build its trial (spanned phases of :meth:`run`)."""
        from ..eval.runner import Trial
        from ..obs import spans

        with spans.span("trial/spec_decode"):
            server = (
                _parse_strategy(self.server_strategy)
                if self.server_strategy is not None
                else None
            )
            # Deep copy: Trial mutates nested options (e.g. it writes the
            # DNS try count into the workload dict), and the spec must
            # stay byte-stable so its content hash is the same before and
            # after execution.
            kwargs = _copy_tree(self.options)
            if self.client_strategy is not None:
                kwargs["client_strategy"] = _parse_strategy(self.client_strategy)
            if self.impairment is not None:
                kwargs["impairment"] = dict(self.impairment)
            # Not a spec option: it cannot change the verdict, so it must
            # not change the cache key either.
            kwargs.setdefault("capture_trace", capture_trace)
        with spans.span("trial/build"):
            return Trial(self.country, self.protocol, server, seed=self.seed, **kwargs)
