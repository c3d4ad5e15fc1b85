"""Trial runner: one censored request through one censor with one strategy.

This is the workhorse behind every table and figure. A :class:`Trial`
assembles the full evaluation topology —

    client ── r1 ── r2 ── censor ── r4 … r9 ── server
              (hop 3 by default; server at hop 10)

— installs the server-side (and optionally client-side) Geneva strategy,
drives the protocol's censored request with an unmodified client stack,
and reports the paper's success criterion: the connection is not torn
down and the client receives the correct, unaltered data.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..apps import (
    DNSClient,
    DNSServer,
    FTPClient,
    FTPServer,
    HTTPClient,
    HTTPSClient,
    HTTPSServer,
    HTTPServer,
    SMTPClient,
    SMTPServer,
)
from ..censors import COUNTRIES, Censor, build_censor
from ..core import Strategy, install_strategy
from ..netsim import Impairment, Middlebox, Network, NullTrace, Scheduler, Trace
from ..packets import IPv4, IPv6, pool
from ..runtime.seeds import net_stream_seed
from ..tcpstack import Host, SERVER_PERSONALITY, personality

__all__ = [
    "Trial",
    "TrialResult",
    "run_trial",
    "success_rate",
    "CLIENT_IP",
    "SERVER_IP",
    "DEFAULT_CENSOR_HOP",
    "DEFAULT_SERVER_HOP",
    "PROTOCOLS",
    "censored_workload",
    "benign_workload",
    "default_port",
    "install_server_app",
    "make_client_app",
    "middlebox_chain",
    "reseed_rngs",
    "trial_rngs",
    "TrialRngs",
]

CLIENT_IP = "10.1.0.2"
SERVER_IP = "192.0.2.10"

#: Addresses used when a trial runs over IPv6 (documentation prefix).
CLIENT_IP_V6 = "2001:db8:1::2"
SERVER_IP_V6 = "2001:db8:ffff::10"

DEFAULT_CENSOR_HOP = 3
DEFAULT_SERVER_HOP = 10

_CLIENT_CLASSES = {
    "http": HTTPClient,
    "https": HTTPSClient,
    "dns": DNSClient,
    "ftp": FTPClient,
    "smtp": SMTPClient,
}

_SERVER_CLASSES = {
    "http": HTTPServer,
    "https": HTTPSServer,
    "dns": DNSServer,
    "ftp": FTPServer,
    "smtp": SMTPServer,
}

#: Every application protocol the trial runner speaks, sorted.
PROTOCOLS: Tuple[str, ...] = tuple(sorted(_CLIENT_CLASSES))

_DEFAULT_PORTS = {"http": 80, "https": 443, "dns": 53, "ftp": 21, "smtp": 25}

_BENIGN_WORKLOADS: Dict[str, dict] = {
    "http": {"path": "/?q=kittens", "host_header": "benign.example.com"},
    "https": {"server_name": "benign.example.com"},
    "dns": {"qname": "benign.example.com"},
    "ftp": {"filename": "notes.txt"},
    "smtp": {"recipient": "friend@example.org"},
}


def censored_workload(country: str, protocol: str) -> dict:
    """Client parameters that trigger censorship for (country, protocol).

    §4.2's workloads, from the country's registry profile.
    """
    return dict(COUNTRIES[country].workloads[protocol])


def benign_workload(protocol: str) -> dict:
    """Client parameters that no censor objects to."""
    return dict(_BENIGN_WORKLOADS[protocol])


def default_port(protocol: str) -> int:
    """The protocol's default server port."""
    return _DEFAULT_PORTS[protocol]


def make_censor(
    country: Optional[str],
    rng: random.Random,
    params: Optional[dict] = None,
) -> Optional[Censor]:
    """Instantiate the censor model for ``country`` (None = no censor).

    Every censor is built from its genome
    (:func:`~repro.censors.adaptive.build_censor`). ``params`` configures
    an *adaptive* variant: a JSON-able dict of bounded knobs — a
    :class:`~repro.censors.adaptive.CensorGenome`'s ``params`` — that
    reshapes the calibrated model. ``None`` is the baseline genome, the
    paper's calibration.
    """
    if country is None:
        return None
    return build_censor(country, params, rng)


class TrialRngs(NamedTuple):
    """The four RNG streams of one trial, in their derivation order."""

    censor: random.Random
    client: random.Random
    server: random.Random
    strategy: random.Random


def _stream_seeds(seed: int) -> List[int]:
    """The seeds of a trial's four streams, in :class:`TrialRngs` order."""
    base = random.Random(seed)
    return [base.randrange(1 << 30) for _ in range(4)]


def trial_rngs(seed: int) -> TrialRngs:
    """Split a trial seed into its censor, client, server and strategy streams.

    The split is part of every recorded trace. A fleet flow with trial
    seed ``s`` uses it too, so it draws the same numbers, in the same
    order, as ``Trial(seed=s)``; :func:`reseed_rngs` re-seeds built
    streams from the same split.
    """
    return TrialRngs(*map(random.Random, _stream_seeds(seed)))


def reseed_rngs(rngs: TrialRngs, seed: int) -> None:
    """Re-seed ``rngs`` in place to the streams ``trial_rngs(seed)`` makes.

    Every component holding one of the streams keeps it. A re-seeded
    trial (:meth:`Trial.reseed`) and a fleet flow admitted into a parked
    world slice both re-seed this way.
    """
    for rng, stream_seed in zip(rngs, _stream_seeds(seed)):
        rng.seed(stream_seed)


def middlebox_chain(
    censor: Optional[Middlebox],
    client_side_boxes: Sequence[Middlebox] = (),
    censor_hop: int = DEFAULT_CENSOR_HOP,
    server_hop: int = DEFAULT_SERVER_HOP,
) -> List[Middlebox]:
    """The path's middleboxes, client side first.

    ``client_side_boxes`` come first, inert padding puts ``censor`` (if
    any) at hop ``censor_hop``, and more padding puts the server at hop
    ``server_hop``.
    """
    middleboxes = list(client_side_boxes)
    middleboxes.extend(Middlebox() for _ in range(censor_hop - 1 - len(middleboxes)))
    if censor is not None:
        middleboxes.append(censor)
    middleboxes.extend(Middlebox() for _ in range(server_hop - 1 - len(middleboxes)))
    return middleboxes


def install_server_app(host: Host, protocol: str, port: Optional[int] = None):
    """Build the protocol's server app on ``host`` and start it listening.

    ``port`` defaults to the protocol's :func:`default_port`.
    """
    app = _SERVER_CLASSES[protocol](
        host, port if port is not None else default_port(protocol)
    )
    app.install()
    return app


def make_client_app(
    host: Host,
    country: Optional[str],
    protocol: str,
    server_ip: str,
    port: int,
    workload: Optional[dict] = None,
    dns_tries: int = 3,
):
    """The protocol's client app on ``host``, built but not started.

    It sends ``workload`` if given, else the censored workload when
    ``country`` censors ``protocol`` and the benign one otherwise. A DNS
    client makes ``dns_tries`` attempts unless the workload sets
    ``tries``.
    """
    profile = COUNTRIES.get(country)
    params = workload if workload is not None else (
        censored_workload(country, protocol)
        if profile is not None and protocol in profile.workloads
        else benign_workload(protocol)
    )
    if protocol == "dns":
        params.setdefault("tries", dns_tries)
    return _CLIENT_CLASSES[protocol](host, server_ip, port, **params)


@dataclass
class TrialResult:
    """Outcome of one trial.

    Attributes:
        outcome: Client application outcome (``"success"`` etc.).
        succeeded: The paper's evasion criterion was met.
        censored: The censor took at least one censorship action.
        detail: Free-form outcome detail from the client app.
        trace: Full packet trace of the trial.
    """

    outcome: str
    succeeded: bool
    censored: bool
    detail: str = ""
    trace: Optional[Trace] = None


class Trial:
    """One fully-assembled evaluation run (build, then :meth:`run`).

    Everything but the seed is fixed at construction: the strategy parse
    checks, the censor, the padded middlebox chain and the network.
    :meth:`reseed` turns a built (and possibly already run) trial into
    the one ``Trial(..., seed=new_seed)`` would build, so the executor
    builds one world per shard of same-shape specs and re-seeds it for
    each seed.
    """

    def __init__(
        self,
        country: Optional[str],
        protocol: str,
        server_strategy: Optional[Strategy] = None,
        client_strategy: Optional[Strategy] = None,
        seed: int = 0,
        client_os: str = "ubuntu-18.04.1",
        workload: Optional[dict] = None,
        server_port: Optional[int] = None,
        censor_hop: int = DEFAULT_CENSOR_HOP,
        server_hop: int = DEFAULT_SERVER_HOP,
        client_side_boxes: Sequence[Middlebox] = (),
        dns_tries: int = 3,
        censor: Optional[Censor] = None,
        max_time: float = 40.0,
        client_ip: Optional[str] = None,
        strategy_at_hop: Optional[int] = None,
        ip_version: int = 4,
        impairment=None,
        net_seed: Optional[int] = None,
        capture_trace: bool = True,
        censor_params: Optional[dict] = None,
    ) -> None:
        if ip_version not in (4, 6):
            raise ValueError("ip_version must be 4 or 6")
        # Fail before any event runs, not when the tamper first fires.
        # Every trial protocol runs over TCP, so no trial packet has a
        # UDP layer to tamper with.
        ip_fields = (IPv6 if ip_version == 6 else IPv4).FIELDS
        for strategy in (server_strategy, client_strategy):
            for tamper in strategy.tampers() if strategy is not None else ():
                if tamper.protocol == "UDP":
                    raise ValueError(
                        f"{tamper} names UDP:{tamper.field}, "
                        f"but {protocol} trials carry no UDP packets"
                    )
                if tamper.protocol == "IP" and tamper.field not in ip_fields:
                    raise ValueError(
                        f"{tamper} names IP:{tamper.field}, "
                        f"which IPv{ip_version} packets lack"
                    )
        server_ip = SERVER_IP_V6 if ip_version == 6 else SERVER_IP
        if client_ip is None:
            client_ip = CLIENT_IP_V6 if ip_version == 6 else CLIENT_IP
        self.server_ip = server_ip
        self.protocol = protocol
        self.max_time = max_time
        self.scheduler = Scheduler()
        # Normalize the impairment policy up front; null policies drop to
        # None so the unimpaired path stays literally the pre-impairment
        # code path (zero extra RNG draws, bit-identical traces).
        policy = Impairment.from_value(impairment)
        if policy is not None and policy.is_null():
            policy = None
        self.impairment = policy
        self._net_seed = net_seed
        #: The impairment stream; ``None`` on a perfect path.
        self.net_rng: Optional[random.Random] = None
        if self.impairment is not None:
            self.net_rng = random.Random(self._net_stream_seed(seed))
        self.rngs = rngs = trial_rngs(seed)

        self.client_host = Host(
            "client", client_ip, self.scheduler, rngs.client, personality(client_os)
        )
        self.server_host = Host(
            "server", server_ip, self.scheduler, rngs.server, SERVER_PERSONALITY
        )

        if censor is not None and censor_params is not None:
            raise ValueError("pass either censor= or censor_params=, not both")
        self.censor = (
            censor
            if censor is not None
            else make_censor(country, rngs.censor, censor_params)
        )
        middleboxes = middlebox_chain(
            self.censor, client_side_boxes, censor_hop, server_hop
        )

        self.server_engine = None
        if (
            strategy_at_hop is not None
            and server_strategy is not None
            and not server_strategy.is_noop()
        ):
            # §8 mid-path deployment: run the strategy at a middlebox on
            # the path between the censor and the server.
            from ..deploy import StrategyMiddlebox

            if not (censor_hop < strategy_at_hop < server_hop):
                raise ValueError(
                    "strategy_at_hop must lie between the censor and the server"
                )
            proxy = StrategyMiddlebox(server_strategy, rngs.strategy)
            middleboxes[strategy_at_hop - 1] = proxy
            self.server_engine = proxy
            server_strategy = None

        # Rate-only consumers (success_rate, matrices, GA fitness) pass
        # capture_trace=False: trace recording — and its per-event packet
        # copy — collapses to a no-op, and run() pools packets (nothing
        # retains them past the trial).
        self._pooled = not capture_trace
        self.network = Network(
            self.scheduler,
            self.client_host,
            self.server_host,
            middleboxes,
            impairment=self.impairment,
            net_rng=self.net_rng,
            trace=Trace() if capture_trace else NullTrace(),
        )
        self.client_host.attach(self.network)
        self.server_host.attach(self.network)

        # The engines installed on the hosts; a strategy_at_hop proxy is
        # a middlebox and resets with the chain.
        self._engines = []
        if server_strategy is not None and not server_strategy.is_noop():
            self.server_engine = install_strategy(
                self.server_host, server_strategy, rngs.strategy
            )
            self._engines.append(self.server_engine)
        self.client_engine = None
        if client_strategy is not None and not client_strategy.is_noop():
            self.client_engine = install_strategy(
                self.client_host, client_strategy, rngs.strategy
            )
            self._engines.append(self.client_engine)

        port = server_port if server_port is not None else default_port(protocol)
        self.server_app = install_server_app(self.server_host, protocol, port)
        self._client_app_args = (country, protocol, server_ip, port, workload, dns_tries)
        self.client_app = make_client_app(self.client_host, *self._client_app_args)

    def _net_stream_seed(self, seed: int) -> int:
        """The impairment stream's seed: ``net_seed`` if set, else split
        from the trial seed.

        The split uses a domain salt rather than a fifth draw in
        :func:`trial_rngs`: one more draw there would shift the
        censor/client/server/strategy streams and change every existing
        trace.
        """
        return self._net_seed if self._net_seed is not None else net_stream_seed(seed)

    def reseed(self, seed: int) -> None:
        """Make this trial the one ``Trial(..., seed=seed)`` would build.

        The four streams (and an impaired path's net stream) are
        re-seeded in place, so every component holding one keeps it.
        Then every component's per-run state is reset: the scheduler,
        both hosts (whose ephemeral-port draw stays the first draw on
        each host stream), every middlebox on the path, the server app
        and the host engines. A capturing trial gets a fresh
        :class:`Trace`, and the client app is built anew. Only a trial
        whose :meth:`run` returned may be re-seeded: one that raised
        may have left state half-updated.
        """
        reseed_rngs(self.rngs, seed)
        if self.net_rng is not None:
            self.net_rng.seed(self._net_stream_seed(seed))
        self.scheduler.reset()
        self.client_host.reset()
        self.server_host.reset()
        for box in self.network.middleboxes:
            box.reset()
        self.server_app.reset()
        for engine in self._engines:
            engine.reset()
        if not self._pooled:
            self.network.trace = Trace()
        self.client_app = make_client_app(self.client_host, *self._client_app_args)

    def run(self) -> TrialResult:
        """Execute the trial to quiescence and report the outcome.

        A trial built with ``capture_trace=False`` runs with the packet
        arena active (:func:`repro.packets.pool.pooled`): its
        ``NullTrace`` keeps no packet, so every one can be recycled.
        """
        with pool.pooled() if self._pooled else nullcontext():
            self.client_app.start()
            self.network.run(until=self.max_time)
        outcome = self.client_app.outcome or "timeout"
        return TrialResult(
            outcome=outcome,
            succeeded=self.client_app.succeeded,
            censored=self.censor.censorship_events > 0 if self.censor else False,
            detail=getattr(self.client_app, "detail", ""),
            trace=self.network.trace,
        )


def run_trial(
    country: Optional[str],
    protocol: str,
    server_strategy: Optional[Strategy] = None,
    seed: int = 0,
    **kwargs,
) -> TrialResult:
    """Build and run a single trial (see :class:`Trial` for options)."""
    return Trial(country, protocol, server_strategy, seed=seed, **kwargs).run()


def success_rate(
    country: Optional[str],
    protocol: str,
    server_strategy: Optional[Strategy],
    trials: int = 100,
    seed: int = 0,
    workers: int = 1,
    cache=None,
    executor=None,
    impairment=None,
    net_seed: Optional[int] = None,
    **kwargs,
) -> float:
    """Fraction of ``trials`` independent runs that evade censorship.

    The trials are one grid cell (:class:`~repro.runtime.CellSpec`), so
    per-trial seeds are ``trial_seed(seed, index)`` and results are
    identical whatever the execution mode. ``workers`` fans trials out
    over a process pool, ``cache`` enables the content-addressed result
    store (``True`` → ``.repro_cache/``, or a path / ``ResultCache``),
    and ``executor`` supplies a prebuilt
    :class:`~repro.runtime.TrialExecutor` (overriding both) so callers
    can share one across batches and read its
    :class:`~repro.runtime.RunStats`. ``impairment`` applies one
    network-impairment policy to every trial; ``net_seed`` pins the
    impairment stream explicitly (fanned out per trial, so trials stay
    independent) instead of the default split from each trial's own
    seed. A bad country, protocol, strategy or trial count raises
    :class:`~repro.runtime.CampaignError`. Options that cannot be
    carried as data (live censor instances, middlebox objects, ...) run
    in-process over the same seeds.
    """
    from ..runtime import CellSpec, SpecError, TrialExecutor

    client_strategy = kwargs.pop("client_strategy", None)
    cell = CellSpec.build(
        country, protocol, server_strategy, trials=trials, seed=seed,
        client_strategy=client_strategy, impairment=impairment,
        net_seed=net_seed, options=kwargs,
    )
    try:
        specs = cell.trial_specs()
    except SpecError:
        kwargs.setdefault("capture_trace", False)  # only the verdicts are read
        successes = sum(
            run_trial(
                country, protocol, server_strategy, seed=trial,
                client_strategy=client_strategy, impairment=cell.impairment,
                net_seed=impairment_seed, **kwargs,
            ).succeeded
            for trial, impairment_seed in cell.seeds()
        )
        return successes / trials
    if executor is None:
        executor = TrialExecutor(workers=workers, cache=cache)
    results = executor.run_batch(specs)
    return sum(result.succeeded for result in results) / trials
