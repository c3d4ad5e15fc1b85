"""Structured JSONL run logs with a deterministic run-id and a flight
recorder.

Every attributable measurement effort (the paper's §6 follow-ups, the
Turkmenistan-scale studies in PAPERS.md) rests on one discipline: every
probe is logged with enough context to re-run it. A :class:`RunLog`
records one JSON line per trial — spec hash, seed, outcome, censor
verdict count — plus run-level events, and serializes them with sorted
keys so that **two identical runs produce byte-identical files modulo
the single ``wall`` field** (the only wall-clock value in a record).

The run-id is derived from the *content* of the run — the SHA-256 over
the sorted set of spec hashes — never from wall time or pids, so the
same experiment always logs under the same id and artifacts from
repeated runs are diffable and content-addressable.

The flight recorder handles the "what just happened?" case: a bounded
ring of the last N trace events is dumped into the log when a trial
raises, or when a censor verdict disagrees with a pinned golden
expectation (:meth:`RunLog.check_golden`). The ring holds compact
deterministic event summaries, not packet copies, so keeping it armed
costs nothing on the happy path.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional

__all__ = [
    "FLIGHT_RING_SIZE",
    "FlightRecorder",
    "RunLog",
    "active_runlog",
    "activate",
    "run_id_for",
    "trace_tail",
]

#: Default flight-recorder depth (last N trace events kept).
FLIGHT_RING_SIZE = 32


def run_id_for(digests: Iterable[str]) -> str:
    """Deterministic run identifier: SHA-256 over the sorted hash set.

    Depends only on *which* trials the run comprises — not submission
    order, wall clock, host, or worker count.
    """
    hasher = hashlib.sha256()
    for digest in sorted(set(digests)):
        hasher.update(digest.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def _event_summary(event) -> Dict[str, Any]:
    """Compact deterministic dict for one trace event (no packet copies)."""
    out: Dict[str, Any] = {
        "t": round(event.time, 9),
        "kind": event.kind,
        "at": event.location,
    }
    if event.detail:
        out["detail"] = event.detail
    packet = event.packet
    if packet is not None:
        out["packet"] = repr(packet)
    return out


def trace_tail(trace, limit: int = FLIGHT_RING_SIZE) -> List[Dict[str, Any]]:
    """The last ``limit`` events of a trace as deterministic summaries."""
    events = trace.events if trace is not None else []
    return [_event_summary(event) for event in events[-limit:]]


class FlightRecorder:
    """Bounded ring of recent event summaries (crash-dump context)."""

    def __init__(self, size: int = FLIGHT_RING_SIZE) -> None:
        self.size = size
        self._ring: "deque[Dict[str, Any]]" = deque(maxlen=size)

    def push(self, summary: Dict[str, Any]) -> None:
        """Append one event summary (oldest entries fall off the ring)."""
        self._ring.append(summary)

    def feed_trace(self, trace) -> None:
        """Load the tail of a trace into the ring."""
        for summary in trace_tail(trace, self.size):
            self._ring.append(summary)

    def dump(self) -> List[Dict[str, Any]]:
        """Snapshot the ring, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class RunLog:
    """Buffered structured log for one run (write once, at the end).

    Records are buffered in memory because the run-id — which every
    line carries — is derived from the full spec-hash set, known only
    once all trials are submitted. Buffering also lets :meth:`write`
    emit lines in deterministic submission order regardless of worker
    scheduling.
    """

    def __init__(self, flight_size: int = FLIGHT_RING_SIZE) -> None:
        self._records: List[Dict[str, Any]] = []
        self._digests: List[str] = []
        self.flight = FlightRecorder(flight_size)
        self.anomalies = 0

    # -- recording ------------------------------------------------------

    def record(self, event: str, **fields: Any) -> None:
        """Append one structured record (``wall`` is stamped at write)."""
        record = {"event": event}
        record.update(fields)
        self._records.append(record)

    def record_trial(self, index: int, spec, result, cached: bool = False) -> None:
        """Log one trial's spec identity and outcome."""
        digest = spec.spec_hash()
        self._digests.append(digest)
        self.record(
            "trial",
            seq=index,
            spec=digest,
            country=spec.country,
            protocol=spec.protocol,
            seed=spec.seed,
            outcome=result.outcome,
            succeeded=bool(result.succeeded),
            censored=bool(result.censored),
            cached=bool(cached),
        )

    def record_exception(self, spec, exc: BaseException, trace=None) -> None:
        """Flight-dump the trace tail around a trial that raised."""
        self.anomalies += 1
        self.record(
            "flight_dump",
            reason="trial raised",
            error=f"{type(exc).__name__}: {exc}",
            spec=spec.spec_hash() if spec is not None else None,
            events=trace_tail(trace) if trace is not None else self.flight.dump(),
        )

    def check_golden(self, spec, result, expected_censored: bool, trace=None) -> bool:
        """Compare a censor verdict against a golden expectation.

        Returns True when they agree; on disagreement, dumps the last N
        trace events so the divergence is explainable without a rerun.
        """
        if bool(result.censored) == bool(expected_censored):
            return True
        self.anomalies += 1
        self.record(
            "flight_dump",
            reason="censor verdict disagrees with golden trace",
            spec=spec.spec_hash() if spec is not None else None,
            expected_censored=bool(expected_censored),
            observed_censored=bool(result.censored),
            outcome=result.outcome,
            events=trace_tail(trace) if trace is not None else self.flight.dump(),
        )
        return False

    # -- identity / output ----------------------------------------------

    @property
    def run_id(self) -> str:
        """Content-derived run identifier (see :func:`run_id_for`)."""
        return run_id_for(self._digests)

    @property
    def digests(self) -> List[str]:
        """Spec hashes of every logged trial, in submission order."""
        return list(self._digests)

    def lines(self, wall_clock=time.time) -> Iterator[str]:
        """Serialized records: sorted-key JSON, one per line.

        ``wall`` is the only non-deterministic field; determinism tests
        and CI diffs strip or normalize it.
        """
        run = self.run_id
        for record in self._records:
            payload = dict(record)
            payload["run"] = run
            payload["wall"] = wall_clock()
            yield json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def write(self, path, wall_clock=time.time) -> int:
        """Write the JSONL file; returns the number of records."""
        count = 0
        with open(path, "w") as handle:
            for line in self.lines(wall_clock):
                handle.write(line + "\n")
                count += 1
        return count


# ---------------------------------------------------------------------------
# Active-runlog scoping (how deep code reaches the log without plumbing)

_ACTIVE: Optional[RunLog] = None


def active_runlog() -> Optional[RunLog]:
    """The runlog trial execution should report into, if any."""
    return _ACTIVE


@contextmanager
def activate(runlog: Optional[RunLog]) -> Iterator[Optional[RunLog]]:
    """Make ``runlog`` the active sink for the duration of a block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = runlog
    try:
        yield runlog
    finally:
        _ACTIVE = previous
