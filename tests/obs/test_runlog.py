"""Run-log semantics: content-derived run ids, byte-deterministic JSONL,
and flight-recorder dumps on anomalies."""

import json

import pytest

from repro.obs.runlog import (
    FLIGHT_RING_SIZE,
    FlightRecorder,
    RunLog,
    activate,
    active_runlog,
    run_id_for,
    trace_tail,
)
from repro.runtime import TrialSpec, trial_seed


def _specs(n=4):
    return [
        TrialSpec.build("china", "http", seed=trial_seed(0, i)) for i in range(n)
    ]


def _run_and_log(specs):
    log = RunLog()
    for i, spec in enumerate(specs):
        log.record_trial(i, spec, spec.run())
    return log


class TestRunId:
    def test_depends_only_on_spec_set(self):
        hashes = [s.spec_hash() for s in _specs()]
        assert run_id_for(hashes) == run_id_for(list(reversed(hashes)))
        assert run_id_for(hashes) == run_id_for(hashes + hashes[:1])  # set, not list

    def test_different_specs_different_id(self):
        a = [TrialSpec.build("china", "http", seed=1).spec_hash()]
        b = [TrialSpec.build("iran", "http", seed=1).spec_hash()]
        assert run_id_for(a) != run_id_for(b)

    def test_runlog_exposes_content_id(self):
        specs = _specs()
        log = _run_and_log(specs)
        assert log.run_id == run_id_for([s.spec_hash() for s in specs])


class TestDeterminism:
    def test_identical_runs_are_byte_identical_modulo_wall(self):
        """Two executions of the same specs serialize identically except
        for the one wall-clock field per record."""
        first = list(_run_and_log(_specs()).lines())
        second = list(_run_and_log(_specs()).lines())
        assert len(first) == len(second)
        for a, b in zip(first, second):
            ra, rb = json.loads(a), json.loads(b)
            ra.pop("wall"), rb.pop("wall")
            assert ra == rb

    def test_byte_identical_with_pinned_clock(self):
        first = list(_run_and_log(_specs()).lines(wall_clock=lambda: 0.0))
        second = list(_run_and_log(_specs()).lines(wall_clock=lambda: 0.0))
        assert first == second

    def test_wall_is_the_only_volatile_field(self):
        (line,) = _run_and_log(_specs(1)).lines(wall_clock=lambda: 123.0)
        record = json.loads(line)
        assert record["wall"] == 123.0
        assert record["event"] == "trial"
        assert set(record) == {
            "event", "seq", "spec", "country", "protocol", "seed",
            "outcome", "succeeded", "censored", "cached", "run", "wall",
        }

    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "runlog.jsonl"
        log = _run_and_log(_specs())
        count = log.write(path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == 4
        assert all(json.loads(line)["run"] == log.run_id for line in lines)


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        ring = FlightRecorder(size=3)
        for i in range(10):
            ring.push({"t": i})
        assert len(ring) == 3
        assert [e["t"] for e in ring.dump()] == [7, 8, 9]

    def test_trace_tail_summarizes_events(self):
        result = TrialSpec.build("china", "http", seed=1).run(keep_trace=True)
        tail = trace_tail(result.trace)
        assert 0 < len(tail) <= FLIGHT_RING_SIZE
        assert all({"t", "kind", "at"} <= set(e) for e in tail)
        # Summaries are JSON-able (they go straight into the log).
        json.dumps(tail)

    def test_dump_on_trial_exception(self, monkeypatch):
        """A censor blowing up mid-trial flight-dumps the trace tail."""
        from repro.censors.gfw.box import ProtocolBox

        def explode(self, *args):
            raise RuntimeError("censor crashed")

        # The GFW runs each box's client-SYN step on the trial's first packet.
        monkeypatch.setattr(ProtocolBox, "open_flow", explode)
        log = RunLog()
        spec = TrialSpec.build("china", "http", seed=1)
        with activate(log):
            with pytest.raises(RuntimeError, match="censor crashed"):
                spec.run()
        assert log.anomalies == 1
        (record,) = [json.loads(l) for l in log.lines(wall_clock=lambda: 0.0)]
        assert record["event"] == "flight_dump"
        assert record["reason"] == "trial raised"
        assert record["spec"] == spec.spec_hash()
        assert "RuntimeError" in record["error"]
        assert record["events"]  # the trace tail made it into the dump

    def test_no_dump_without_active_runlog(self, monkeypatch):
        from repro.censors.gfw.box import ProtocolBox

        def explode(self, *args):
            raise RuntimeError("censor crashed")

        monkeypatch.setattr(ProtocolBox, "open_flow", explode)
        assert active_runlog() is None
        with pytest.raises(RuntimeError):
            TrialSpec.build("china", "http", seed=1).run()


class TestGoldenCheck:
    def test_agreement_returns_true_and_logs_nothing(self):
        spec = TrialSpec.build("china", "http", seed=1)
        result = spec.run()
        log = RunLog()
        assert log.check_golden(spec, result, expected_censored=result.censored)
        assert log.anomalies == 0
        assert list(log.lines()) == []

    def test_disagreement_flight_dumps(self):
        spec = TrialSpec.build("china", "http", seed=1)
        result = spec.run(keep_trace=True)
        log = RunLog()
        ok = log.check_golden(
            spec, result, expected_censored=not result.censored, trace=result.trace
        )
        assert not ok
        assert log.anomalies == 1
        (record,) = [json.loads(l) for l in log.lines(wall_clock=lambda: 0.0)]
        assert record["event"] == "flight_dump"
        assert record["expected_censored"] == (not result.censored)
        assert record["observed_censored"] == result.censored
        assert record["events"]
