"""BENCHMARK.json, the metrics companion file and the code agree."""

import json
import re
from pathlib import Path

from perfbench import run
from perfbench.layers import metric_names
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMPANION = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in SPEC["end_to_end"])}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.ALL)
    assert set(COMPANION["workloads"]) == set(WORKLOADS)


def test_metrics_match_what_the_run_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert set(COMPANION["end_to_end"]) == set(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metric_names()


def test_every_per_layer_metric_is_mapped_once():
    mapped = [name for layer in COMPANION["layers"].values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(metric_names())
    for layer in COMPANION["layers"].values():
        assert layer["should_move"]
        assert set(layer["on"]) <= set(WORKLOADS)


def test_second_seed_has_committed_digests():
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    seed = str(COMPANION["second_seed"])
    assert all(seed in digests[name] for name in WORKLOADS)
