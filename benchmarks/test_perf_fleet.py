"""Performance benchmark for fleet-mode serving.

The headline number: flows/sec for a 1000-client mixed-country fleet in
one shared world, recorded to ``benchmarks/results/local/fleet_throughput.txt``
(git-ignored: the figures are machine-dependent).

The *gated* quantity follows the cold-path precedent: absolute flows/sec
varies wildly across machines, so the regression gate compares the
**overhead ratio** — fleet ms/flow divided by dedicated-trial ms/trial
for the same flow plans, measured back-to-back in the same process —
against the committed baseline in ``benchmarks/fleet_baseline.json``. A
ratio blow-up means the shared-world machinery (flow-tagged scheduler,
router, recycling) itself regressed, not the hardware.
"""

import json
import os
import pathlib
import time

from repro.deploy import install_per_client
from repro.eval.runner import Trial, trial_rngs
from repro.fleet import FleetSpec, FleetWorld, fleet_selector

CLIENTS = 1000

#: Dedicated-trial sample size for the ratio denominator (the per-trial
#: cost is flat, so a sample is representative at a fraction of the time).
TRIAL_SAMPLE = 200

#: Committed baseline (outside ``results/`` so regenerating artifacts
#: cannot silently move the regression bar).
FLEET_BASELINE = pathlib.Path(__file__).parent / "fleet_baseline.json"


def fleet_spec():
    return FleetSpec(clients=CLIENTS, seed=7, spacing=0.05)


def run_fleet_world(spec):
    world = FleetWorld(spec)
    records = world.run()
    assert len(records) == spec.clients
    assert world.recycled == spec.clients
    return records


def test_perf_fleet_1k_flows(benchmark):
    """pytest-benchmark view of the 1000-client fleet world."""
    spec = fleet_spec()
    records = benchmark(run_fleet_world, spec)
    assert len(records) == CLIENTS


def test_fleet_throughput_artifact(save_timing):
    """Record flows/sec and gate the fleet-vs-trial overhead ratio."""
    spec = fleet_spec()
    run_fleet_world(spec)  # warm imports and memo caches

    start = time.perf_counter()
    records = run_fleet_world(spec)
    fleet_seconds = time.perf_counter() - start
    ms_per_flow = fleet_seconds * 1000.0 / CLIENTS
    flows_per_sec = CLIENTS / fleet_seconds

    # Dedicated-trial cost for the same flow plans (the classic
    # one-world-per-connection path with the same per-client engine).
    # Built trace-free, so each trial pools its packets and records
    # nothing, as fleet flows do in trace mode "none".
    plans = spec.flow_plans()[:TRIAL_SAMPLE]

    def run_dedicated():
        for plan in plans:
            trial = Trial(
                plan.country,
                plan.protocol,
                None,
                seed=plan.seed,
                client_ip=plan.client_ip,
                client_os=plan.client_os,
                capture_trace=False,
            )
            install_per_client(
                trial.server_host,
                fleet_selector(),
                plan.protocol,
                trial_rngs(plan.seed).strategy,
            )
            trial.run()

    run_dedicated()  # warm
    start = time.perf_counter()
    run_dedicated()
    ms_per_trial = (time.perf_counter() - start) * 1000.0 / TRIAL_SAMPLE

    overhead_ratio = ms_per_flow / ms_per_trial
    baseline = json.loads(FLEET_BASELINE.read_text())

    evaded = sum(1 for r in records if r["succeeded"])
    save_timing(
        "fleet_throughput.txt",
        "\n".join(
            [
                f"fleet: {CLIENTS} concurrent client flows, default "
                "mixed-country cohort, one deployed server",
                f"machine: {os.cpu_count() or 1} core(s)",
                "",
                f"fleet world:      {ms_per_flow:6.3f} ms/flow "
                f"({flows_per_sec:7.0f} flows/sec)",
                f"dedicated trials: {ms_per_trial:6.3f} ms/trial "
                f"(sample of {TRIAL_SAMPLE} plans, classic path)",
                "",
                f"overhead ratio:   {overhead_ratio:.2f}x "
                f"(committed baseline {baseline['overhead_ratio']:.2f}x, "
                "gate: <= 1.25x of baseline)",
                f"evaded: {evaded}/{CLIENTS} flows",
                "",
                "The overhead ratio is the gated quantity: it compares "
                "the same flows on the same machine, so a CI failure "
                "means the shared-world machinery regressed, not the "
                "hardware.",
            ]
        ),
    )

    # Regression gate: the shared world may not get >25% more expensive
    # per flow, relative to the dedicated-trial path, than the committed
    # baseline ratio.
    assert overhead_ratio <= 1.25 * baseline["overhead_ratio"], (
        f"fleet overhead regressed: measured {overhead_ratio:.2f}x the "
        f"dedicated-trial cost, committed baseline "
        f"{baseline['overhead_ratio']:.2f}x"
    )
    # Sanity floor on any machine: the fleet world must actually sustain
    # a serving-scale stream (hundreds of flows/sec even on slow CI).
    assert flows_per_sec >= 50
