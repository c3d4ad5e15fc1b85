"""Each workload at a tiny size: its passes repeat, traced or not, and pass
their output checks; a seed change changes the generated inputs only; a
missing tmpfs stops the run before it measures anything."""

import pytest

from perfbench import layers, run, workloads
from perfbench.layers import PROBES, install, layer_metrics, metric_names
from perfbench.tracing import Tracer


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "PAPER_TRIALS", 2)
    monkeypatch.setattr(workloads, "FLEET_CLIENTS", 40)
    monkeypatch.setattr(workloads, "FLEET_SAMPLE", 4)
    monkeypatch.setattr(workloads, "GA_POPULATION", 8)
    monkeypatch.setattr(workloads, "GA_GENERATIONS", 2)
    monkeypatch.setattr(workloads, "GA_TRIALS", 2)
    monkeypatch.setattr(workloads, "GA_SEARCHES", 2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tiny, tmp_path):
    workload = workloads.WORKLOADS[name](3, tmp_path)
    workload.prepare()
    workload.setup()
    passes, tracer, stats, counters, missing = run.run_passes(workload, 0.0, trace=True)
    checks, failed = run.check_outputs(workload, passes, committed={})
    assert missing == []
    assert [record["traced"] for record, _ in passes] == [False, True]
    assert all(check.ok for check in checks), checks
    assert failed == 0
    # tracing may not change an output: both passes digest alike
    assert passes[0][1].digest == passes[1][1].digest
    untraced, traced = passes[0][0], passes[1][0]
    values, _ = layer_metrics(
        tracer, traced["ops"], [traced["wall"]], [untraced["wall"]], stats, counters
    )
    assert set(values) | {n for n in metric_names() if n.endswith(".import_ms")} == set(metric_names())
    assert 0.0 < values["obs.trace_coverage"] <= 1.0 + 1e-9


def test_failed_check_counts_failed_ops(tiny, tmp_path):
    workload = workloads.WORKLOADS["fleet_mix"](3, tmp_path)
    workload.setup()
    passes, *_ = run.run_passes(workload, 0.0, trace=False)
    committed = {"fleet_mix": {"3": "0" * 64}}
    checks, failed = run.check_outputs(workload, passes, committed)
    assert not next(c for c in checks if c.name == "committed_digest").ok
    assert failed == passes[0][0]["ops"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_inputs_and_nothing_else(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    one, two = cls(1, tmp_path).inputs(), cls(2, tmp_path).inputs()
    assert one.keys() == two.keys()
    changed = {key for key in one if one[key] != two[key]}
    assert changed == {"search_seeds" if name == "evolve_rerun" else "seed"}


def test_seed_changes_generated_fleet_and_search_inputs(tmp_path):
    from repro.core.evolution import GAConfig, GeneticAlgorithm

    plans = [workloads.FleetMix(seed, tmp_path).spec().flow_plans() for seed in (1, 2)]
    assert [p.arrival for p in plans[0]] == [p.arrival for p in plans[1]]
    assert [(p.seed, p.country) for p in plans[0]] != [(p.seed, p.country) for p in plans[1]]

    def population(seed):
        config = GAConfig(population_size=workloads.GA_POPULATION, seed=seed)
        return [str(s) for s in GeneticAlgorithm(lambda s: 0.0, config=config).initial_population()]

    assert population(1) != population(2)
    assert len(population(1)) == len(population(2))


def test_missing_probe_fails_the_traced_run(tiny, tmp_path, monkeypatch):
    gone = "repro.fleet.world:FleetWorld.gone"
    monkeypatch.setattr(layers, "PROBES", layers.PROBES + (("fleet.gone", gone, "span", {}),))
    workload = workloads.WORKLOADS["fleet_mix"](3, tmp_path)
    workload.setup()
    passes, _, _, _, missing = run.run_passes(workload, 0.0, trace=True)
    checks, failed = run.check_outputs(workload, passes, committed={}, missing=missing)
    assert missing == [gone]
    check = next(c for c in checks if c.name == "probes_resolved")
    assert not check.ok and gone in check.detail


def test_every_probe_resolves():
    tracer = Tracer()
    try:
        assert install(tracer) == []
    finally:
        tracer.restore()
    layers = {name.rsplit(".", 1)[0] for name, *_ in PROBES}
    assert {name.split(".")[0] for name in metric_names()} - {"obs"} <= {
        layer.split(".")[0] for layer in layers
    }


def test_missing_tmpfs_fails_loudly(tmp_path, monkeypatch, capsys):
    with pytest.raises(RuntimeError, match="missing"):
        run.make_cache_root(tmp_path / "no-shm")
    monkeypatch.setattr(run, "SHM", tmp_path / "no-shm")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    code = run.main(["--workload", "fleet_mix", "--seed", "1", "--seconds", "0"])
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
    assert "no-shm is missing" in captured.err


def test_wilson_tolerance_check():
    # 32/32 successes cannot be a 50% cell; 16/32 is consistent with it.
    assert not workloads.rate_within(1.0, 32, 0.5, 0.15)
    assert workloads.rate_within(0.5, 32, 0.5, 0.15)
    # two trials cannot resolve a 15-point tolerance: never a failure
    assert workloads.rate_within(0.0, 2, 0.54, 0.15)
