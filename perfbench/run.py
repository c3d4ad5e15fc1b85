"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced passes over the same inputs
and reports the per-layer metrics. The last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``);
the lines before it are the human-readable report. The run record
(machine facts, per-pass times, disturbance readings, digests, checks)
and, for traced runs, every span are written under ``.perfbench/``. The
exit code is non-zero when an output check fails or the program cannot
be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Bytecode is written only into the private prefix the set-up probes are
# given (PYTHONPYCACHEPREFIX), never beside the sources or the standard
# library.
if not sys.pycache_prefix:
    sys.dont_write_bytecode = True
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: Where runs keep their records, spans and set-up bytecode.
OUT = ROOT / ".perfbench"
#: The tmpfs that holds every result cache of a run.
SHM = Path("/dev/shm")
#: Fresh processes set up per run; ``setup_s`` is their median.
SETUP_PROBES = 9
#: After each pass the yardstick runs for about this share of the pass's
#: CPU time: the host's speed changes within a tenth of a second, so the
#: yardstick needs seconds per run to average them as the passes do.
YARDSTICK_SHARE = 0.2
#: Workloads ``--workload all`` runs, in order.
ALL = ("paper_grid", "fleet_mix", "evolve_rerun")
#: The end-to-end metrics every workload reports, in the order printed.
E2E_UNITS = {"ops_per_yardstick": "ops/yardstick", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set the workload up in DIR, print "ready <cpu seconds>"
    # and exit (one setup_s sample).
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Machine facts and disturbance readings


def loadavg():
    try:
        return list(os.getloadavg())
    except OSError:  # pragma: no cover - no load average here
        return None


def steal_seconds():
    """Seconds of CPU the hypervisor gave to others, over all CPUs so far."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def source_digest() -> str:
    """SHA-256 over every file of ``src/``: identifies the measured code."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def make_cache_root(shm: Path) -> Path:
    """Create the run's private directory for result caches on ``shm``.

    Every result cache of the run lives on tmpfs: a store on this
    machine's virtual disk cost from about 100 to 520 us of CPU within a
    quarter of an hour, against 50 to 70 us on tmpfs, and would make the
    cache, not the simulator, set the pace. Raises ``RuntimeError`` when
    ``shm`` is missing or not writable, so the run stops before
    measuring anything.
    """
    if not shm.is_dir():
        raise RuntimeError(f"{shm} is missing; the benchmark keeps its result caches on tmpfs there")
    path = shm / f"perfbench-{os.getpid()}"
    try:
        path.mkdir()
    except OSError as exc:
        raise RuntimeError(f"cannot create {path} for the run's result caches: {exc}") from exc
    return path


# ----------------------------------------------------------------------
# Set-up probes


def _probe_env(prefix: Path, compile_: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPYCACHEPREFIX"] = str(prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not compile_:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_probe(args, workdir: Path, pycache: Path, index, compile_: bool = False,
              importtime: bool = False):
    """Set the workload up in a fresh process.

    Returns (CPU seconds the process spent until ready, wall seconds
    seen from here, stderr). Bytecode comes from the run's private
    prefix, which the untimed ``compile_`` probe fills from this
    checkout, so whether the checkout holds bytecode cannot move the
    figure.
    """
    command = [sys.executable]
    if importtime:
        command += ["-X", "importtime"]
    probe_dir = workdir / f"probe-{index}"
    command += [
        str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--setup-probe", str(probe_dir),
    ]
    start = time.perf_counter()
    completed = subprocess.run(
        command, cwd=str(ROOT), env=_probe_env(pycache, compile_),
        capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - start
    shutil.rmtree(probe_dir, ignore_errors=True)
    lines = completed.stdout.split()
    if completed.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
        raise RuntimeError(
            f"setup probe failed (exit {completed.returncode}): {completed.stderr.strip()[-2000:]}"
        )
    return float(lines[1]), wall, completed.stderr


def probe_main(workload) -> int:
    workload.workdir.mkdir(parents=True)
    workload.setup()
    print(f"ready {time.process_time()!r}", flush=True)
    return 0


# ----------------------------------------------------------------------
# Timed passes


def run_passes(workload, seconds: float, trace: bool, between=None):
    """Time passes until they have taken ``seconds`` of wall time.

    In trace mode untraced and traced passes alternate (at least one of
    each). Every pass is timed in CPU seconds of this process and in wall
    seconds, with the involuntary context switches it suffered. After
    each pass, ``between`` (if given) is called, untimed, with the pass
    wall seconds so far and the pass's CPU seconds.
    """
    from perfbench.layers import install
    from perfbench.tracing import Tracer
    from repro.obs.metrics import collecting
    from perfbench.workloads import fold

    passes = []
    tracer = Tracer() if trace else None
    traced_stats: dict = {}
    counters: dict = {}
    missing: list = []
    elapsed = 0.0
    index = 0
    while True:
        traced = trace and index % 2 == 1
        record = {"traced": traced}
        gc.collect()
        if traced:
            missing = install(tracer)
            tracer.op_fn = None
        usage = resource.getrusage(resource.RUSAGE_SELF)
        try:
            if traced:
                with collecting() as registry:
                    tracer.on = True
                    wall, cpu = time.perf_counter(), time.process_time()
                    result = workload.run_pass(index, traced=True)
                    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
                    tracer.on = False
            else:
                wall, cpu = time.perf_counter(), time.process_time()
                result = workload.run_pass(index)
                cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        except Exception:
            record["error"] = traceback.format_exc()
            passes.append((record, None))
            break
        finally:
            if traced:
                tracer.on = False
                tracer.restore()
        after = resource.getrusage(resource.RUSAGE_SELF)
        record.update(
            wall=wall, cpu=cpu,
            nivcsw=after.ru_nivcsw - usage.ru_nivcsw,
            ops=result.ops, digest=result.digest, problems=result.problems,
        )
        facts = workload.after_pass(index)
        if traced:
            fold(traced_stats, result.stats)
            fold(traced_stats, facts)
            for name, entry in registry.snapshot().items():
                if entry.get("kind") == "counter":
                    counters[name] = counters.get(name, 0) + sum(entry["samples"].values())
        if passes:
            result.output = None  # only the first pass's output is checked
        passes.append((record, result))
        index += 1
        elapsed += wall
        if between is not None:
            between(elapsed, cpu)
        if elapsed >= seconds and (not trace or index >= 2):
            break
    return passes, tracer, traced_stats, counters, missing


def check_outputs(workload, passes, committed, missing=()):
    """Check every pass's output; marks each pass record ``failed``.

    A pass fails when it raised, when its digest differs from the first
    pass's (same inputs, so the output must repeat) or from the committed
    digest for this seed, or when the workload flagged a problem in it.
    ``missing`` lists the probes a traced run could not install: their
    layers' metrics would be wrong, so the run is not correct. Returns
    the checks and the number of operations that failed.
    """
    from perfbench.workloads import Check

    good = [(record, result) for record, result in passes if result is not None]
    nominal = good[0][1].ops if good else 1
    checks = []
    if missing:
        checks.append(Check("probes_resolved", False, 0, "not found: " + ", ".join(missing)))
    for record, result in passes:
        if result is None:
            record.update(ops=nominal, failed=True)
            checks.append(Check("pass_raised", False, nominal, record["error"].strip().splitlines()[-1]))
    if not good:
        return checks, nominal
    first = good[0][1]
    expected = committed.get(workload.name, {}).get(str(workload.seed))
    for record, result in good:
        record["failed"] = bool(
            result.digest != first.digest
            or result.problems
            or (expected is not None and result.digest != expected)
        )
    differing = [record for record, result in good if result.digest != first.digest]
    traced = sum(1 for record, _ in good if record["traced"])
    checks.append(Check(
        "pass_determinism", not differing, sum(r["ops"] for r in differing),
        f"{len(good)} passes ({traced} traced), {len(differing)} differ from the first",
    ))
    flagged = [record for record, result in good if result.problems]
    problems = sorted({p for _, result in good for p in result.problems})
    checks.append(Check(
        "pass_checks", not problems, sum(r["ops"] for r in flagged), "; ".join(problems) or "ok",
    ))
    if expected is None:
        checks.append(Check("committed_digest", True, 0, f"no committed digest for seed {workload.seed}"))
    else:
        same = expected == first.digest
        checks.append(Check(
            "committed_digest", same, 0 if same else sum(r["ops"] for r, _ in good),
            f"{'matches' if same else 'differs from'} the committed digest for seed {workload.seed}",
        ))
    failed_ops = sum(record["ops"] for record, _ in passes if record["failed"])
    for check in workload.checks(first):
        failed_ops += check.failed_ops
        checks.append(check)
    return checks, min(failed_ops, sum(record["ops"] for record, _ in passes))


# ----------------------------------------------------------------------
# Entry points


def run_one(args) -> int:
    # The program is built from this checkout's sources, never from a copy
    # installed elsewhere.
    source = ROOT / "src" / "repro"
    try:
        import repro

        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the program from {source}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent != source.resolve():
        print(f"error: the program is not in {source}", file=sys.stderr)
        return 2
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe_main(cls(args.seed, Path(args.setup_probe)))

    try:
        workdir = make_cache_root(SHM)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pycache = OUT / f"pycache-{os.getpid()}"
    try:
        return measure(args, cls(args.seed, workdir), workdir, pycache)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(pycache, ignore_errors=True)


def measure(args, workload, workdir: Path, pycache: Path) -> int:
    from perfbench.yardstick import NOMINAL_S, Yardstick

    committed = json.loads((HERE / "digests.json").read_text())
    disturbance = {"loadavg_before": loadavg(), "steal_s_before": steal_seconds()}
    start = time.perf_counter()
    prepared = workload.prepare()
    prepared["prepare_wall_s"] = time.perf_counter() - start
    workload.setup()
    run_probe(args, workdir, pycache, "compile", compile_=True)
    setup_samples = []
    yardsticks = []  # (count, CPU seconds) after each pass
    with Yardstick() as stick:

        def probe(elapsed: float) -> None:
            # The set-up probes are spread over the run, between passes, so
            # they sample the host's speed as the passes do: its swings last
            # from seconds to minutes, and probes run back to back share one.
            while len(setup_samples) < SETUP_PROBES and (
                elapsed >= len(setup_samples) * args.seconds / SETUP_PROBES
            ):
                setup_samples.append(run_probe(args, workdir, pycache, len(setup_samples))[:2])

        def between(elapsed: float, cpu: float) -> None:
            count = max(1, round(cpu * YARDSTICK_SHARE / NOMINAL_S))
            yardsticks.append((count, stick.sample(count)))
            probe(elapsed)

        passes, tracer, traced_stats, counters, missing = run_passes(
            workload, args.seconds, bool(args.trace), between=None if args.trace else between
        )
        if not args.trace:
            probe(float("inf"))
    checks, failed = check_outputs(workload, passes, committed, missing)
    if args.trace:
        _, _, log = run_probe(args, workdir, pycache, "importtime", importtime=True)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    disturbance.update(loadavg_after=loadavg(), steal_s_after=steal_seconds())

    records = [record for record, _ in passes]
    attempted = sum(record["ops"] for record in records)
    correct = all(check.ok for check in checks) and failed == 0
    untraced = [r for r in records if not r["traced"] and "cpu" in r]
    traced = [r for r in records if r["traced"] and "cpu" in r]
    totals = {
        "ops": sum(r["ops"] for r in untraced),
        "cpu_s": sum(r["cpu"] for r in untraced),
        "wall_s": sum(r["wall"] for r in untraced),
        "nivcsw": sum(r["nivcsw"] for r in untraced),
    }
    tails = {}
    if args.trace:
        from perfbench.layers import import_metrics, layer_metrics, metric_names

        values, tails = layer_metrics(
            tracer, sum(r["ops"] for r in traced), [r["wall"] for r in traced],
            [r["wall"] for r in untraced], traced_stats, counters,
        )
        values.update(import_metrics(log))
        units = metric_names()
    else:
        # Throughput over the whole run, never a median of pass rates: the
        # host's speed swings from second to second, and a run's total
        # averages over the swings. The yardstick's mean over the run
        # cancels the swings that outlast a run.
        yardstick = sum(cpu for _, cpu in yardsticks) / sum(count for count, _ in yardsticks)
        values = {
            "ops_per_yardstick": totals["ops"] / totals["cpu_s"] * yardstick,
            "setup_s": statistics.median(cpu for cpu, _ in setup_samples) * NOMINAL_S / yardstick,
            "peak_rss_mb": rss,
        }
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": workload.name,
        "op": workload.op,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "src_sha256": source_digest(),
        },
        "disturbance": disturbance,
        "inputs": workload.inputs(),
        "prepared": prepared,
        "totals": totals,
        "passes": records,
        "setup_samples": [{"cpu_s": cpu, "wall_s": wall} for cpu, wall in setup_samples],
        "yardsticks": [{"count": count, "cpu_s": cpu} for count, cpu in yardsticks],
        "checks": [check.__dict__ for check in checks],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "tail_quantiles": tails,
    }
    if args.trace:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        tracer.write(str(spans_path))
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["span_count"] = len(tracer)
    record_path = OUT / f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    report(record, checks)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def report(record, checks) -> None:
    """Human-readable lines before the final JSON line."""
    disturbance = record["disturbance"]
    load = [disturbance["loadavg_before"], disturbance["loadavg_after"]]
    steal = [disturbance["steal_s_before"], disturbance["steal_s_after"]]
    totals = record["totals"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"python={record['machine']['python']} src={record['machine']['src_sha256'][:12]}"
    )
    print(
        f"  passes={len(record['passes'])} ops={record['attempted']} (one op = one {record['op']}) "
        f"cpu_s={totals['cpu_s']:.3f} wall_s={totals['wall_s']:.3f} nivcsw={totals['nivcsw']} "
        + (f"load={load[0][0]:.2f}->{load[1][0]:.2f} " if None not in load else "")
        + (f"steal_s={steal[1] - steal[0]:.2f}" if None not in steal else "")
    )
    if record["prepared"]:
        print("  prepared (untimed): " + " ".join(f"{k}={v:.6g}" for k, v in record["prepared"].items()))
    for check in checks:
        print(f"  check {check.name}: {'ok' if check.ok else 'FAILED'} ({check.detail})")
    if not record["trace"]:
        print(f"  ops_per_wall_s = {totals['ops'] / totals['wall_s']:.6g} ops/s (not gated)")
        print(f"  ops_per_cpu_s = {totals['ops'] / totals['cpu_s']:.6g} ops/cpu-s (not gated)")
        count = sum(chunk["count"] for chunk in record["yardsticks"])
        yardstick = sum(chunk["cpu_s"] for chunk in record["yardsticks"]) / count
        print(f"  yardstick = {yardstick * 1000:.6g} ms of CPU, mean of {count}")
        setup = statistics.median(sample["cpu_s"] for sample in record["setup_samples"])
        print(f"  setup_cpu_s = {setup:.6g} s (not gated)")
    for name, entry in record["metrics"].items():
        suffix = ""
        if name.endswith(".tail"):
            suffix = f"  (p{record['tail_quantiles'][name[:-5]] * 100:g})"
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}{suffix}")
    print(f"  failed = {record['failed']} of {record['attempted']} ops")


def run_all(args) -> int:
    """Run every workload, each in its own process; summarize."""
    summary = {}
    worst = 0
    for name in ALL:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        worst = max(worst, completed.returncode)
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary[name] = None
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its caches and stops its probes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
