"""Run the benchmark over several seeds and report each metric's spread.

For every workload, runs ``run.py`` once per seed, one run at a time, for
``run_seconds`` from ``BENCHMARK.json``, and reports each end-to-end
metric's median and the distance between its first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median: the
spread a bound in ``BENCHMARK.json`` must cover. The raw figures the
gated ones are made from -- ``ops / CPU s`` and ``ops / wall s`` of the
timed passes, and the set-up probes' CPU seconds -- are reported beside
them.

``--hogs N`` measures what co-scheduled load does. Every seed then runs
twice, back to back: once alone and once beside N CPU-bound processes,
the order alternating from seed to seed. Each metric's change under load
is taken within these same-seed pairs, so a drift in the host's own speed
between sets cannot pass for an effect of the load::

    python3 perfbench/spread.py --seeds 1-10 --out .perfbench/spread.json
    python3 perfbench/spread.py --seeds 1-5 --hogs 2 --out .perfbench/contention.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import ALL, OUT  # noqa: E402  (after the path is set)

#: A busy loop for ``--hogs``.
HOG = "while True: pass"
#: The metrics summarized per workload.
METRICS = (
    "ops_per_yardstick", "ops_per_cpu_s", "ops_per_wall_s", "setup_s", "setup_cpu_s", "peak_rss_mb",
)


def seed_list(text: str):
    """Parse ``1-10,20261017`` into a list of seeds, in order."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    """(median, interquartile distance / median) of a list of numbers."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def run_once(name: str, seed: int, seconds: float, hogs: int) -> dict:
    """One run of one workload, beside ``hogs`` busy loops; its summary."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    loops = [subprocess.Popen([sys.executable, "-c", HOG]) for _ in range(hogs)]
    try:
        completed = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True)
    finally:
        for loop in loops:
            loop.kill()
        for loop in loops:
            loop.wait()
    if completed.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} failed:\n{completed.stdout}\n{completed.stderr}")
    result = json.loads(completed.stdout.splitlines()[-1])
    record = json.loads((OUT / f"record-{name}-seed{seed}-trace0.json").read_text())
    totals = record["totals"]
    disturbance = record["disturbance"]
    summary = {metric: entry["value"] for metric, entry in result["metrics"].items()}
    summary.update(
        seed=seed,
        ops_per_cpu_s=totals["ops"] / totals["cpu_s"],
        ops_per_wall_s=totals["ops"] / totals["wall_s"],
        setup_cpu_s=statistics.median(sample["cpu_s"] for sample in record["setup_samples"]),
        nivcsw=totals["nivcsw"],
        steal_s=disturbance["steal_s_after"] - disturbance["steal_s_before"],
        load_before=disturbance["loadavg_before"][0],
        failed=result["failed"],
    )
    return summary


def summarize(runs):
    """Per workload and metric: median and quartile spread."""
    return {
        name: {
            metric: dict(zip(("median", "iqr_share"), spread([s[metric] for s in summaries])))
            for metric in METRICS
        }
        for name, summaries in runs.items()
    }


def paired_changes(unloaded, loaded):
    """Per workload and metric: loaded / unloaded - 1 for each same-seed
    pair, and their median."""
    table = {}
    for name in unloaded:
        table[name] = {}
        for metric in METRICS:
            changes = [
                pair[1][metric] / pair[0][metric] - 1 for pair in zip(unloaded[name], loaded[name])
            ]
            table[name][metric] = {"median": statistics.median(changes), "changes": changes}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--hogs", type=int, default=0)
    parser.add_argument("--out", required=True, help="JSON file for the runs and their spreads")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    conditions = ("unloaded", "loaded") if args.hogs else ("unloaded",)

    started = time.time()
    runs = {condition: {name: [] for name in ALL} for condition in conditions}
    for name in ALL:
        for position, seed in enumerate(seed_list(args.seeds)):
            for condition in conditions if position % 2 == 0 else conditions[::-1]:
                summary = run_once(name, seed, seconds, args.hogs if condition == "loaded" else 0)
                runs[condition][name].append(summary)
                print(
                    f"{name} seed={seed} {condition} "
                    + " ".join(f"{k}={v:.6g}" for k, v in summary.items() if isinstance(v, float)),
                    flush=True,
                )
    result = {
        "hogs": args.hogs,
        "seconds": seconds,
        "started": started,
        "runs": runs,
        "summary": {condition: summarize(runs[condition]) for condition in conditions},
    }
    for condition, table in result["summary"].items():
        for name, metrics in table.items():
            for metric, entry in metrics.items():
                print(f"{condition} {name} {metric}: median={entry['median']:.6g} "
                      f"iqr/median={entry['iqr_share']:.4f}")
    if args.hogs:
        result["paired"] = paired_changes(runs["unloaded"], runs["loaded"])
        for name, metrics in result["paired"].items():
            for metric, entry in metrics.items():
                print(f"loaded vs unloaded {name} {metric}: median change {entry['median']:+.4f}")
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
