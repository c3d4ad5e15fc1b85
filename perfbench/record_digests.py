"""Record the committed output digests the benchmark checks against.

For seeds 0-99 and the second seed named in ``metrics.json``, runs one
pass of each workload, with the workload's own checks, and writes
``perfbench/digests.json`` (workload -> seed -> SHA-256). If a seed's
pass fails a check, nothing is written and the script exits non-zero.
Run from the root of a checkout after a change that is meant to alter
the program's outputs, and review the diff::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: Seeds whose digests are committed, besides the second seed.
SEEDS = range(100)


def main() -> int:
    from perfbench.run import SHM, make_cache_root
    from perfbench.workloads import WORKLOADS

    companion = json.loads((HERE / "metrics.json").read_text())
    seeds = [*SEEDS, companion["second_seed"]]

    recorded = {}
    workdir = make_cache_root(SHM)
    try:
        for name, cls in sorted(WORKLOADS.items()):
            table = recorded.setdefault(name, {})
            for seed in seeds:
                directory = workdir / f"{name}-{seed}"
                workload = cls(seed, directory)
                workload.prepare()
                result = workload.run_pass(0)
                workload.after_pass(0)
                problems = list(result.problems)
                problems += [c.detail for c in workload.checks(result) if not c.ok]
                shutil.rmtree(directory, ignore_errors=True)
                if problems:
                    print(f"{name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                table[str(seed)] = result.digest
                print(f"{name} seed {seed}: {result.digest}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (HERE / "digests.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
