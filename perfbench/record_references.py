"""Record the reference outcome of every workload command.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record_references.py

It runs one pass of each workload for each seed in ``SEEDS`` with one
thread, and writes each command's exit code and output-file digests to
``perfbench/references.json``. Seed 0 is the default seed; ``HELD_OUT`` is
kept for re-checking a claim on a seed not used while making it.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

os.environ.update(workloads.THREAD_ENV)  # before numpy is imported

import run  # noqa: E402
import worker  # noqa: E402

HELD_OUT = 1000
SEEDS = list(range(10)) + [HELD_OUT]


def main() -> int:
    cli = worker.import_package()
    refs = {}
    for name in workloads.WORKLOADS:
        refs[name] = {}
        for seed in SEEDS:
            work = workloads.Workload(name, seed, run.OUT / "references" / name, {})
            refs[name][str(seed)] = work.outcomes(cli)
            verdicts = [o["exit"] for o in refs[name][str(seed)].values()]
            print(f"{name} seed {seed}: exit codes {verdicts}", flush=True)
    refs["held_out_seed"] = HELD_OUT
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
