"""The measuring process of one benchmark run.

``run.py`` starts this script in a fresh interpreter with every thread pool
pinned to one thread. It imports ``oscillab`` from the checkout's ``src``
tree, warms up on the workload's probe commands, then issues passes of the
workload until the measuring window is used up, and prints one JSON line.

With ``--setup`` it only imports the package and runs the probe commands:
``run.py`` times that whole process as the set-up time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import spans  # noqa: E402  (this directory is first on sys.path)
import workloads  # noqa: E402


def import_package():
    """Import ``oscillab.cli`` from this checkout, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("oscillab.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"oscillab imported from {cli.__file__}, not from {SRC}")
    return cli


def measure(cli, args) -> dict:
    references = workloads.load_references()
    work = workloads.Workload(args.workload, args.seed, args.out / "passes", references)
    workloads.run_probes(cli, args.workload, args.out / "probes")

    passes = []
    problems: list[str] = []
    counts_ref = None
    start = time.perf_counter()
    spans_path = args.out / "spans.csv"
    with open(spans_path, "w") as spans_file:
        spans_file.write("pass,span,parent,name,start_ns,end_ns\n")
        while True:
            # with --trace 1, passes alternate traced and untraced
            tracing = args.trace and len(passes) % 2 == 0
            tracer = spans.Tracer() if tracing else None
            restore = spans.install(tracer) if tracing else []
            try:
                if tracing:
                    problems += [f"missed binding: {s}" for s in spans.stale_references(restore)]
                result = work.run_pass(cli)
            finally:
                spans.uninstall(restore)
            problems += result.problems
            record = {"wall_s": result.wall_s, "cpu_s": result.cpu_s,
                      "attempted": result.attempted, "failed": len(result.problems),
                      "traced": bool(tracing)}
            if tracing:
                record["layers"] = tracer.metrics(result.wall_s)
                counts = {k: v for k, v in record["layers"].items()
                          if k.rsplit(".", 1)[1] in spans.COUNT_STATS}
                if counts_ref is None:
                    counts_ref = counts
                elif counts != counts_ref:
                    problems.append("count metrics differ between traced passes")
                tracer.write_spans(spans_file, len(passes))
            passes.append(record)
            elapsed = time.perf_counter() - start
            enough = len(passes) >= args.min_passes
            if enough and elapsed + statistics.median(p["wall_s"] for p in passes) > args.seconds:
                break
    return {"passes": passes, "problems": problems,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--min-passes", type=int, default=3)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args(argv)

    cli = import_package()
    if args.setup:
        workloads.run_probes(cli, args.workload, args.out)
        return 0
    print(json.dumps(measure(cli, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
