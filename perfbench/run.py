"""oscillab benchmark: one checked workload run, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload two-weight --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (wall_s, cpu_s,
peak_rss_mb, setup_s); with ``--trace 1`` the per-layer metrics of a traced
run. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every command's outcome was correct, 1 when one was not, and 2 when
the benchmark could not run (no ``src/oscillab`` here, a crash or a
timeout); in that case no result line is printed.

Every measurement runs in a fresh single-threaded interpreter, see
``worker.py``; ``WORKLOADS.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "oscillab"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(workloads.THREAD_ENV)
    return env


def worker_argv(args, out: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out", str(out), *extra]


def run_child(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run a child to completion; return its wall time and standard output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(argv[1:4])}... exceeded the time limit")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:4])}... exited with {proc.returncode}")
    return wall, stdout


def setup_seconds(args, deadline: float) -> float:
    """Median time from a fresh interpreter to import plus first calls."""
    samples = [run_child(worker_argv(args, OUT / args.workload / "setup", "--setup"),
                         deadline)[0]
               for _ in range(SETUP_SAMPLES)]
    return statistics.median(samples)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(PACKAGE).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def read_first(path: str, prefix: str = "") -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return None


def provenance(args, result: dict, metrics: dict) -> dict:
    largest = metrics.get("trace.largest_array_mb", {}).get("value")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "l3_cache": read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(), "numpy": result["numpy"],
        "scipy": result["scipy"], "thread_env": workloads.THREAD_ENV,
        "largest_array_mb_computed": largest,
        "largest_array_note": ("largest array, or list of arrays, passed across a traced "
                               "boundary; computed from array sizes" if largest is not None
                               else "measured in --trace 1 runs only"),
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in result["passes"]],
    }


def end_to_end(passes: list[dict], result: dict, setup_s: float) -> dict[str, float]:
    return {"wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": setup_s}


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    # counts are equal in every traced pass, or the worker reported a problem
    out = {name: (value if name.rsplit(".", 1)[1] in spans.COUNT_STATS
                  else statistics.median(p["layers"][name] for p in traced))
           for name, value in traced[0]["layers"].items()}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return {name: out[name] for name in spans.metric_names()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if not (PACKAGE / "__init__.py").is_file():
            raise BenchError(f"no oscillab package at {PACKAGE}")
        out = OUT / args.workload
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        setup_s = None if args.trace else setup_seconds(args, deadline)
        _, stdout = run_child(
            worker_argv(args, out, "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--min-passes", "4" if args.trace else "3"),
            deadline)
        result = json.loads(stdout.strip().splitlines()[-1])
    except (BenchError, OSError, ValueError, IndexError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    passes = result["passes"]
    if args.trace:
        values, units = per_layer(passes), None
    else:
        values, units = end_to_end(passes, result, setup_s), END_TO_END_UNITS
    metrics = {name: {"value": value,
                      "unit": units[name] if units else spans.UNITS[name.rsplit(".", 1)[1]]}
               for name, value in values.items()}
    failed = sum(p["failed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    correct = not result["problems"]

    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print("provenance " + json.dumps(provenance(args, result, metrics)))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"ops_failed_frac {failed / attempted:.6g} ({failed} of {attempted} commands)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
