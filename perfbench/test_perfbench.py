"""Self-test of the benchmark. Run from the root of a checkout:

    python3 -m pytest -q perfbench

It takes about two minutes: it makes traced passes of every workload twice.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# kernel-decay draws no random input. sweep-operator reports a maximum over
# a corpus, which the deterministic focusing input attains for most seeds.
SEED_INSENSITIVE = ("kernel-decay", "sweep-operator")


def traced_pass(workload: str, seed: int, out: Path) -> dict:
    """One traced pass in a fresh single-threaded worker."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(workloads.THREAD_ENV)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed",
            str(seed), "--out", str(out), "--trace", "1", "--min-passes", "1"]
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    (record,) = result["passes"]
    assert record["traced"]
    return record["layers"]


def self_time(layers: dict, *names: str) -> float:
    return sum(layers[f"{n}.self_s"] for n in names)


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(ROOT / "src"))
    import oscillab.cli
    return oscillab.cli


@pytest.fixture(scope="module")
def references():
    return workloads.load_references()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_cover(workload, tmp_path):
    first = traced_pass(workload, 0, tmp_path / "a")
    second = traced_pass(workload, 0, tmp_path / "b")
    counts = [k for k in first if k.rsplit(".", 1)[1] in spans.COUNT_STATS]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert sorted(first) == sorted(n for n in spans.metric_names() if n != "trace.overhead_s")
    assert first["trace.coverage"] >= 0.95

    total = self_time(first, *spans.LAYERS)
    if workload == "two-weight":
        assert self_time(first, "maximal", "util.window_sums") >= 0.7 * total
        assert first["lpaley.self_s"] == 0
    if workload == "littlewood-paley":
        share = self_time(first, "lpaley", "numerics.inverse_transform", "util.standard_bump")
        assert share >= 0.7 * total
        assert first["maximal.self_s"] < 0.05 * total


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_reaches_program(workload, cli, references, tmp_path):
    got = {seed: workloads.Workload(workload, seed, tmp_path / str(seed), {}).outcomes(cli)
           for seed in (0, 1)}
    for seed, outcomes in got.items():
        assert outcomes == references[workload][str(seed)]
    for cid in got[0]:
        if not cid.startswith(SEED_INSENSITIVE):
            assert got[0][cid]["files"] != got[1][cid]["files"], cid


def test_corrupted_reference_is_a_failure(cli, references, tmp_path):
    corrupted = copy.deepcopy(references)
    outcome = next(iter(corrupted["two-weight"]["0"].values()))
    outcome["files"]["summary.json"] = "0" * 64
    result = workloads.Workload("two-weight", 0, tmp_path, corrupted).run_pass(cli)
    assert len(result.problems) == 1
    assert "differs from reference" in result.problems[0]


def test_missed_binding_is_reported(cli):
    import oscillab.verify
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert spans.stale_references(restore) == []
        original = oscillab.verify.hardy_littlewood.__wrapped__
        oscillab.verify.hardy_littlewood = original
        assert "oscillab.verify.hardy_littlewood" in spans.stale_references(restore)
    finally:
        spans.uninstall(restore)
    assert oscillab.verify.hardy_littlewood is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "two-weight",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
