"""Workload definitions and the checked closed loop that runs them.

A workload is a list of ``oscillab`` CLI commands. One pass issues them in
order, each after the previous one has returned (a closed loop with one
client), and checks every command's outcome before the next starts.

A command's outcome is its exit code plus the SHA-256 digest of each output
file it wrote. It is checked against ``references.json``, recorded at the
commit that introduced the benchmark, when the seed has a reference there;
otherwise against the first pass of the same run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Every thread pool a measuring process could start is pinned to one thread.
THREAD_ENV = {name: "1" for name in (
    "OSCILLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

# Output files the CLI can write for these commands (no --emit-plots).
OUTPUT_FILES = ("results.csv", "sweep.csv", "summary.json")

# Exit codes the CLI documents as verdicts: 0 every check passed, 1 an
# inequality or slope band was violated. Anything else is a failure.
VERDICTS = (0, 1)

TWO_WEIGHT_PAIRS = "3"
LEMMA_PAIRS = "20"
LP_PAIRS = "8"

WORKLOADS: dict[str, list[list[str]]] = {
    "two-weight": [
        ["check-main", "--kind", "monomial", "--ell", "2", "--lambdas", "64..1024",
         "--pairs", TWO_WEIGHT_PAIRS],
        ["check-main", "--kind", "monomial", "--ell", "3", "--lambdas", "64..1024",
         "--pairs", TWO_WEIGHT_PAIRS],
    ],
    "littlewood-paley": [
        ["check-lp", "--pairs", LP_PAIRS],
    ],
    "scaling-laws": [
        ["kernel-decay", "--kind", "monomial", "--ell", "3", "--lambdas", "64..16384"],
        ["sweep-operator", "--kind", "monomial", "--ell", "3", "--lambdas", "64..4096"],
        ["sweep-operator", "--kind", "cosine", "--x0", "1.5707963267948966", "--ell", "3",
         "--lambdas", "64..4096"],
        ["sweep-maximal", "--ell", "3", "--lambdas", "16..4096"],
        ["check-lemmas", "--kind", "monomial", "--ell", "3", "--lambdas", "256..4096",
         "--pairs", LEMMA_PAIRS],
    ],
}

# Small commands on the same code paths, run in a fresh interpreter to
# measure set-up (import plus lazy first-call work) and, in the measuring
# process, to warm up before the first timed pass. Their verdicts are not
# checked; only a traceback or a usage error counts.
PROBES: dict[str, list[list[str]]] = {
    "two-weight": [
        ["check-main", "--kind", "monomial", "--ell", "3", "--lambdas", "64", "--pairs", "1"],
    ],
    "littlewood-paley": [
        ["check-lp", "--pairs", "1", "--config", "{probe_config}"],
    ],
    "scaling-laws": [
        ["kernel-decay", "--kind", "monomial", "--ell", "3", "--lambdas", "64"],
        ["sweep-maximal", "--ell", "3", "--lambdas", "16"],
        ["check-lemmas", "--kind", "monomial", "--ell", "3", "--lambdas", "256",
         "--pairs", "1"],
    ],
}

# The check-lp probe restricts the spaced family to its cheapest spacing.
PROBE_CONFIG = {"spaced": {"L": 8.0}}


def command_id(argv: list[str]) -> str:
    return " ".join(argv)


@dataclass
class Outcome:
    """What one command did: exit code, output digests, captured error."""

    exit_code: int | None
    files: dict[str, str]
    error: str = ""

    def key(self) -> dict:
        return {"exit": self.exit_code, "files": self.files}


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    attempted: int
    problems: list[str] = field(default_factory=list)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_command(cli, argv: list[str], out_dir: Path) -> Outcome:
    """Run one CLI command in-process with an empty output directory."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    code = None
    error = ""
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(argv + ["--out", str(out_dir)])
    except Exception:  # a traceback from the program is a failed command
        error = traceback.format_exc()
    if "Traceback" in stderr.getvalue():
        error = error or stderr.getvalue()
    files = {name: digest(out_dir / name) for name in OUTPUT_FILES
             if (out_dir / name).is_file()}
    return Outcome(code, files, error)


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def check(cid: str, got: Outcome, expected: dict | None, file_names: list[str]) -> str | None:
    """Return a problem description, or None when the outcome is correct.

    ``expected`` is the reference outcome (exit code and digests) or None on
    the first pass of a seed without a reference; ``file_names`` are the
    files the command writes, taken from the default seed's reference.
    """
    if got.error:
        return f"{cid}: traceback\n{got.error}"
    if got.exit_code not in VERDICTS:
        return f"{cid}: exit code {got.exit_code}"
    if expected is not None:
        if got.key() != expected:
            return f"{cid}: outcome {got.key()} differs from reference {expected}"
        return None
    if sorted(got.files) != sorted(file_names):
        return f"{cid}: wrote {sorted(got.files)}, expected {sorted(file_names)}"
    return None


class Workload:
    """One workload bound to a seed, an output root and its expectations."""

    def __init__(self, name: str, seed: int, out_root: Path, references: dict):
        self.name = name
        self.commands = [argv + ["--seed", str(seed)] for argv in WORKLOADS[name]]
        self.out_root = out_root
        refs = references.get(name, {})
        default = refs.get("0", {})
        self.file_names = {command_id(a): sorted(default.get(command_id(a), {}).get("files", {}))
                           for a in WORKLOADS[name]}
        self.expected: dict[str, dict] = dict(refs.get(str(seed), {}))

    def run_pass(self, cli) -> PassResult:
        problems = []
        t0, c0 = time.perf_counter(), time.process_time()
        for i, argv in enumerate(self.commands):
            cid = command_id(WORKLOADS[self.name][i])
            got = run_command(cli, argv, self.out_root / f"{i}-{argv[0]}")
            problem = check(cid, got, self.expected.get(cid), self.file_names[cid])
            if problem:
                problems.append(problem)
            elif cid not in self.expected:
                # later passes of an unreferenced seed must repeat the first
                self.expected[cid] = got.key()
        return PassResult(time.perf_counter() - t0, time.process_time() - c0,
                          len(self.commands), problems)

    def outcomes(self, cli) -> dict[str, dict]:
        """One unchecked pass, returning each command's outcome (for recording)."""
        out = {}
        for i, argv in enumerate(self.commands):
            got = run_command(cli, argv, self.out_root / f"{i}-{argv[0]}")
            if got.error or got.exit_code not in VERDICTS:
                raise RuntimeError(f"{command_id(argv)} failed: {got.error or got.exit_code}")
            out[command_id(WORKLOADS[self.name][i])] = got.key()
        return out


def run_probes(cli, name: str, out_root: Path) -> None:
    config = out_root / "probe-config.json"
    out_root.mkdir(parents=True, exist_ok=True)
    config.write_text(json.dumps(PROBE_CONFIG))
    for i, argv in enumerate(PROBES[name]):
        argv = [a.replace("{probe_config}", str(config)) for a in argv] + ["--seed", "0"]
        got = run_command(cli, argv, out_root / f"probe-{i}-{argv[0]}")
        if got.error or got.exit_code not in VERDICTS:
            raise RuntimeError(f"probe {command_id(argv)} failed: {got.error or got.exit_code}")
