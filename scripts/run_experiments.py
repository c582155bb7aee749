#!/usr/bin/env python3
"""Run the full experiment battery into results/<experiment>/.

Thin driver over the CLI so that a single invocation reproduces every
table and plot. Exits nonzero if any experiment reports a violation.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from oscillab.cli import run

BATTERY = [
    ["validate-phase", "--kind", "monomial", "--ell", "3"],
    ["maximal", "--ell", "3", "--lambda", "64", "--weight", "const"],
    ["kernel-decay", "--kind", "monomial", "--ell", "2",
     "--lambdas", "64..16384", "--emit-plots"],
    ["kernel-decay", "--kind", "monomial", "--ell", "3",
     "--lambdas", "64..16384", "--emit-plots"],
    ["sweep-operator", "--kind", "monomial", "--ell", "2",
     "--lambdas", "64..4096", "--emit-plots"],
    ["sweep-operator", "--kind", "monomial", "--ell", "3",
     "--lambdas", "64..4096", "--emit-plots"],
    ["sweep-operator", "--kind", "cosine", "--x0", "1.5707963267948966",
     "--ell", "3", "--lambdas", "64..4096", "--emit-plots"],
    ["sweep-maximal", "--ell", "3", "--lambdas", "16..4096", "--emit-plots"],
    ["sweep-maximal", "--ell", "4", "--lambdas", "16..4096", "--emit-plots"],
    ["check-main", "--kind", "monomial", "--ell", "2",
     "--lambdas", "64..1024", "--pairs", "50"],
    ["check-main", "--kind", "monomial", "--ell", "3",
     "--lambdas", "64..1024", "--pairs", "50"],
    ["check-lp", "--pairs", "8"],
    ["check-lemmas", "--kind", "monomial", "--ell", "3",
     "--lambdas", "256..4096", "--pairs", "20"],
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?", default="results",
                    help="directory that gets one subdirectory per experiment (default: results)")
    base = ap.parse_args(argv).out
    failures = []
    for args in BATTERY:
        tag = args[0]
        for flag in ("--ell", "--kind"):
            if flag in args:
                tag += "-" + args[args.index(flag) + 1]
        out = os.path.join(base, tag)
        print(f"== {' '.join(args)} -> {out}")
        code = run(args + ["--out", out])
        if code != 0:
            failures.append((tag, code))
    if failures:
        print(f"failed experiments: {failures}", file=sys.stderr)
        return 1
    print("all experiments passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
