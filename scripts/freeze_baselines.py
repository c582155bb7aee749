#!/usr/bin/env python3
"""Regenerate tests/baselines.json: frozen regression baselines for the
inequality ratios whose implicit constants the theory leaves unspecified.

The corpora and grids are the ``verify.baseline_*`` recipes, which the
acceptance suite re-measures; this script only fixes the seed and pair
counts and writes the maxima. Run from the repository root after an
intentional change to corpora or discretization; the acceptance suite
then asserts measured values stay within 5% of these numbers.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from oscillab.verify import (baseline_spaced_constants, baseline_square_samples,
                             baseline_two_weight)

SEED = 0
PAIRS_MAIN = 200
PAIRS_LP = 16


def main():
    t0 = time.time()
    main_b = {}
    for ell in (2, 3):
        sweep = baseline_two_weight(ell, PAIRS_MAIN, SEED)
        if sweep.violation is not None:
            raise SystemExit(f"two-weight rhs = 0 < lhs: {sweep.violation}")
        for lam, best in sweep.maxima:
            main_b[f"ell={ell},lam={int(lam)}"] = best
    square = baseline_square_samples(PAIRS_LP, SEED)
    dy_b = {"forward": max(sq.forward.ratio for sq in square),
            "backward": max(sq.backward.ratio for sq in square)}
    sp_b = {f"L={L}": best for L, best in baseline_spaced_constants(SEED).items()}
    payload = {
        "seed": SEED,
        "pairs_main": PAIRS_MAIN,
        "pairs_lp": PAIRS_LP,
        "two_weight_max_ratio": main_b,
        "dyadic_square_ratios": dy_b,
        "spaced_family_constants": sp_b,
    }
    path = os.path.join(os.path.dirname(__file__), "..", "tests", "baselines.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(path)} in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
