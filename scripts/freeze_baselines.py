#!/usr/bin/env python3
"""Regenerate tests/baselines.json: frozen regression baselines for the
inequality ratios whose implicit constants the theory leaves unspecified.

Run from the repository root after an intentional change to corpora or
discretization; the acceptance suite then asserts measured values stay
within 5% of these numbers.
"""

import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from oscillab.lpaley import DyadicFamily, SpacedFamily
from oscillab.numerics import Grid
from oscillab.phases import Phase, finite_type_spec
from oscillab.verify import (random_band_function, random_weight, spaced_ratio,
                             square_function_ratios, two_weight_samples)

SEED = 0
PAIRS_MAIN = 200
PAIRS_LP = 16


def two_weight_baselines():
    out = {}
    for ell in (2, 3):
        phase = Phase.monomial(ell)
        spec = finite_type_spec(phase, 0.0, ell, epsilon=1.0, support_halfwidth=0.5)
        for lam in (64.0, 256.0, 1024.0):
            t0 = time.time()
            best = 0.0
            for rs in two_weight_samples(phase, spec, lam, PAIRS_MAIN, SEED):
                assert not (rs.vacuous and rs.lhs > 1e-10)
                best = max(best, rs.ratio)
            out[f"ell={ell},lam={int(lam)}"] = best
            print(f"  main ell={ell} lam={int(lam):5d}: max ratio {best:.6f} "
                  f"({time.time() - t0:.1f}s)")
    return out


def dyadic_baselines():
    grid = Grid(0.0, 16.0, 4096)
    fam = DyadicFamily(-2, 8)
    rng = np.random.default_rng(SEED)
    fmax, bmax = 0.0, 0.0
    for i in range(PAIRS_LP):
        f = random_band_function(grid, rng, 0.5, 128.0)
        w = random_weight(grid, rng)
        sq = square_function_ratios(f, w, fam)
        fmax, bmax = max(fmax, sq.forward.ratio), max(bmax, sq.backward.ratio)
    print(f"  dyadic forward {fmax:.6f}, backward {bmax:.6f}")
    return {"forward": fmax, "backward": bmax}


def spaced_baselines():
    grid = Grid(0.0, 32.0, 8192)
    rng = np.random.default_rng(SEED)
    out = {}
    for L in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        fam = SpacedFamily(L)
        best = 0.0
        for _ in range(4):
            f = random_band_function(grid, rng, 0.0, 60.0)
            w = random_weight(grid, rng)
            best = max(best, spaced_ratio(f, w, fam).ratio)
        out[f"L={L}"] = best
        print(f"  spaced L={L}: constant {best:.6f}")
    return out


def main():
    t0 = time.time()
    print("two-weight inequality ratios:")
    main_b = two_weight_baselines()
    print("dyadic square function ratios:")
    dy_b = dyadic_baselines()
    print("spaced-family constants:")
    sp_b = spaced_baselines()
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
