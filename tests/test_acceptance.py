"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line. Implicit-constant criteria (6 and 8)
re-measure the ``verify.baseline_*`` recipes and compare against
tests/baselines.json, which scripts/freeze_baselines.py writes from the
same recipes (regenerate it after an intentional corpus or discretization
change); scaling criteria assert their slope bands and runtime caps
directly.
"""

import json
import os
import time

import numpy as np
import pytest

from oscillab.lpaley import DyadicFamily
from oscillab.maximal import (ApproachRegionParams, approach_maximal,
                              approach_maximal_brute, fractional_maximal,
                              fractional_maximal_brute, global_maximal,
                              global_maximal_brute, hardy_littlewood,
                              hardy_littlewood_brute, regular_maximal,
                              regular_maximal_brute, regular_radii)
from oscillab.numerics import Grid, Weight, convolve, convolve_direct, forward_transform
from oscillab.phases import Phase, finite_type_spec
from oscillab.verify import (baseline_spaced_constants, baseline_square_samples,
                             baseline_two_weight, envelope_constants, fit_power_law,
                             h1_atom, kernel_decay_sweep, maximal_norm_sweep,
                             operator_norm_sweep, random_band_function, random_weight,
                             uncertainty_samples, weight_chain_holds)

with open(os.path.join(os.path.dirname(__file__), "baselines.json")) as _fh:
    BASELINES = json.load(_fh)

SEED = BASELINES["seed"]


def report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{desc}]: {status} {detail}")
    assert ok, f"criterion {num} ({desc}): {detail}"


class TestCriterion1:
    def test_constant_weight_closed_form_and_slope(self):
        t0 = time.monotonic()
        worst = 0.0
        slopes = {}
        for ell in (2, 3, 4, 5):
            points = []
            for lam in (16.0, 64.0, 256.0, 1024.0):
                grid = Grid.from_step(0.0, 2.0, 1.0 / (16.0 * lam))
                m = approach_maximal(Weight(grid, np.ones(grid.n)),
                                     ApproachRegionParams(ell, lam))
                interior = m.values[~m.boundary]
                target = 2.0 * lam ** (-2.0 / ell)
                dev = float(np.max(np.abs(interior / target - 1.0)))
                worst = max(worst, dev)
                points.append((lam, float(m.values[grid.n // 2])))
            slope, _, _ = fit_power_law(points)
            slopes[ell] = slope
        elapsed = time.monotonic() - t0
        ok = (worst <= 0.03
              and all(abs(slopes[ell] + 2.0 / ell) <= 0.02 for ell in slopes)
              and elapsed < 30.0)
        report(1, "constant-weight closed form", ok,
               f"max deviation {worst:.4f}, slopes {slopes}, {elapsed:.1f}s")


class TestCriterion2:
    def test_oracle_equivalence(self):
        t0 = time.monotonic()
        lam = 32.0
        grid = Grid(0.0, 2.0, 1024)  # h = 1/256 resolves lam = 32
        mismatches = []
        iterate_worst = 0.0
        for seed in range(50):
            w = random_weight(grid, np.random.default_rng(seed), quantize=True)
            # one application leaves the dyadic lattice (odd window counts),
            # so the iterate is checked stage-wise on a re-quantized
            # intermediate, plus a 1e-13 relative bound on the composition
            mid = Weight(grid, np.round(hardy_littlewood(w).values * 4096) / 4096)
            a2 = hardy_littlewood(w, 2).values
            b2 = hardy_littlewood_brute(w, 2).values
            iterate_worst = max(iterate_worst,
                                float(np.max(np.abs(a2 - b2)) / np.max(b2)))
            cases = [
                ("M", hardy_littlewood(w), hardy_littlewood_brute(w)),
                ("M stage 2", hardy_littlewood(mid), hardy_littlewood_brute(mid)),
                ("M_alpha", fractional_maximal(w, 0.35),
                 fractional_maximal_brute(w, 0.35)),
            ]
            for ell in (2, 3):
                params = ApproachRegionParams(ell, lam)
                cases.append((f"approach ell={ell}",
                              approach_maximal(w, params),
                              approach_maximal_brute(w, params)))
                cases.append((f"global ell={ell}", global_maximal(w, ell),
                              global_maximal_brute(w, ell)))
            cases.append(("regular lam-form",
                          regular_maximal(w, 3, lam=lam, conv="direct"),
                          regular_maximal_brute(w, 3, lam=lam)))
            cases.append(("regular beta-form",
                          regular_maximal(w, 3, beta=0.5, conv="direct"),
                          regular_maximal_brute(w, 3, beta=0.5)))
            for name, fast, brute in cases:
                if not np.array_equal(fast.values, brute.values):
                    mismatches.append((seed, name))
        conv_worst = 0.0
        parseval_worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            f = random_band_function(grid, rng, 0.0, 30.0)
            g2 = random_band_function(grid, rng, 0.0, 30.0)
            a = convolve(f, g2).values
            b = convolve_direct(f, g2).values
            conv_worst = max(conv_worst,
                             float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
            fh = forward_transform(f)
            lhs = grid.h * np.sum(np.abs(f.values) ** 2)
            rhs = fh.freq_grid.h / (2 * np.pi) * np.sum(np.abs(fh.values) ** 2)
            parseval_worst = max(parseval_worst, abs(lhs - rhs) / lhs)
        elapsed = time.monotonic() - t0
        ok = (not mismatches and iterate_worst <= 1e-13 and conv_worst <= 1e-8
              and parseval_worst <= 1e-10 and elapsed < 120.0)
        report(2, "fast path = brute force", ok,
               f"mismatches {mismatches[:3]}, iterate {iterate_worst:.1e}, "
               f"conv {conv_worst:.2e}, parseval {parseval_worst:.2e}, {elapsed:.1f}s")


class TestCriterion3:
    def test_kernel_decay(self):
        t0 = time.monotonic()
        details = []
        ok = True
        for ell in (2, 3):
            phase = Phase.monomial(ell)
            spec = finite_type_spec(phase, 0.0, ell, epsilon=1.0,
                                    support_halfwidth=0.5)
            # the tail constant is fitted at the smallest lambda
            reports, factor, tail_ok = kernel_decay_sweep(
                phase, spec, [float(2**e) for e in range(6, 15)], N=4, tail_slack=1.25)
            ok &= factor < 3.0 and tail_ok
            tails = [r.tail_max for r in reports]
            details.append(f"ell={ell}: sup factor {factor:.2f}, "
                           f"tail max {max(tails):.3f} <= {1.25 * tails[0]:.3f}")
        elapsed = time.monotonic() - t0
        ok &= elapsed < 180.0
        report(3, "kernel decay", ok, "; ".join(details) + f", {elapsed:.1f}s")


class TestCriterion4:
    def test_operator_norm_exponent(self):
        t0 = time.monotonic()
        lambdas = [float(2**e) for e in range(6, 13)]
        # the cosine case leaves the support to the halving search (u = 1),
        # the widest interval on which its hypothesis holds
        cases = [
            (2, Phase.monomial(2), 0.0, 0.5),
            (3, Phase.monomial(3), 0.0, 0.5),
            (3, Phase.cosine(), np.pi / 2, None),
        ]
        slopes = []
        ok = True
        for ell, phase, x0, u in cases:
            spec = finite_type_spec(phase, x0, ell, epsilon=1.0,
                                    support_halfwidth=u)
            rep = operator_norm_sweep(phase, spec, lambdas, seed=SEED)
            slopes.append(rep.slope)
            ok &= abs(rep.slope + 1.0 / ell) <= 0.15
        elapsed = time.monotonic() - t0
        ok &= elapsed < 300.0
        report(4, "operator norm exponent", ok,
               f"slopes {[round(s, 4) for s in slopes]}, {elapsed:.1f}s")


class TestCriterion5:
    def test_maximal_norm_exponent(self):
        lambdas = [float(2**e) for e in range(4, 13)]
        slopes = {}
        ok = True
        for ell in (3, 4):
            rep = maximal_norm_sweep(ell, lambdas, seed=SEED)
            slopes[ell] = rep.slope
            ok &= abs(rep.slope + 2.0 / ell) <= 0.1
        report(5, "approach-region norm exponent", ok,
               f"slopes {({k: round(v, 4) for k, v in slopes.items()})}")


class TestCriterion6:
    def test_two_weight_inequality(self):
        ok = True
        details = []
        for ell in (2, 3):
            sweep = baseline_two_weight(ell, BASELINES["pairs_main"], SEED)
            if sweep.violation is not None:
                report(6, "two-weight inequality", False,
                       f"rhs = 0 < lhs at {sweep.violation.provenance}")
            maxima = []
            for lam, best in sweep.maxima:
                baseline = BASELINES["two_weight_max_ratio"][f"ell={ell},lam={int(lam)}"]
                ok &= best <= baseline * 1.05
                maxima.append(best)
            factor = max(maxima) / min(maxima)
            ok &= factor < 2.0
            details.append(f"ell={ell}: maxima {[round(v, 4) for v in maxima]}, "
                           f"factor {factor:.2f}")
        report(6, "two-weight inequality", ok, "; ".join(details))


class TestCriterion7:
    def test_weight_chain_envelope_uncertainty(self):
        ok = True
        details = []
        # dominating chain over 100 random weights per cell
        for ell, lam, p in ((3, 256.0, 2), (3, 256.0, 3), (2, 256.0, 3)):
            ok &= weight_chain_holds(p, lam, ell, 100, np.random.default_rng(SEED),
                                     rel_tol=1e-9)
        details.append(f"weight chain {'ok' if ok else 'FAILED'}")
        # envelope constants stable across lambda
        phase = Phase.monomial(3)
        spec = finite_type_spec(phase, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        consts = [rs.ratio for rs in envelope_constants(phase, spec, (256.0, 1024.0, 4096.0), 3)]
        ok &= max(consts) / min(consts) < 4.0
        details.append(f"envelope {[round(c, 3) for c in consts]}")
        # uncertainty bounds never exceeded
        mols = uncertainty_samples(phase, spec, 128.0, 9.0, 20, np.random.default_rng(SEED))
        worst = max(rs.ratio for pair in mols for rs in pair)
        ok &= worst <= 1.0 + 1e-6
        details.append(f"uncertainty max ratio {worst:.6f}")
        report(7, "weight chain, envelope, uncertainty", ok, "; ".join(details))


class TestCriterion8:
    def test_littlewood_paley(self):
        ok = True
        dev = DyadicFamily(-2, 8).telescoping_deviation(Grid(0.0, 16.0, 4096))
        ok &= dev <= 1e-12
        square = baseline_square_samples(BASELINES["pairs_lp"], SEED)
        fmax = max(sq.forward.ratio for sq in square)
        bmax = max(sq.backward.ratio for sq in square)
        recon_worst = max(sq.reconstruction_error for sq in square)
        ratios = [sq.energy_ratio for sq in square]
        ok &= recon_worst <= 1e-8
        ok &= all(0.28 <= r <= 1.05 for r in ratios)
        ok &= fmax <= BASELINES["dyadic_square_ratios"]["forward"] * 1.05
        ok &= bmax <= BASELINES["dyadic_square_ratios"]["backward"] * 1.05
        # equally-spaced family constants against their frozen values
        spaced_ok = all(best <= BASELINES["spaced_family_constants"][f"L={L}"] * 1.05
                        for L, best in baseline_spaced_constants(SEED).items())
        ok &= spaced_ok
        report(8, "Littlewood-Paley", ok,
               f"telescoping {dev:.1e}, recon {recon_worst:.1e}, "
               f"square window [{min(ratios):.3f},{max(ratios):.3f}], "
               f"dyadic ({fmax:.3f},{bmax:.3f}), spaced ok {spaced_ok}")


class TestCriterion9:
    def test_scaling_identities(self):
        ok = True
        details = []
        # dilation identity for the regularized family, 2%
        ell, lam = 3, 256.0
        g1 = Grid.from_step(0.0, 1.0, 1.0 / (4.0 * lam))
        w = random_weight(g1, np.random.default_rng(SEED), quantize=True)
        scale = lam ** (1.0 / ell)
        radii = regular_radii(ell, lam, g1.h)
        m_lam = regular_maximal(w, ell, lam=lam, radii=radii).values
        g2 = Grid(0.0, g1.half_width * scale, g1.n)
        m_one = regular_maximal(Weight(g2, w.values), ell, lam=1.0,
                                radii=[r * scale for r in radii]).values
        rhs = lam ** (-2.0 / ell) * m_one
        dil = float(np.max(np.abs(m_lam - rhs)) / np.max(rhs))
        ok &= dil <= 0.02
        details.append(f"dilation {dil:.2e}")
        # epsilon-rescaling with the constant logged
        c_eps = {}
        for eps in (2.0, 4.0):
            grid = Grid.from_step(0.0, 3.0, 1.0 / (16.0 * eps * 64.0))
            we = random_weight(grid, np.random.default_rng(SEED + 1), quantize=True)
            lhs = approach_maximal(we, ApproachRegionParams(3, eps * 64.0)).values
            rhs_e = approach_maximal(we, ApproachRegionParams(3, 64.0)).values
            ok &= bool(np.all(lhs[rhs_e == 0] <= 1e-10))
            sel = rhs_e > 0
            c_eps[eps] = float(np.max(lhs[sel] / rhs_e[sel]))
            ok &= np.isfinite(c_eps[eps])
        details.append(f"C_eps {({k: round(v, 3) for k, v in c_eps.items()})}")
        # monotonicity in ell, exact
        mono = True
        for lam_m in (16.0, 64.0):
            grid = Grid.from_step(0.0, 2.0, 1.0 / (8.0 * lam_m))
            wm = random_weight(grid, np.random.default_rng(SEED + 2), quantize=True)
            prev = None
            for ell_m in (2, 3, 4, 5):
                cur = approach_maximal(wm, ApproachRegionParams(ell_m, lam_m)).values
                if prev is not None:
                    mono &= bool(np.all(prev <= cur))
                prev = cur
        ok &= mono
        details.append(f"monotone {mono}")
        # atom bound uniform within a factor-2 band
        agrid = Grid(0.0, 64.0, 2**17)
        norms = []
        for e in range(0, 7):
            atom = h1_atom(agrid, 2.0**-e)
            m = regular_maximal(atom, 3, beta=1.0)
            norms.append(agrid.h * float(np.sum(np.abs(m.values))))
        band = max(norms) / min(norms)
        ok &= band <= 2.0
        details.append(f"atom band factor {band:.3f}")
        report(9, "scaling identities", ok, "; ".join(details))
