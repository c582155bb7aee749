"""Harness operations: ratio records, power-law fits, sweeps and the
inequality instances on small seeded corpora."""

import numpy as np
import pytest

from oscillab.errors import (BadBand, InsufficientPoints, NonpositiveValue,
                             SupportViolation)
from oscillab.kernels import admissible_step, apply_T, build_kernel
from oscillab.lpaley import DyadicFamily
from oscillab.numerics import Grid, SampledFunction, Weight, lp_norm, weighted_l2
from oscillab.phases import Phase, finite_type_spec
from oscillab.verify import (Provenance, RatioSample, _sweep_report,
                             envelope_check, envelope_constants, fit_power_law,
                             focusing_input, frequency_restricted_ratio, h1_atom,
                             two_weight_ratio, maximal_norm_sweep,
                             operator_norm_sweep, random_band_function,
                             random_test_function, random_weight,
                             square_function_ratios, uncertainty_bounds_check)


def cubic(lam, half_width=4.0, for_approach=True):
    ph = Phase.monomial(3)
    spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
    step = admissible_step(ph, spec, lam) * 0.999
    if for_approach:
        step = min(step, 1.0 / (4.0 * lam))
    return ph, spec, Grid.from_step(0.0, half_width, step)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        slope, intercept, resid = fit_power_law(
            [(lam, 2.0 * lam ** (-2.0 / 3.0)) for lam in (16, 64, 256, 1024)])
        assert slope == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert np.exp(intercept) == pytest.approx(2.0, rel=1e-12)
        assert resid <= 1e-12

    def test_constant_data(self):
        slope, _, _ = fit_power_law([(lam, 5.0) for lam in (4, 16, 64)])
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_noisy_slope_recovery(self):
        rng = np.random.default_rng(0)
        pts = [(lam, lam ** (-1.0 / 3.0) * (1 + rng.uniform(-0.05, 0.05)))
               for lam in 2.0 ** np.arange(4, 13)]
        slope, _, _ = fit_power_law(pts)
        assert abs(slope + 1.0 / 3.0) <= 0.03

    def test_too_few_points(self):
        with pytest.raises(InsufficientPoints):
            fit_power_law([(4.0, 1.0), (8.0, 0.5)])

    def test_nonpositive_value(self):
        with pytest.raises(NonpositiveValue):
            fit_power_law([(4.0, 1.0), (8.0, 0.0), (16.0, 0.5)])

    def test_sweep_report_flags_bad_data(self):
        rep = _sweep_report([(64.0, 0.0), (128.0, 0.0), (256.0, 0.0)])
        assert rep.insufficient
        rep2 = _sweep_report([(64.0, 1.0)])
        assert rep2.insufficient


class TestRatioSample:
    def test_product_identity(self):
        rs = RatioSample.of(3.7, 1.3)
        assert abs(rs.ratio * rs.rhs - rs.lhs) <= 1e-12 * max(rs.lhs, 1.0)
        assert not rs.vacuous

    def test_vacuous_flag(self):
        rs = RatioSample.of(0.5, 0.0)
        assert rs.vacuous and rs.ratio == 0.0


class TestTwoWeightInequality:
    LAM = 128.0

    def test_zero_input(self):
        ph, spec, g = cubic(self.LAM)
        w = random_weight(g, np.random.default_rng(0))
        rs = two_weight_ratio(SampledFunction(g, np.zeros(g.n)), w, ph, spec, self.LAM)
        assert rs.lhs == 0.0 and rs.ratio == 0.0

    def test_constant_weight_closed_form(self):
        # for w = 1 the iterated maximal functions fix constants, so the
        # ratio matches ||Tf||^2 / (2 lam^(-2/3) ||f||^2) computed directly
        ph, spec, g = cubic(self.LAM)
        rng = np.random.default_rng(1)
        f = random_test_function(g, rng, max_freq=self.LAM ** (1 / 3), support_halfwidth=1.0)
        w = Weight(g, np.ones(g.n))
        rs = two_weight_ratio(f, w, ph, spec, self.LAM)
        K = build_kernel(ph, spec, self.LAM, g)
        direct = weighted_l2(apply_T(K, f), w) / (
            2.0 * self.LAM ** (-2.0 / 3.0) * lp_norm(f, 2) ** 2)
        assert rs.ratio == pytest.approx(direct, rel=0.05)

    def test_random_pairs_bounded_and_deterministic(self):
        ph, spec, g = cubic(self.LAM)
        rng = np.random.default_rng(2)
        f = random_test_function(g, rng, max_freq=8.0, support_halfwidth=1.5)
        w = random_weight(g, rng)
        r1 = two_weight_ratio(f, w, ph, spec, self.LAM)
        r2 = two_weight_ratio(f, w, ph, spec, self.LAM)
        assert r1.lhs == r2.lhs and r1.rhs == r2.rhs
        assert not r1.vacuous
        assert r1.ratio < 10.0

    def test_recentred_cosine_frame(self):
        # the cos phase at pi/2 runs through the same normalized pipeline
        lam = 64.0
        ph = Phase.cosine()
        spec = finite_type_spec(ph, np.pi / 2, 3, epsilon=1.0, support_halfwidth=0.5)
        step = min(admissible_step(ph, spec, lam) * 0.999, 1.0 / (4 * lam))
        g = Grid.from_step(0.0, 4.0, step)
        rng = np.random.default_rng(3)
        f = random_test_function(g, rng, max_freq=6.0, support_halfwidth=1.0)
        w = random_weight(g, rng)
        rs = two_weight_ratio(f, w, ph, spec, lam)
        assert rs.lhs > 0 and rs.rhs > 0 and np.isfinite(rs.ratio)

    def test_frequency_restricted_stable_in_p(self):
        from oscillab.lpaley import AnnuliIndex, annuli_project

        lam = 128.0
        ph, spec, g = cubic(lam)
        idx = AnnuliIndex(3, lam)
        rng = np.random.default_rng(4)
        w = random_weight(g, rng)
        ratios = []
        for p in (0, 2, 4):
            f0 = random_test_function(g, rng, max_freq=2 * idx.base * 2.0**p,
                                      support_halfwidth=1.2)
            f = annuli_project(f0, idx, p)
            rs = frequency_restricted_ratio(f, w, ph, spec, lam,
                                            Provenance(p=p))
            if not rs.vacuous:
                ratios.append(rs.ratio)
        assert ratios and max(ratios) < 20.0


class TestSquareFunctionRatios:
    GRID = Grid(0.0, 16.0, 4096)
    FAM = DyadicFamily(-2, 8)

    def test_unit_weight_reduces_to_energy_window(self):
        f = random_band_function(self.GRID, np.random.default_rng(5), 0.5, 128.0)
        w = Weight(self.GRID, np.ones(self.GRID.n))
        sq = square_function_ratios(f, w, self.FAM)
        assert 1.0 / 3.0 - 0.05 <= sq.forward.ratio <= 3.05
        assert 1.0 / 3.0 - 0.05 <= sq.backward.ratio <= 3.05

    def test_single_bin_forward_at_most_one(self):
        # spectrum concentrated where a single multiplier equals one
        from oscillab.numerics import SpectralFunction, inverse_transform

        fg = self.GRID.freq_grid()
        vals = np.zeros(self.GRID.n, dtype=np.complex128)
        j = int(np.argmin(np.abs(fg.xs - 2.0**4)))
        vals[j] = 1.0
        f = inverse_transform(SpectralFunction(fg, vals, self.GRID))
        w = random_weight(self.GRID, np.random.default_rng(6))
        assert square_function_ratios(f, w, self.FAM).forward.ratio <= 1.0 + 0.05

    def test_zero_input_vacuous(self):
        f = SampledFunction(self.GRID, np.zeros(self.GRID.n))
        w = random_weight(self.GRID, np.random.default_rng(7))
        sq = square_function_ratios(f, w, self.FAM)
        assert sq.forward.lhs == 0.0 and sq.backward.lhs == 0.0
        assert sq.reconstruction_error == 0.0 and sq.energy_ratio == 0.0


class TestUncertaintyBounds:
    def setup_case(self, seed):
        lam = 64.0
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        g = Grid.from_step(0.0, 8.0, admissible_step(ph, spec, lam) * 0.999)
        K = build_kernel(ph, spec, lam, g)
        rng = np.random.default_rng(seed)
        f = random_band_function(g, rng, 0.0, 9.0)
        w = random_weight(g, rng)
        return K, f, w

    def test_ratios_at_most_one(self):
        for seed in range(4):
            K, f, w = self.setup_case(seed)
            mol, mol2 = uncertainty_bounds_check(f, K, w, (-10.0, 10.0))
            assert mol.ratio <= 1.0 + 1e-6
            assert mol2.ratio <= 1.0 + 1e-6

    def test_zero_weight_vacuous(self):
        K, f, _ = self.setup_case(0)
        w0 = Weight(K.grid, np.zeros(K.grid.n))
        mol, mol2 = uncertainty_bounds_check(f, K, w0, (-10.0, 10.0))
        assert mol.vacuous and mol2.vacuous

    def test_window_input_strictly_below_one(self):
        from oscillab.verify import _flat_window

        K, _, w = self.setup_case(1)
        psi = _flat_window(K.grid, -10.0, 10.0)
        mol, _ = uncertainty_bounds_check(psi, K, w, (-21.0, 21.0))
        assert mol.ratio < 1.0

    def test_support_violation(self):
        K, f, w = self.setup_case(2)
        with pytest.raises(SupportViolation):
            uncertainty_bounds_check(f, K, w, (-2.0, 2.0))


class TestEnvelope:
    PH = Phase.monomial(3)
    SPEC = finite_type_spec(PH, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)

    def test_zero_band_rejected(self):
        with pytest.raises(BadBand):
            envelope_check(self.PH, self.SPEC, 1024.0, 3, k=0, N=2)

    def test_band_range_gate(self):
        with pytest.raises(BadBand):
            envelope_check(self.PH, self.SPEC, 256.0, 30, k=1, N=2)

    def test_constant_finite_and_stable(self):
        consts = [rs.ratio for rs in envelope_constants(self.PH, self.SPEC, (256.0, 1024.0), 3)]
        assert all(np.isfinite(c) and c > 0 for c in consts)
        assert max(consts) / min(consts) < 4.0

    def test_sup_norm_variant(self):
        # 23 = round(2^(p ell/(ell-1))), the nominal |k| of band p = 3 at ell = 3
        rs = envelope_check(self.PH, self.SPEC, 1024.0, 3, k=23, N=0)
        assert np.isfinite(rs.ratio) and rs.ratio > 0


class TestSweeps:
    def test_constant_corpus_closed_form(self):
        lambdas = [16.0, 64.0, 256.0]
        rep = maximal_norm_sweep(3, lambdas, corpus="const")
        for lam, v in rep.points:
            assert abs(v / (2.0 * lam ** (-2.0 / 3.0)) - 1) <= 0.03
        assert abs(rep.slope + 2.0 / 3.0) <= 0.02

    def test_single_lambda_flagged(self):
        rep = maximal_norm_sweep(3, [64.0])
        assert rep.insufficient

    def test_operator_sweep_small(self):
        ph = Phase.monomial(2)
        spec = finite_type_spec(ph, 0.0, 2, epsilon=1.0, support_halfwidth=0.5)
        rep = operator_norm_sweep(ph, spec, [64.0, 128.0, 256.0, 512.0], n_random=2)
        assert abs(rep.slope + 0.5) <= 0.15

    def test_focusing_input_realizes_lower_bound(self):
        lam = 256.0
        ph, spec, g = cubic(lam, for_approach=False)
        K = build_kernel(ph, spec, lam, g)
        foc = focusing_input(K)
        ratio = lp_norm(apply_T(K, foc), 3) / lp_norm(foc, 3)
        assert ratio >= 0.2 * lam ** (-1.0 / 3.0)


class TestCorpora:
    def test_quantized_weights_on_lattice(self):
        g = Grid(0.0, 2.0, 512)
        w = random_weight(g, np.random.default_rng(3), quantize=True)
        assert np.all(w.values * 4096 == np.round(w.values * 4096))

    def test_atom_mean_zero_and_bounded(self):
        g = Grid(0.0, 8.0, 2048)
        for width in (1.0, 0.25, 2.0 ** -6):
            a = h1_atom(g, width)
            assert abs(np.sum(a.values)) == 0.0
            half_cells = max(1, int(round(width / (2 * g.h))))
            actual = 2 * half_cells * g.h
            assert np.max(np.abs(a.values)) <= 1.0 / actual + 1e-12

    def test_band_function_support(self):
        from oscillab.numerics import forward_transform

        g = Grid(0.0, 8.0, 1024)
        f = random_band_function(g, np.random.default_rng(4), 2.0, 8.0)
        fh = forward_transform(f)
        sel = (np.abs(fh.freq_grid.xs) < 2.0) | (np.abs(fh.freq_grid.xs) > 8.0)
        assert np.max(np.abs(fh.values[sel])) <= 1e-9 * np.max(np.abs(fh.values))
