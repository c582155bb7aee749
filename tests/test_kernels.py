"""Oscillatory kernel construction, application, and spectral decay.

The spectral values are cross-checked against two independent oracles:
adaptive quadrature of the oscillatory integral, and (for the quadratic
phase) the Fresnel-integral closed form.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import fresnel

from oscillab._util import standard_bump
from oscillab.errors import GridMismatch, UnderResolved, ValidationFailed
from oscillab.kernels import Kernel, admissible_step, apply_T, build_kernel, check_decay
from oscillab.numerics import (Grid, SampledFunction, forward_transform, inverse_transform,
                               lp_norm)
from oscillab.phases import Phase, finite_type_spec

from conftest import convolve_direct, index_of, translated


def cutoff(kernel: Kernel, x) -> np.ndarray:
    """The kernel's cutoff psi: the standard bump rescaled to [x0 - u, x0 + u]."""
    spec = kernel.spec
    return standard_bump((np.asarray(x, dtype=float) - spec.x0) / spec.support_halfwidth)


def kernel_spectrum_quadrature(kernel: Kernel, xis) -> np.ndarray:
    """Adaptive-quadrature evaluation of K^ at arbitrary frequencies.

    Independent of the FFT path; absolute tolerance 1e-10 per component.
    """
    spec = kernel.spec
    lo = spec.x0 - spec.support_halfwidth
    hi = spec.x0 + spec.support_halfwidth
    phase0 = lambda x: float(np.asarray(kernel.phase.eval(0, x)))
    out = []
    for xi in np.atleast_1d(xis):
        def integrand(x, part, xi=xi):
            val = np.exp(1j * (kernel.lam * phase0(x) - xi * x)) * cutoff(kernel, x)
            return val.real if part == 0 else val.imag

        re, _ = quad(integrand, lo, hi, args=(0,), epsabs=1e-10, epsrel=1e-10, limit=4000)
        im, _ = quad(integrand, lo, hi, args=(1,), epsabs=1e-10, epsrel=1e-10, limit=4000)
        out.append(re + 1j * im)
    return np.asarray(out)


def cubic_setup(lam=128.0, half_width=2.0, u=0.5):
    ph = Phase.monomial(3)
    spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=u)
    grid = Grid.from_step(0.0, half_width, admissible_step(spec, lam) * 0.999)
    return ph, spec, build_kernel(ph, spec, lam, grid)


def band_limited(grid, seed, hi):
    rng = np.random.default_rng(seed)
    fg = grid.freq_grid()
    vals = np.zeros(grid.n, dtype=np.complex128)
    sel = np.abs(fg.xs) <= hi
    vals[sel] = rng.normal(size=int(sel.sum())) + 1j * rng.normal(size=int(sel.sum()))
    from oscillab.numerics import SpectralFunction

    return inverse_transform(SpectralFunction(grid, vals))


class TestBuildKernel:
    def test_value_at_origin_is_cutoff(self):
        _, _, K = cubic_setup()
        mid = K.grid.n // 2
        assert K.samples.values[mid] == pytest.approx(cutoff(K, 0.0))

    def test_unimodularity(self):
        _, _, K = cubic_setup()
        psi = cutoff(K, K.grid.xs)
        assert np.max(np.abs(np.abs(K.samples.values) - psi)) <= 1e-12

    def test_mass_of_modulus_equals_cutoff_mass(self):
        _, _, K = cubic_setup(lam=256.0)
        g = K.grid
        assert abs(g.h * np.sum(np.abs(K.samples.values))
                   - g.h * np.sum(cutoff(K, g.xs))) <= 1e-12

    def test_under_resolved(self):
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        with pytest.raises(UnderResolved) as exc:
            build_kernel(ph, spec, 4096.0, Grid(0.0, 2.0, 256))
        assert exc.value.min_step <= np.pi / (4 * 4096.0 * 0.75)

    def test_degenerate_phase_rejected(self):
        # a phase failing the finite-type gate cannot produce a kernel
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 2, epsilon=0.5, support_halfwidth=0.25)
        with pytest.raises(ValidationFailed):
            build_kernel(ph, spec, 16.0, Grid(0.0, 2.0, 4096))

    def test_lambda_below_one_rejected(self):
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        with pytest.raises(ValueError):
            build_kernel(ph, spec, 0.5, Grid(0.0, 2.0, 4096))

    def test_nan_lambda_rejected(self):
        # every comparison with NaN is false: lam < 1 let it through, and the
        # kernel's samples were all NaN
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        with pytest.raises(ValueError, match="lambda nan is not finite"):
            build_kernel(ph, spec, float("nan"), Grid(0.0, 2.0, 4096))

    def test_cutoff_even_and_compact(self):
        # |K| is the cutoff: even about x0 = 0 (sample n/2) and 0 off |x| < u
        _, spec, K = cubic_setup()
        xs = K.grid.xs
        psi = np.abs(K.samples.values)
        np.testing.assert_allclose(psi[1:], psi[1:][::-1], atol=0)
        assert np.all(psi[np.abs(xs) >= spec.support_halfwidth] == 0.0)
        assert np.all(psi[np.abs(xs) < 0.9 * spec.support_halfwidth] > 0.0)


class TestApplyT:
    def test_zero_input(self):
        _, _, K = cubic_setup()
        out = apply_T(K, SampledFunction(K.grid, np.zeros(K.grid.n)))
        assert np.all(out.values == 0)

    def test_impulse_gives_translated_kernel(self):
        _, _, K = cubic_setup()
        g = K.grid
        j = index_of(g, 0.75)
        imp = np.zeros(g.n, dtype=complex)
        imp[j] = 1.0 / g.h
        out = apply_T(K, SampledFunction(g, imp))
        expected = np.roll(K.samples.values, j - g.n // 2)
        assert np.max(np.abs(out.values - expected)) <= 1e-10

    def test_fft_matches_direct_summation(self):
        _, _, K = cubic_setup(lam=64.0)
        f = band_limited(K.grid, 11, hi=10.0)
        a = apply_T(K, f)
        b = convolve_direct(K.samples, f)
        scale = np.sqrt(K.grid.h * np.sum(np.abs(b.values) ** 2))
        err = np.sqrt(K.grid.h * np.sum(np.abs(a.values - b.values) ** 2))
        assert err <= 1e-8 * scale

    def test_grid_mismatch(self):
        _, _, K = cubic_setup()
        other = Grid(0.0, K.grid.half_width, K.grid.n * 2)
        with pytest.raises(GridMismatch):
            apply_T(K, SampledFunction(other, np.zeros(other.n)))

    def test_young_inequality(self):
        _, _, K = cubic_setup(lam=64.0)
        f = band_limited(K.grid, 5, hi=20.0)
        lhs = lp_norm(apply_T(K, f), 2)
        rhs = lp_norm(K.samples, 1) * lp_norm(f, 2)
        assert lhs <= rhs + 1e-10

    def test_modulation_covariance(self):
        # adding an affine part to the phase only modulates in and out
        lam = 64.0
        base = Phase.monomial(3)
        a, b = 0.4, 0.3
        mod = Phase.from_derivatives([
            lambda x: x**3 + a + b * x,
            lambda x: 3 * x**2 + b,
            lambda x: 6 * np.asarray(x, dtype=float),
            lambda x: np.full_like(np.asarray(x, dtype=float), 6.0),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        ])
        spec0 = finite_type_spec(base, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        spec1 = finite_type_spec(mod, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        step = min(admissible_step(spec0, lam), admissible_step(spec1, lam))
        grid = Grid.from_step(0.0, 2.0, step * 0.999)
        K0 = build_kernel(base, spec0, lam, grid)
        K1 = build_kernel(mod, spec1, lam, grid)
        f = band_limited(grid, 9, hi=8.0)
        f_demod = SampledFunction(grid, f.values * np.exp(-1j * lam * b * grid.xs))
        for p in (2.0, 3.0):
            n1 = lp_norm(apply_T(K1, f), p)
            n0 = lp_norm(apply_T(K0, f_demod), p)
            assert abs(n1 - n0) <= 1e-10 * max(n0, 1.0)


class TestSpectrum:
    def test_spot_check_against_quadrature(self):
        _, _, K = cubic_setup(lam=128.0, half_width=1.0)
        sf = forward_transform(K.samples)
        xs = sf.freq_grid.xs
        lam13 = 128.0 ** (1 / 3)
        picks = np.unique(np.concatenate([
            np.linspace(-lam13, lam13, 12),
            np.linspace(lam13, 100.0, 12),
            np.linspace(-100.0, -lam13, 8)]))
        idx = np.unique([int(np.argmin(np.abs(xs - p))) for p in picks])[:32]
        oracle = kernel_spectrum_quadrature(K, xs[idx])
        err = np.max(np.abs(sf.values[idx] - oracle)) / np.max(np.abs(oracle))
        assert err <= 1e-6

    def test_zero_frequency_is_plain_integral(self):
        _, _, K = cubic_setup(lam=64.0)
        sf = forward_transform(K.samples)
        mid = K.grid.n // 2
        oracle = kernel_spectrum_quadrature(K, [0.0])[0]
        assert abs(sf.values[mid] - oracle) <= 1e-8

    def test_without_oscillation_spectrum_is_cutoff_transform(self):
        # psi is even, so its transform is the cosine integral, checked by quadrature
        _, spec, K = cubic_setup(lam=64.0)
        sf = forward_transform(SampledFunction(K.grid, cutoff(K, K.grid.xs)))
        u = spec.support_halfwidth
        for j in K.grid.n // 2 + np.array([0, 3, -7, 20]):
            xi = sf.freq_grid.xs[j]
            oracle, _ = quad(lambda x: cutoff(K, x) * np.cos(xi * x), -u, u,
                             epsabs=1e-12, epsrel=1e-12, limit=200)
            assert abs(sf.values[j] - oracle) <= 1e-8

    def test_hermitian_kernel_symmetry(self):
        # odd phase + even cutoff make K(-x) = conj(K(x)); the transform of
        # such a kernel is real-valued, which is the conjugation symmetry
        # K^(xi) = conj(K^(xi)) on the grid
        _, _, K = cubic_setup(lam=64.0)
        kv = K.samples.values[1:]
        assert np.max(np.abs(kv - np.conj(kv[::-1]))) == 0.0
        sf = forward_transform(K.samples)
        scale = np.max(np.abs(sf.values))
        assert np.max(np.abs(sf.values.imag)) <= 1e-12 * scale

    def test_translation_phase_factor(self):
        lam, a = 64.0, 0.5
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        grid = Grid.from_step(0.0, 2.0, admissible_step(spec, lam) * 0.999)
        a = grid.h * round(a / grid.h)  # keep the shift on the grid
        K = build_kernel(ph, spec, lam, grid)
        shifted_phase = translated(ph, a)
        shifted_spec = finite_type_spec(shifted_phase, a, 3, epsilon=1.0,
                                        support_halfwidth=0.5)
        Ka = build_kernel(shifted_phase, shifted_spec, lam, grid)
        sf, sfa = forward_transform(K.samples), forward_transform(Ka.samples)
        xs = sf.freq_grid.xs
        expected = sf.values * np.exp(-1j * xs * a)
        assert np.max(np.abs(sfa.values - expected)) <= 1e-9 * np.max(np.abs(sf.values))


class TestFresnelOracle:
    def test_quadratic_phase_integral_closed_form(self):
        # secondary oracle: integral of exp(i lam x^2) over [0, b] via
        # Fresnel functions, against dense trapezoid summation
        lam, b = 200.0, 0.5
        z = b * np.sqrt(2 * lam / np.pi)
        S, C = fresnel(z)
        closed = np.sqrt(np.pi / (2 * lam)) * (C + 1j * S)
        xs = np.linspace(0.0, b, 200001)
        trap = np.trapezoid(np.exp(1j * lam * xs**2), xs)
        assert abs(trap - closed) <= 1e-8


class TestDecay:
    @pytest.mark.parametrize("ell", [2, 3])
    def test_normalized_sup_stable(self, ell):
        ph = Phase.monomial(ell)
        spec = finite_type_spec(ph, 0.0, ell, epsilon=1.0, support_halfwidth=0.5)
        sups, tails, fars = [], [], []
        for e in range(6, 11):
            lam = float(2**e)
            grid = Grid.from_step(0.0, 1.0, admissible_step(spec, lam) * 0.999)
            rep = check_decay(build_kernel(ph, spec, lam, grid), N=4)
            sups.append(rep.sup_low * lam ** (1.0 / ell))
            tails.append(rep.tail_max)
            fars.append(rep.far_field)
        assert max(sups) / min(sups) < 3.0
        assert all(t <= 1.25 * tails[0] for t in tails)
        assert all(np.isfinite(f) for f in fars)

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_tail_bands_equal_the_inline_annuli(self, ell):
        # the tail annuli A_p, p >= 1, cut to lam^(1/ell) < |xi| <= lam, as
        # check_decay wrote them out before it read them from AnnuliIndex
        ph = Phase.monomial(ell)
        spec = finite_type_spec(ph, 0.0, ell, epsilon=1.0, support_halfwidth=0.5)
        for lam in (64.0, 300.0, 1024.0):
            grid = Grid.from_step(0.0, 1.0, admissible_step(spec, lam) * 0.999)
            K = build_kernel(ph, spec, lam, grid)
            spectrum = forward_transform(K.samples)
            xs, mags = spectrum.freq_grid.xs, np.abs(spectrum.values)
            base = lam ** (1.0 / ell)
            tail_exp = (ell - 2.0) / (2.0 * (ell - 1.0))
            tail_pref = lam ** (1.0 / (2.0 * (ell - 1.0)))
            consts = []
            p = 1
            while 2.0 ** (p - 3) * base < lam:
                band = (np.abs(xs) > max(2.0 ** (p - 3) * base, base)) \
                    & (np.abs(xs) <= min(2.0 ** (p + 1) * base, lam))
                if np.any(band):
                    consts.append(float(np.max(
                        mags[band] * tail_pref * np.abs(xs[band]) ** tail_exp)))
                p += 1
            rep = check_decay(K, N=4)
            assert rep.tail_constants == tuple(consts)
            assert rep.sup_low == float(np.max(mags[np.abs(xs) <= base]))

    def test_far_field_order_must_not_overflow(self):
        ph = Phase.monomial(2)
        spec = finite_type_spec(ph, 0.0, 2, epsilon=1.0, support_halfwidth=0.5)
        grid = Grid.from_step(0.0, 1.0, admissible_step(spec, 64.0) * 0.999)
        K = build_kernel(ph, spec, 64.0, grid)
        # the largest N with |xi|^N finite up to the dual grid's reach pi/h
        top = int(np.log(np.finfo(float).max) / np.log(np.pi / grid.h))
        assert np.isfinite(check_decay(K, N=top).far_field)
        for N in (top + 1, 100000, 10**400):
            with pytest.raises(ValueError, match=f"N={N} overflows"):
                check_decay(K, N=N)

    def test_under_resolved_far_field(self):
        ph = Phase.monomial(2)
        spec = finite_type_spec(ph, 0.0, 2, epsilon=1.0, support_halfwidth=0.5)
        lam = 64.0
        grid = Grid.from_step(0.0, 1.0, admissible_step(spec, lam) * 0.999)
        K = build_kernel(ph, spec, lam, grid)
        coarse = Kernel(K.phase, K.spec, 4 * lam, K.samples)
        with pytest.raises(UnderResolved):
            check_decay(coarse)
