"""Grid, transform, convolution and norm contracts, checked against
closed forms and a direct-summation oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscillab.errors import GridMismatch
from oscillab.numerics import (Grid, SampledFunction, Weight, convolve,
                               convolve_direct, forward_transform,
                               inverse_transform, load_weight_csv,
                               lp_norm, save_weight_csv, weighted_l2)


def gaussian(grid):
    return SampledFunction.from_vectorized(grid, lambda x: np.exp(-x**2 / 2))


def random_band(grid, seed, lo=0.0, hi=20.0):
    rng = np.random.default_rng(seed)
    fg = grid.freq_grid()
    vals = np.zeros(grid.n, dtype=np.complex128)
    sel = (np.abs(fg.xs) >= lo) & (np.abs(fg.xs) <= hi)
    vals[sel] = rng.normal(size=int(sel.sum())) + 1j * rng.normal(size=int(sel.sum()))
    from oscillab.numerics import SpectralFunction

    return inverse_transform(SpectralFunction(fg, vals, grid))


class TestGrid:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 1000)

    def test_from_step_rounds_up(self):
        g = Grid.from_step(0.0, 1.0, 0.3)
        assert g.n == 8 and g.h <= 0.3

    def test_from_step_rejects_nan(self):
        # NaN fails every comparison, so a plain `max_step <= 0` test lets it through
        with pytest.raises(ValueError):
            Grid.from_step(0.0, 1.0, float("nan"))

    def test_samples(self):
        g = Grid(1.0, 2.0, 8)
        assert g.h == 0.5
        np.testing.assert_allclose(np.diff(g.xs), g.h)
        assert g.xs[0] == -1.0

    def test_dual_grid_step(self):
        g = Grid(0.0, 4.0, 64)
        fg = g.freq_grid()
        assert np.isclose(fg.h, 2 * np.pi / (g.n * g.h))


class TestForwardTransform:
    def test_gaussian_closed_form(self):
        g = Grid(0.0, 20.48, 4096)  # h = 0.01
        fh = forward_transform(gaussian(g))
        xs = fh.freq_grid.xs
        sel = np.abs(xs) <= 10.0
        exact = np.sqrt(2 * np.pi) * np.exp(-xs[sel] ** 2 / 2)
        err = np.max(np.abs(fh.values[sel] - exact)) / np.max(exact)
        assert err <= 1e-6

    def test_zero_maps_to_zero(self):
        g = Grid(0.0, 4.0, 128)
        fh = forward_transform(SampledFunction(g, np.zeros(g.n)))
        assert np.all(fh.values == 0)

    @given(st.integers(0, 10**6))
    def test_discrete_parseval(self, seed):
        g = Grid(0.0, 8.0, 512)
        f = random_band(g, seed)
        fh = forward_transform(f)
        lhs = g.h * np.sum(np.abs(f.values) ** 2)
        rhs = fh.freq_grid.h / (2 * np.pi) * np.sum(np.abs(fh.values) ** 2)
        if lhs > 0:
            assert abs(lhs - rhs) / lhs <= 1e-10

    @given(st.integers(0, 10**6))
    def test_round_trip(self, seed):
        g = Grid(0.5, 8.0, 512)
        f = random_band(g, seed)
        back = inverse_transform(forward_transform(f))
        scale = np.sqrt(g.h * np.sum(np.abs(f.values) ** 2)) or 1.0
        err = np.sqrt(g.h * np.sum(np.abs(back.values - f.values) ** 2))
        assert err <= 1e-10 * max(scale, 1.0)

    def test_tail_warning_flag(self):
        g = Grid(0.0, 4.0, 128)
        assert forward_transform(
            SampledFunction(g, np.ones(g.n))).tail_warning
        assert not forward_transform(gaussian(Grid(0.0, 16.0, 512))).tail_warning


class TestConvolve:
    def test_box_box_triangle(self):
        g = Grid(0.0, 8.0, 2048)
        box = SampledFunction.from_vectorized(
            g, lambda x: ((x >= 0) & (x <= 1)).astype(float))
        tri = convolve(box, box)
        expected = np.maximum(0.0, 1.0 - np.abs(g.xs - 1.0))
        assert np.max(np.abs(tri.values.real - expected)) <= g.h * (1 + 1e-9)
        assert abs(tri.values[g.index_of(1.0)].real - 1.0) <= g.h * (1 + 1e-9)

    def test_impulse_sifting(self):
        g = Grid(0.0, 8.0, 512)
        f = gaussian(g)
        j = g.index_of(1.5)
        shift = j - g.n // 2
        imp = np.zeros(g.n, dtype=complex)
        imp[j] = 1.0 / g.h
        out = convolve(f, SampledFunction(g, imp))
        expected = np.zeros(g.n, dtype=complex)
        expected[shift:] = f.values[:g.n - shift]  # samples entering from beyond the grid are zero
        assert np.max(np.abs(out.values - expected)) <= 1e-10

    @given(st.integers(0, 10**6))
    def test_fft_agrees_with_direct_quadrature(self, seed):
        g = Grid(0.0, 8.0, 256)
        f, h = random_band(g, seed, hi=6.0), random_band(g, seed + 1, hi=6.0)
        a = convolve(f, h)
        b = convolve_direct(f, h)
        scale = np.max(np.abs(b.values)) or 1.0
        assert np.max(np.abs(a.values - b.values)) <= 1e-8 * scale

    def test_commutative(self):
        g = Grid(0.0, 8.0, 256)
        f, h = random_band(g, 3, hi=6.0), random_band(g, 4, hi=6.0)
        a, b = convolve(f, h), convolve(h, f)
        scale = np.max(np.abs(a.values)) or 1.0
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale

    def test_linear_in_each_argument(self):
        g = Grid(0.0, 8.0, 256)
        f1, f2, h = (random_band(g, s, hi=6.0) for s in (5, 6, 7))
        lhs = convolve(SampledFunction(g, 2 * f1.values + f2.values), h)
        rhs = 2 * convolve(f1, h).values + convolve(f2, h).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_convolution_theorem(self):
        g = Grid(0.0, 32.0, 1024)
        f = SampledFunction.from_vectorized(g, lambda x: np.exp(-(x**2)))
        h = SampledFunction.from_vectorized(g, lambda x: np.exp(-((x - 1) ** 2)))
        lhs = forward_transform(convolve(f, h))
        rhs = forward_transform(f).values * forward_transform(h).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-9 * np.max(np.abs(rhs))

    def test_grid_mismatch(self):
        f = gaussian(Grid(0.0, 8.0, 256))
        h = gaussian(Grid(0.0, 8.0, 512))
        with pytest.raises(GridMismatch):
            convolve(f, h)


class TestNorms:
    def test_indicator_l3(self):
        g = Grid(0.0, 8.0, 2048)
        f = SampledFunction.from_vectorized(
            g, lambda x: ((x >= 0) & (x <= 1)).astype(float))
        assert abs(lp_norm(f, 3) - 1.0) <= g.h

    def test_exponential_l2(self):
        g = Grid(0.0, 32.768, 65536)  # h = 1e-3, covers [-20, 20] and beyond
        f = SampledFunction.from_vectorized(g, lambda x: np.exp(-np.abs(x)))
        assert abs(lp_norm(f, 2) - 1.0) <= 1e-4

    def test_sup_norm(self):
        g = Grid(0.0, 4.0, 64)
        f = SampledFunction.from_vectorized(g, lambda x: np.sin(x))
        assert lp_norm(f, np.inf) == np.max(np.abs(f.values))

    def test_weighted_l2_zero_weight(self):
        g = Grid(0.0, 4.0, 64)
        f = gaussian(g)
        assert weighted_l2(f, Weight(g, np.zeros(g.n))) == 0.0

    def test_p_below_one_rejected(self):
        g = Grid(0.0, 4.0, 64)
        with pytest.raises(ValueError):
            lp_norm(gaussian(g), 0.5)

    @given(st.integers(0, 10**6))
    def test_weight_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        g = Grid(0.0, 4.0, 128)
        f = gaussian(g)
        w1 = rng.uniform(0, 1, g.n)
        w2 = w1 + rng.uniform(0, 1, g.n)
        assert weighted_l2(f, Weight(g, w1)) <= weighted_l2(f, Weight(g, w2))

    def test_absolute_homogeneity(self):
        g = Grid(0.0, 4.0, 128)
        f = gaussian(g)
        two_f = SampledFunction(g, 2.0 * f.values)
        for p in (1, 2, 3, np.inf):
            assert np.isclose(lp_norm(two_f, p), 2.0 * lp_norm(f, p), rtol=1e-12)


class TestWeight:
    def test_nonnegativity_enforced(self):
        g = Grid(0.0, 4.0, 64)
        with pytest.raises(ValueError):
            Weight(g, np.full(g.n, -1.0))

    def test_values_immutable(self):
        g = Grid(0.0, 4.0, 64)
        w = Weight(g, np.ones(g.n))
        with pytest.raises(ValueError):
            w.values[0] = 2.0


class TestCsv:
    def test_weight_round_trip(self, tmp_path):
        g = Grid(0.0, 8.0, 128)
        w = Weight(g, np.abs(np.sin(g.xs)))
        path = str(tmp_path / "w.csv")
        save_weight_csv(w, path)
        back = load_weight_csv(path)
        np.testing.assert_allclose(back.values, w.values, atol=0)
