"""Maximal operators: closed forms, brute-force oracle equivalence, and the
structural properties (homogeneity, sublinearity, monotonicity, scaling).

Oracle comparisons are bitwise: the random weights take values on the
2^-12 lattice, so window sums are exact regardless of summation order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import _util, maximal
from oscillab._util import (cells, sliding_max_naive, snap_radius, standard_bump,
                            window_sums_naive)
from oscillab.errors import UnderResolved
from oscillab.maximal import (_eighth_octave_cells, approach_maximal,
                              approach_maximal_brute, approach_radii, bump_samples,
                              fractional_maximal, fractional_maximal_brute,
                              global_maximal, global_maximal_brute, global_radii,
                              hardy_littlewood, hardy_littlewood_brute,
                              operator_by_name, regular_maximal,
                              regular_maximal_brute, regular_radii)
from oscillab.numerics import Grid, Weight
from oscillab.verify import random_weight

from conftest import h1_atom, index_of
from test_util import reference_window_sums


def qweight(grid, seed):
    return random_weight(grid, np.random.default_rng(seed))


class TestHardyLittlewood:
    def test_indicator_closed_form(self):
        # Mw(x) = 1/(2x) for x > 1 when w = 1_[0,1]; the optimum r = x
        g = Grid(0.0, 8.0, 2048)
        w = Weight(g, ((g.xs >= 0) & (g.xs <= 1)).astype(float))
        mw = hardy_littlewood(w)
        assert abs(mw.values[index_of(g, 2.0)] - 0.25) <= 2 * g.h

    def test_constant_fixed_point(self):
        g = Grid(0.0, 4.0, 512)
        mw = hardy_littlewood(Weight(g, np.full(g.n, 3.0)))
        assert np.all(mw.values == 3.0)

    @given(st.integers(0, 10**6))
    def test_dominates_input(self, seed):
        g = Grid(0.0, 2.0, 512)
        w = qweight(g, seed)
        assert np.all(hardy_littlewood(w).values >= w.values)

    def test_dyadic_homogeneity_exact(self):
        g = Grid(0.0, 2.0, 512)
        w = qweight(g, 1)
        doubled = hardy_littlewood(Weight(g, 2.0 * w.values))
        assert np.array_equal(doubled.values, 2.0 * hardy_littlewood(w).values)

    @given(st.integers(0, 10**6))
    def test_general_homogeneity(self, seed):
        g = Grid(0.0, 2.0, 256)
        w = qweight(g, seed)
        c = 1.7
        scaled = hardy_littlewood(Weight(g, c * w.values))
        np.testing.assert_allclose(scaled.values, c * hardy_littlewood(w).values,
                                   rtol=1e-12)

    @given(st.integers(0, 10**6))
    def test_sublinear(self, seed):
        # exact in real arithmetic; the final division admits one rounding
        g = Grid(0.0, 2.0, 256)
        w1, w2 = qweight(g, seed), qweight(g, seed + 1)
        lhs = hardy_littlewood(Weight(g, w1.values + w2.values)).values
        rhs = hardy_littlewood(w1).values + hardy_littlewood(w2).values
        assert np.all(lhs <= rhs * (1 + 1e-14) + 1e-300)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10)
    def test_brute_force_bitexact(self, seed):
        g = Grid(0.0, 2.0, 1024)
        w = qweight(g, seed)
        assert np.array_equal(hardy_littlewood(w).values,
                              hardy_littlewood_brute(w).values)

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_rung_loop_off_lattice(self, k, seed):
        # frozen copy of the loop that rebuilt the prefix sum on every rung;
        # weights off the 2^-12 lattice make the comparison sensitive to
        # summation order
        g = Grid(0.0, 2.0, 1024)
        w = Weight(g, np.random.default_rng(seed).uniform(0.0, 2.0, g.n))
        vals = w.values
        ladder = _eighth_octave_cells(g.n)
        for _ in range(k):
            best = vals.copy()
            for s in ladder[1:]:
                np.maximum(best, reference_window_sums(vals, s) / (2 * s + 1), out=best)
            vals = best
        assert hardy_littlewood(w, k).values.tobytes() == vals.tobytes()

    def test_iteration_is_composition(self):
        g = Grid(0.0, 2.0, 512)
        w = qweight(g, 5)
        twice = hardy_littlewood(hardy_littlewood(w))
        assert np.array_equal(hardy_littlewood(w, 2).values, twice.values)

    def test_iterations_validated(self):
        g = Grid(0.0, 2.0, 64)
        with pytest.raises(ValueError):
            hardy_littlewood(Weight(g, np.ones(g.n)), 0)


class TestFractional:
    def test_single_cell_mass(self):
        g = Grid(0.0, 2.0, 512)
        vals = np.zeros(g.n)
        vals[g.n // 2] = 1.0
        for alpha in (0.25, 0.5, 0.75):
            m = fractional_maximal(Weight(g, vals), alpha)
            assert m.values[g.n // 2] == g.h**alpha

    def test_constant_grows_with_radius(self):
        g = Grid(0.0, 2.0, 1024)
        alpha = 0.5
        m = fractional_maximal(Weight(g, np.ones(g.n)), alpha)
        mid = g.n // 2
        # sup over radii of r^(alpha-1) * window mass, maximized near the
        # largest uncclamped window
        best = max((g.h * 2**t) ** (alpha - 1) * g.h * min(2 * (2**t - 1) + 1, g.n)
                   for t in range(12))
        assert m.values[mid] == pytest.approx(best, rel=1e-12)

    def test_homogeneity_exact(self):
        g = Grid(0.0, 2.0, 512)
        w = qweight(g, 2)
        m2 = fractional_maximal(Weight(g, 2.0 * w.values), 0.4)
        assert np.array_equal(m2.values, 2.0 * fractional_maximal(w, 0.4).values)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10)
    def test_brute_force_bitexact(self, seed):
        g = Grid(0.0, 2.0, 1024)
        w = qweight(g, seed)
        assert np.array_equal(fractional_maximal(w, 0.5).values,
                              fractional_maximal_brute(w, 0.5).values)

    def test_alpha_range(self):
        g = Grid(0.0, 2.0, 64)
        with pytest.raises(ValueError):
            fractional_maximal(Weight(g, np.ones(g.n)), 1.5)


class TestApproach:
    @pytest.mark.parametrize("ell,lam", [(3, 64.0), (2, 100.0)])
    def test_constant_weight_closed_form(self, ell, lam):
        g = Grid.from_step(0.0, 2.0, 1.0 / (16 * lam))
        m = approach_maximal(Weight(g, np.ones(g.n)), ell, lam)
        mid = g.n // 2
        assert not m.boundary[mid]
        assert abs(m.values[mid] / (2 * lam ** (-2.0 / ell)) - 1) <= 0.03

    def test_under_resolved(self):
        g = Grid(0.0, 2.0, 256)
        with pytest.raises(UnderResolved) as exc:
            approach_maximal(Weight(g, np.ones(g.n)), 3, 512.0)
        assert exc.value.min_step == 1.0 / (4 * 512.0)

    def test_spike_outside_reach_sees_nothing(self):
        lam = 32.0
        g = Grid.from_step(0.0, 8.0, 1.0 / (8 * lam))
        vals = np.zeros(g.n)
        vals[index_of(g, 6.0)] = 100.0  # beyond aperture + radius from the center
        m = approach_maximal(Weight(g, vals), 3, lam)
        assert m.values[g.n // 2] == 0.0

    @given(st.integers(0, 10**6))
    @settings(max_examples=8)
    def test_brute_force_bitexact(self, seed):
        g = Grid(0.0, 2.0, 1024)
        w = qweight(g, seed)
        assert np.array_equal(approach_maximal(w, 3, 32.0).values,
                              approach_maximal_brute(w, 3, 32.0).values)

    def test_monotone_in_ell_exact(self):
        for lam in (16.0, 64.0):
            g = Grid.from_step(0.0, 2.0, 1.0 / (8 * lam))
            w = qweight(g, 3)
            prev = None
            for ell in (2, 3, 4, 5):
                cur = approach_maximal(w, ell, lam).values
                if prev is not None:
                    assert np.all(prev <= cur)
                prev = cur

    def test_epsilon_rescaling_domination(self):
        lam = 64.0
        for eps in (2.0, 4.0):
            g = Grid.from_step(0.0, 3.0, 1.0 / (16 * eps * lam))
            w = qweight(g, 7)
            lhs = approach_maximal(w, 3, eps * lam).values
            rhs = approach_maximal(w, 3, lam).values
            assert np.all(lhs[rhs == 0] <= 1e-10)
            sel = rhs > 0
            c_eps = float(np.max(lhs[sel] / rhs[sel]))
            assert np.isfinite(c_eps)
            # at eps >= 1 the discrete regions nest, so the constant is modest
            assert c_eps <= 2.0

    def test_degenerate_lambda_single_radius(self):
        lam = 1.0
        assert 1.0 / lam == lam ** (-1.0 / 3)  # the range (1/lam, lam^(-1/ell)] is empty
        radii = approach_radii(3, 1.0, 1.0 / 256)
        assert len(radii) == 1
        g = Grid(0.0, 2.0, 1024)
        m = approach_maximal(Weight(g, np.ones(g.n)), 3, lam)
        assert np.isfinite(m.values).all()

    def test_lambda_below_one_rejected(self):
        with pytest.raises(ValueError):
            approach_maximal(Weight(Grid(0.0, 2.0, 256), np.ones(256)), 3, 0.5)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_lambda_not_finite_rejected(self, lam):
        w = Weight(Grid(0.0, 2.0, 256), np.ones(256))
        with pytest.raises(ValueError):
            approach_maximal(w, 3, lam)
        with pytest.raises(ValueError):
            regular_maximal(w, 3, lam=lam)

    def test_translation_covariance(self):
        lam = 32.0
        g = Grid.from_step(0.0, 4.0, 1.0 / (8 * lam))
        rng = np.random.default_rng(11)
        core = np.round(rng.uniform(0, 1, g.n // 8) * 4096) / 4096
        vals = np.zeros(g.n)
        start = g.n // 2 - len(core) // 2
        vals[start:start + len(core)] = core
        shift = g.n // 16
        a = approach_maximal(Weight(g, vals), 3, lam).values
        b = approach_maximal(Weight(g, np.roll(vals, shift)), 3, lam).values
        inner = slice(g.n // 4, 3 * g.n // 4)
        assert np.array_equal(np.roll(a, shift)[inner], b[inner])


class TestGlobal:
    def test_type_two_is_twice_the_sup(self):
        g = Grid(0.0, 2.0, 1024)
        w = qweight(g, 9)
        m = global_maximal(w, 2)
        np.testing.assert_allclose(m.values, 2.0 * np.max(w.values), rtol=1e-12)

    def test_zero_weight(self):
        g = Grid(0.0, 2.0, 256)
        assert np.all(global_maximal(Weight(g, np.zeros(g.n)), 3).values == 0.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=8)
    def test_brute_force_bitexact(self, seed):
        g = Grid(0.0, 2.0, 1024)
        w = qweight(g, seed)
        assert np.array_equal(global_maximal(w, 3).values,
                              global_maximal_brute(w, 3).values)


class TestRegular:
    def test_beta_zero_sup_bound(self):
        g = Grid(0.0, 2.0, 1024)
        w = qweight(g, 13)
        m = regular_maximal(w, 3, beta=0.0)
        bound = max(g.h * np.sum(bump_samples(g.h, r)) for r in regular_radii(3, 1.0, g.h))
        assert np.max(m.values) <= bound * np.max(w.values) * (1 + 1e-12)
        ts = np.linspace(-2.0, 2.0, 1 << 14)
        mass = np.trapezoid(standard_bump(ts / 2.0), ts)  # of P(t) = standard_bump(t/2)
        assert bound <= 1.05 * mass

    def test_dominates_approach_operator(self):
        lam, ell = 64.0, 3
        g = Grid.from_step(0.0, 2.0, 1.0 / (16 * lam))
        w = qweight(g, 17)
        c_p = np.exp(-4.0 / 3.0)  # min of P(t) = standard_bump(t/2) over [-1, 1]
        ma = approach_maximal(w, ell, lam).values
        mr = regular_maximal(w, ell, lam=lam).values
        assert np.all(ma <= (2.0 / c_p) * mr)

    def test_dilation_identity(self):
        ell, lam = 3, 256.0
        g1 = Grid.from_step(0.0, 1.0, 1.0 / (4 * lam))
        w = qweight(g1, 19)
        scale = lam ** (1.0 / ell)
        radii = regular_radii(ell, lam, g1.h)
        m_lam = regular_maximal(w, ell, lam=lam, radii=radii).values
        g2 = Grid(0.0, g1.half_width * scale, g1.n)
        m_one = regular_maximal(Weight(g2, w.values), ell, lam=1.0,
                                radii=[r * scale for r in radii]).values
        rhs = lam ** (-2.0 / ell) * m_one
        assert np.max(np.abs(m_lam - rhs)) <= 0.02 * np.max(rhs)

    @given(st.integers(0, 10**6))
    @settings(max_examples=5)
    def test_brute_force_bitexact(self, seed):
        g = Grid(0.0, 2.0, 1024)
        w = qweight(g, seed)
        fast = regular_maximal(w, 3, lam=32.0)
        brute = regular_maximal_brute(w, 3, lam=32.0)
        assert np.array_equal(fast.values, brute.values)

    def test_bump_wider_than_grid_falls_back_to_direct(self):
        # above n = 4096 the rungs convolve by FFT, but the kernel embedding
        # cannot hold a bump wider than the grid window; those rungs must
        # take the direct path bit for bit, the others agree to rounding
        g = Grid(0.0, 1.0, 8192)
        w = qweight(g, 29)
        radii = regular_radii(3, 1.0, g.h)
        wide = [cells(2.0 * r, g.h) >= g.n // 2 for r in radii]
        assert any(wide) and not all(wide)
        fft = maximal._bump_convolutions(w.values, g, radii, fft=True)
        direct = maximal._bump_convolutions(w.values, g, radii, fft=False)
        for over, a, b in zip(wide, fft, direct):
            if over:
                assert a.tobytes() == b.tobytes()
            else:
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(b)

    def test_signed_input_allowed(self):
        g = Grid(0.0, 8.0, 2048)
        atom = h1_atom(g, 0.5)
        m = regular_maximal(atom, 3, beta=1.0)
        assert np.all(m.values >= 0.0)
        assert np.max(m.values) > 0.0

    def test_exactly_one_form(self):
        g = Grid(0.0, 2.0, 256)
        w = Weight(g, np.ones(g.n))
        with pytest.raises(ValueError):
            regular_maximal(w, 3)
        with pytest.raises(ValueError):
            regular_maximal(w, 3, lam=4.0, beta=0.5)

    def test_bump_profile_constants(self):
        # P_r = (1/r) P(x/r) with P(t) = standard_bump(t/2): positive on
        # (-2r, 2r), at least c_p / r on [-r, r], where c_p = P(1) = exp(-4/3)
        c_p = np.exp(-4.0 / 3.0)
        h = 2.0 ** -9
        for r in (1.0, 0.5):
            offs = np.arange(-cells(2.0 * r, h), cells(2.0 * r, h) + 1) * h
            pr = bump_samples(h, r)
            assert pr.shape == offs.shape and np.all(pr >= 0.0)
            assert np.all(pr[np.abs(offs) <= r] >= c_p / r)
            assert pr[np.abs(offs) == r] == pytest.approx(c_p / r)
            assert np.all(pr[(np.abs(offs) < 2.0 * r)] > 0.0)
            assert pr[0] == pr[-1] == 0.0


class TestOracleIndependence:
    """The oracles share their operator's body; the naive switch must route
    them through the naive primitives only, and the fast forms never."""

    BRUTE = [lambda w: approach_maximal_brute(w, 3, 32.0),
             lambda w: global_maximal_brute(w, 3),
             lambda w: regular_maximal_brute(w, 3, lam=32.0),
             lambda w: regular_maximal_brute(w, 3, beta=0.5)]
    FAST = [lambda w: approach_maximal(w, 3, 32.0),
            lambda w: global_maximal(w, 3),
            lambda w: regular_maximal(w, 3, lam=32.0),
            lambda w: regular_maximal(w, 3, beta=0.5)]

    # the fast forms take no sliding maximum at all: their region suprema are
    # one doubling cascade; "_util." names are patched in oscillab._util
    @pytest.mark.parametrize("forbidden, ops", [
        (("sliding_max_ladder", "window_sum_ladder", "_util.sliding_max"), BRUTE),
        (("sliding_max_ladder_naive", "window_sums_naive", "_util.sliding_max",
          "_util.sliding_max_naive"), FAST),
    ], ids=["brute", "fast"])
    def test_primitives_not_crossed(self, forbidden, ops, monkeypatch):
        def forbidden_call(*args, **kwargs):
            raise AssertionError("primitive of the other path called")

        for name in forbidden:
            module, _, attr = name.rpartition(".")
            monkeypatch.setattr(_util if module else maximal, attr, forbidden_call)
        g = Grid(0.0, 2.0, 1024)
        w = qweight(g, 31)
        for op in ops:
            assert op(w).values.shape == (g.n,)

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_merged_ladder_is_the_rung_by_rung_supremum_bitwise(self, ell):
        # the fast forms merge the rows of the whole ladder in one doubling
        # cascade, so each is checked here against the supremum taken rung by
        # rung; the regular rows are the direct bump convolutions, as the fast
        # form takes them up to n = 4096
        g = Grid(0.0, 2.0, 1024)
        w = qweight(g, 37)
        e = 1.0 / (ell - 1)

        def window_row(r, scale):
            return window_sums_naive(w.values, cells(r, g.h)) * (scale(r) * g.h)

        def bump_row(r, factor):
            k = cells(2.0 * r, g.h)
            conv = g.h * np.abs(np.convolve(w.values, bump_samples(g.h, r))[k:k + g.n])
            return conv * factor(r)

        approach = lambda r: (32.0 * r) ** (-e)
        top = lambda r: r ** (-e)
        cases = [
            (approach_maximal(w, ell, 32.0), approach_radii(ell, 32.0, g.h),
             lambda r: window_row(r, approach), approach),
            (global_maximal(w, ell), global_radii(g.h), lambda r: window_row(r, top), top),
            (regular_maximal(w, ell, lam=32.0), regular_radii(ell, 32.0, g.h),
             lambda r: bump_row(r, lambda r: r * approach(r)), approach),
            (regular_maximal(w, ell, beta=0.5), regular_radii(ell, 1.0, g.h),
             lambda r: bump_row(r, lambda r: r ** (ell * 0.5 * e)), top),
        ]
        for out, radii, row_of, aperture in cases:
            best = np.full(g.n, -np.inf)
            for r in radii:
                best = np.maximum(best, sliding_max_naive(row_of(r), cells(aperture(r), g.h)))
            assert out.values.tobytes() == best.tobytes()

    # the cascade's edges: one rung; equal consecutive apertures; t = 0; a right
    # block that starts left of x (t = 2, 5, 6: 2^J > t + 1); t >= n - 1 and
    # t > 2n, which size the buffer from t clamped at n - 1
    LADDERS = {
        "single": lambda n: [5],
        "single-third": lambda n: [n // 3],
        "equal": lambda n: [7, 7, 3, 3, 3, 0],
        "zero": lambda n: [0],
        "right-block-left-of-x": lambda n: [6, 5, 2, 2],
        "all-shapes": lambda n: [n // 2, 12, 9, 8, 4, 3, 1, 1, 0],
        "saturated": lambda n: [n - 1, n - 1, n // 2, 3],
        "beyond-grid": lambda n: [2 * n + 1, n, n - 2, 1],
        "far-beyond-grid": lambda n: [64 * n, 64 * n, 2],
    }

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("ladder", list(LADDERS))
    @pytest.mark.parametrize("naive", [False, True], ids=["fast", "brute"])
    def test_region_sup_is_the_rung_by_rung_maximum_bitwise(self, n, ladder, naive):
        ts = self.LADDERS[ladder](n)
        g = Grid(0.0, 2.0, n)
        rng = np.random.default_rng(n + len(ts))
        rows = [rng.random(n) * 4.0 for _ in ts]
        want = np.full(n, -np.inf)
        for row, t in zip(rows, ts):
            # a window of 3n cells already covers the grid from every cell
            want = np.maximum(want, sliding_max_naive(row, min(t, 3 * n)))
        radii = list(range(len(ts)))
        out = maximal._region_sup(g, radii, iter([(row.copy(), 0) for row in rows]),
                                  lambda r: 1.0, lambda r: ts[r] * g.h, naive=naive)
        assert out.values.tobytes() == want.tobytes()
        assert out.boundary.tobytes() == _util.boundary_mask(n, max(ts)).tobytes()

    def test_growing_aperture_is_refused(self):
        g = Grid(0.0, 2.0, 64)
        rows = [(np.ones(g.n), 0), (np.ones(g.n), 0)]
        with pytest.raises(ValueError, match="must not grow"):
            maximal._region_sup(g, [0.1, 0.2], iter(rows), lambda r: 1.0, lambda r: r,
                                naive=False)


# One (ell, lam) contract for the region operators, fast and brute alike;
# the global operators take no lam, so only ell can be wrong there.
REGION_OPERATORS = {
    "approach": approach_maximal,
    "approach-brute": approach_maximal_brute,
    "global": lambda w, ell, lam: global_maximal(w, ell),
    "global-brute": lambda w, ell, lam: global_maximal_brute(w, ell),
    "regular": lambda w, ell, lam: regular_maximal(w, ell, lam=lam),
    "regular-brute": lambda w, ell, lam: regular_maximal_brute(w, ell, lam=lam),
}
BAD_REGIONS = {"ell=1": (1, 64.0, "ell = 1 is below 2"),
               "lam=0.5": (3, 0.5, "lambda 0.5 is below 1: lam must be finite and >= 1"),
               "lam=nan": (3, float("nan"),
                           "lambda nan is not finite: lam must be finite and >= 1"),
               "lam=inf": (3, float("inf"),
                           "lambda inf is not finite: lam must be finite and >= 1")}


@pytest.mark.parametrize("op, bad", [
    pytest.param(op, bad, id=f"{op}-{bad}") for op in REGION_OPERATORS for bad in BAD_REGIONS
    if bad == "ell=1" or not op.startswith("global")])
def test_region_operators_share_one_contract(op, bad):
    ell, lam, message = BAD_REGIONS[bad]
    w = Weight(Grid(0.0, 2.0, 1024), np.ones(1024))
    with pytest.raises(ValueError) as info:
        REGION_OPERATORS[op](w, ell, lam)
    assert str(info.value) == message


def reference_approach_radii(ell, lam, h):
    """The approach ladder as its own half-octave loop, before the one ladder."""
    top = lam ** (-1.0 / ell)
    raw = [top]
    j = 1
    while True:
        r = (2.0 ** (j / 2.0)) / lam
        if r >= top * (1.0 - 1e-12):
            break
        raw.append(r)
        j += 1
    snapped = {snap_radius(r, h) for r in raw}
    return sorted(r for r in snapped if r > 1.0 / lam)


def reference_regular_radii(ell, lam, h):
    top = lam ** (-1.0 / ell)
    raw = []
    j = 0
    while True:
        r = (2.0 ** (-j / 2.0)) / lam
        if r < h / 2.0:
            break
        if r < top * (1.0 - 1e-12):
            raw.append(r)
        j += 1
    snapped = {snap_radius(r, h) for r in raw}
    return sorted(snapped | set(reference_approach_radii(ell, lam, h)))


def reference_global_radii(h):
    raw = []
    j = 0
    while True:
        r = 2.0 ** (-j / 2.0)
        if r < h / 2.0:
            break
        raw.append(r)
        j += 1
    raw.append(h / 2.0)
    return sorted({snap_radius(r, h) for r in raw})


class TestRadiusLadders:
    """The three radius sets come from one half-octave ladder, and equal the
    three loops they replace, list for list."""

    @pytest.mark.parametrize("ell", [2, 3, 4, 6])
    def test_approach_and_regular_equal_the_reference_loops(self, ell):
        for lam in (1.0, 1.5, 2.0, 3.0, 16.0, 100.0, 1024.0, 12345.0):
            # steps at the approach operator's limit 1/(4 lam), finer, and coarse
            # ones that are not powers of two (at lam = 1 they all exceed 1/lam)
            for h in (1.0 / (4.0 * lam), 1.0 / (16.0 * lam), 0.7 / lam, 2.0**-12, 1e-3, 0.01,
                      1.0 / 3.0, 0.3):
                assert approach_radii(ell, lam, h) == reference_approach_radii(ell, lam, h)
                assert regular_radii(ell, lam, h) == reference_regular_radii(ell, lam, h)

    def test_global_equals_the_reference_loop(self):
        for h in [2.0**-k for k in range(16)] + [1e-3, 0.07, 0.3, 1.0 / 3.0, 1.7, 5.0]:
            assert global_radii(h) == reference_global_radii(h)


class TestOperatorByName:
    @pytest.mark.parametrize("name", ["M", "Mk:2", "Malpha:0.5", "Mll:3:64",
                                      "Mtilde:3", "Mreg:3:64", "Mbeta:3:1.0"])
    def test_dispatch(self, name):
        lam = 64.0
        g = Grid.from_step(0.0, 2.0, 1.0 / (16 * lam))
        w = qweight(g, 23)
        out = operator_by_name(name)(w)
        assert out.grid == g
        assert np.all(out.values >= 0.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            operator_by_name("Mfoo:1")

    def test_iterated_within_budget_is_the_iterate(self):
        w = qweight(Grid(0.0, 2.0, 4096), 24)
        got = operator_by_name("Mk:4")(w)
        assert got.values.tobytes() == maximal.hardy_littlewood(w, 4).values.tobytes()

    def test_iterated_budget_edge(self, monkeypatch):
        # K * n may reach MAX_ITERATED_CELLS; one more pass is refused before the first
        passes = []
        monkeypatch.setattr(maximal, "hardy_littlewood", lambda w, k: passes.append(k) or w)
        w = Weight(Grid(0.0, 2.0, 4096), np.ones(4096))
        k = maximal.MAX_ITERATED_CELLS // 4096
        operator_by_name(f"Mk:{k}")(w)
        with pytest.raises(ValueError, match="budget MAX_ITERATED_CELLS"):
            operator_by_name(f"Mk:{k + 1}")(w)
        assert passes == [k]
