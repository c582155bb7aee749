"""Frequency decompositions: telescoping, partitions of unity, annuli
coverage, and the dominating weight chain."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import lpaley
from oscillab.errors import BadBand, CoverageGap
from oscillab.lpaley import (_BLOCK_SAMPLES, AnnuliIndex, DyadicFamily, SpacedFamily,
                             _energy_bounds, _spaced_blocks, _support_width, _theta_samples,
                             _translate_support,
                             annuli_project, band_limited_mollifier, dominating_weights,
                             dyadic_pieces, spaced_energy, spaced_pieces, square_function)
from oscillab.numerics import (Grid, SampledFunction, SpectralFunction,
                               Weight, forward_transform, inverse_transform,
                               lp_norm, restrict, smoothing_majorant, weighted_l2)
from oscillab.verify import lp_checks, random_band_function, random_weight, spaced_ratio

GRID = Grid(0.0, 16.0, 4096)
FAM = DyadicFamily(-2, 8)


def translate_hat(fam, k, xi):
    """The k-th translate W^_L(xi - kL) of the family's window."""
    return fam.window_hat(np.asarray(xi, dtype=float) - k * fam.L)


def mollifier_weight(w, scale):
    """w1 = ||Phi_s||_1 * (|Phi_s| * w) at the given scale, as dominating_weights forms it."""
    phi = band_limited_mollifier(w.grid, scale)
    return Weight(w.grid, lp_norm(phi, 1) * smoothing_majorant(phi, w).values)


def band_limited(seed, lo=0.5, hi=128.0, grid=GRID):
    return random_band_function(grid, np.random.default_rng(seed), lo, hi)


class TestDyadicFamily:
    def test_telescoping_sum_is_one(self):
        fg = GRID.freq_grid()
        xs = fg.xs
        covered = FAM.covered(xs)
        assert covered.any()
        dev = np.max(np.abs(FAM.band_sum(xs[covered]) - 1.0))
        assert dev <= 1e-12

    def test_multipliers_unit_interval(self):
        xs = GRID.freq_grid().xs
        for k in FAM.bands:
            m = FAM.multiplier(k, xs)
            assert np.all(m >= -1e-15) and np.all(m <= 1.0 + 1e-15)

    def test_multiplier_support_octave(self):
        xs = np.linspace(-600, 600, 20001)
        for k in (0, 3):
            m = FAM.multiplier(k, xs)
            outside = (np.abs(xs) < 2.0 ** (k - 1)) | (np.abs(xs) > 2.0 ** (k + 1))
            assert np.all(m[outside] == 0.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10)
    def test_reconstruction(self, seed):
        f = band_limited(seed)
        pieces = dyadic_pieces(f, FAM)
        recon = sum(p.values for p in pieces)
        scale = np.max(np.abs(f.values)) or 1.0
        assert np.max(np.abs(recon - f.values)) <= 1e-8 * scale

    def test_single_octave_band_gives_two_pieces(self):
        f = band_limited(3, lo=8.0, hi=16.0)  # inside [2^3, 2^4]
        pieces = dyadic_pieces(f, FAM)
        norms = [lp_norm(p, 2) for p in pieces]
        total = lp_norm(f, 2)
        nonzero = sum(1 for v in norms if v > 1e-10 * total)
        assert nonzero <= 2

    def test_zero_input(self):
        f = SampledFunction(GRID, np.zeros(GRID.n))
        pieces = dyadic_pieces(f, FAM)
        assert all(np.all(p.values == 0) for p in pieces)
        assert np.all(square_function(pieces).values == 0)

    def test_square_function_energy_window(self):
        for seed in range(5):
            f = band_limited(seed)
            ratio = (lp_norm(square_function(dyadic_pieces(f, FAM)), 2)
                     / lp_norm(f, 2)) ** 2
            assert 1.0 / 3.0 - 0.05 <= ratio <= 1.05

    def test_square_function_nonnegative(self):
        sf = square_function(dyadic_pieces(band_limited(9), FAM))
        assert np.all(sf.values.real >= 0.0)
        assert np.max(np.abs(sf.values.imag)) == 0.0

    def test_coverage_gap(self):
        narrow = DyadicFamily(2, 5)
        with pytest.raises(CoverageGap):
            dyadic_pieces(band_limited(1, lo=0.5, hi=128.0), narrow)

    def test_commutes_with_grid_translation(self):
        # frequency multipliers are translation-invariant modulo the grid
        f = band_limited(8)
        shift = 64
        shifted = SampledFunction(GRID, np.roll(f.values, shift))
        direct = dyadic_pieces(shifted, FAM)
        rolled = [np.roll(p.values, shift) for p in dyadic_pieces(f, FAM)]
        scale = np.max(np.abs(f.values))
        for a, b in zip(direct, rolled):
            assert np.max(np.abs(a.values - b)) <= 1e-9 * scale


class TestSpacedFamily:
    @pytest.mark.parametrize("L", [0.125, 1.0, 8.0])
    def test_partition_of_unity(self, L):
        fam = SpacedFamily(L)
        xs = GRID.freq_grid().xs
        total = sum(translate_hat(fam, k, xs) for k in fam.k_range(GRID.freq_grid()))
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_window_support(self):
        fam = SpacedFamily(2.0)
        xs = np.linspace(-20, 20, 4001)
        vals = fam.window_hat(xs)
        assert np.all(vals[np.abs(xs) >= 2 * fam.L] == 0.0)

    def test_reconstruction(self):
        fam = SpacedFamily(1.0)
        f = band_limited(5, lo=0.0, hi=100.0)
        pieces = spaced_pieces(f, fam)
        recon = sum(p.values for p in pieces)
        assert np.max(np.abs(recon - f.values)) <= 1e-10 * np.max(np.abs(f.values))

    def test_piece_locality(self):
        # input spectrum inside [(k0-1)L, (k0+1)L]: only k0-2..k0+2 survive
        fam = SpacedFamily(4.0)
        k0 = 5
        fg = GRID.freq_grid()
        vals = np.zeros(GRID.n, dtype=np.complex128)
        sel = (fg.xs >= (k0 - 1) * fam.L) & (fg.xs <= (k0 + 1) * fam.L)
        vals[sel] = 1.0
        f = inverse_transform(SpectralFunction(GRID, vals))
        pieces = spaced_pieces(f, fam)
        ks = list(fam.k_range(fg))
        total = lp_norm(f, 2)
        for k, piece in zip(ks, pieces):
            if abs(k - k0) > 2:
                assert lp_norm(piece, 2) <= 1e-12 * total

    def test_decay_constants_recorded(self):
        grid = Grid(0.0, 32.0, 8192)
        for L in (0.125, 1.0, 8.0):
            fam = SpacedFamily(L)
            for N in (2, 4):
                c = fam.decay_constant(grid, N)
                assert np.isfinite(c) and c > 0

    def test_weighted_piece_energy_bound(self):
        # sum_k integral |f_k|^2 w bounded by the |W_L| * w smoothing
        from oscillab.numerics import convolve

        fam = SpacedFamily(1.0)
        rng = np.random.default_rng(12)
        constants = []
        f = band_limited(21, lo=0.0, hi=100.0)
        w = random_weight(GRID, rng)
        wl = fam.spatial_window(GRID)
        conv = convolve(SampledFunction(GRID, np.abs(wl.values).astype(np.complex128)),
                        SampledFunction(GRID, w.values))
        rhs = float(GRID.h * np.sum(np.abs(f.values) ** 2
                                    * np.maximum(conv.values.real, 0.0)))
        lhs = sum(weighted_l2(p, w) for p in spaced_pieces(f, fam))
        constants.append(lhs / rhs)
        assert all(np.isfinite(c) for c in constants)

    def test_spacing_positive(self):
        with pytest.raises(ValueError):
            SpacedFamily(0.0)

    # the spacings of check-lp and of the frozen spaced constants; 100.0 makes
    # fewer pieces than one block, and no count here is a multiple of the block
    @pytest.mark.parametrize("grid, L", [
        (GRID, 0.125), (GRID, 0.5), (GRID, 2.0), (GRID, 8.0), (GRID, 100.0),
        (Grid(0.0, 32.0, 8192), 0.125), (Grid(0.0, 32.0, 8192), 1.0),
        (Grid(0.0, 32.0, 8192), 8.0)])
    def test_energy_is_the_piece_sum_bitwise(self, grid, L):
        fam = SpacedFamily(L)
        rng = np.random.default_rng(int(8 * L))
        f = random_band_function(grid, rng, 0.0, 60.0)
        w = random_weight(grid, rng)
        pieces = spaced_pieces(f, fam)
        assert len(pieces) % (_BLOCK_SAMPLES // grid.n) != 0
        assert spaced_energy(f, w, fam) == sum(weighted_l2(p, w) for p in pieces)

    # at 5e307 every window is the whole grid, and 2L overflows
    @pytest.mark.parametrize("L", [0.125, 0.5, 2.0, 8.0, 100.0, 5e307])
    def test_support_slices_are_the_translates_bitwise(self, L):
        fam = SpacedFamily(L)
        fg = GRID.freq_grid()
        ks = np.array(fam.k_range(fg))
        idx, mult = _translate_support(fam, fg, ks)
        full = np.zeros((len(ks), fg.n))
        np.put_along_axis(full, idx, mult, axis=-1)
        for k, row in zip(ks, full):
            assert row.tobytes() == translate_hat(fam, int(k), fg.xs).tobytes()

    @pytest.mark.parametrize("L", [0.5, 8.0])
    def test_pieces_are_the_restrictions_bitwise(self, L):
        fam = SpacedFamily(L)
        f = band_limited(9, lo=0.0, hi=100.0)
        fhat = forward_transform(f)
        xs = fhat.freq_grid.xs
        pieces = spaced_pieces(f, fam)
        assert len(pieces) == len(fam.k_range(fhat.freq_grid))
        for k, piece in zip(fam.k_range(fhat.freq_grid), pieces):
            expected = restrict(fhat, translate_hat(fam, k, xs))
            assert piece.values.tobytes() == expected.values.tobytes()

    # Every piece against the dense transform of its full spectrum, off centre,
    # where the phase is not trivial; the dual grid reaches about 100 at every n.
    # From L = 1e3 each window is the whole grid, and a block of rows passes
    # numpy's 256 KiB threshold for reusing a temporary in place.
    @pytest.mark.parametrize("center", [3.0, -7.5])
    @pytest.mark.parametrize("n", [32, 1024, 4096, 8192])
    @pytest.mark.parametrize("L", [0.125, 0.7, 3.0, 1e3, 5e307])
    def test_block_rows_are_the_dense_inverse_bitwise(self, center, n, L):
        g = Grid(center, n / 64.0, n)
        fam = SpacedFamily(L)
        rng = np.random.default_rng(n)
        f = SampledFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        fhat = forward_transform(f)
        xs = fhat.freq_grid.xs
        rows = np.concatenate([b.copy() for b in _spaced_blocks(f, fam)])
        ks = fam.k_range(fhat.freq_grid)
        assert len(rows) == len(ks)
        for k, row in zip(ks, rows):
            dense = inverse_transform(SpectralFunction(g, fhat.values * translate_hat(fam, k, xs)))
            assert row.tobytes() == dense.values.tobytes()

    # At n = 2^17 and L = 1e3 each of the 7 windows is the whole grid, so one
    # window fills the _BLOCK_SAMPLES budget. Evaluated one at a time, with each
    # block's support dropped before the next window, the traced peak is 10.6
    # complex grid arrays; holding the last block's, 14.1; all 7 at once, 38.4.
    def test_energy_evaluates_one_budget_of_windows_at_a_time(self):
        n = 2**17
        grid = Grid(0.0, n / 64.0, n)
        fam = SpacedFamily(1e3)
        fg = grid.freq_grid()
        assert _support_width(fam, fg) == n and len(fam.k_range(fg)) == 7
        rng = np.random.default_rng(17)
        f = random_band_function(grid, rng, 0.0, 60.0)
        w = random_weight(grid, rng)
        spaced_energy(f, w, fam)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            spaced_energy(f, w, fam)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 11 * 16 * n

    def test_piece_budget(self):
        # 6,439 pieces is the most any run makes; L = 1e-6 would be about 8e8
        # full-grid pieces, and the smallest float spacing an infinite count
        assert len(SpacedFamily(0.125).k_range(Grid(0.0, 32.0, 8192).freq_grid())) == 6439
        for L in (1e-6, 5e-324):
            with pytest.raises(ValueError, match="MAX_PIECES"):
                SpacedFamily(L).k_range(GRID.freq_grid())


def k_order_sum(f, w, fam):
    """The weighted_l2 of every piece of spaced_pieces, added left to right in k
    order, row by row so that no list of pieces is held."""
    total = 0.0
    for e in piece_energies(f, w, fam):
        total += e
    return total


def piece_energies(f, w, fam):
    return [weighted_l2(SampledFunction(f.grid, row), w)
            for rows in _spaced_blocks(f, fam) for row in rows]


def bits(x):
    return np.float64(x).tobytes()


@pytest.fixture
def inverted(monkeypatch):
    """The row count of each block that lpaley inverts from here on."""
    counts, real = [], lpaley._support_rows

    def counting(g, supports):
        for rows in real(g, supports):
            counts.append(len(rows))
            yield rows

    monkeypatch.setattr(lpaley, "_support_rows", counting)
    return counts


def bounds_of(f, w, fam):
    fhat = forward_transform(f)
    return _energy_bounds(fhat, w, fam, np.array(fam.k_range(fhat.freq_grid)))


class TestSpacedEnergyPruning:
    # spaced_energy inverts only the pieces whose energy can change a bit of the
    # sum; every other piece's skip is proven from its bound, so the sum is the
    # full one bit for bit. The grids are those of the block-rows test.
    @pytest.mark.parametrize("hi", [60.0, 128.0])
    @pytest.mark.parametrize("n", [32, 1024, 4096, 8192])
    @pytest.mark.parametrize("L", [0.125, 0.5, 2.0, 8.0, 100.0, 1e3, 5e307])
    def test_energy_is_the_k_order_sum_bitwise(self, L, n, hi):
        g = Grid(3.0, n / 64.0, n)
        fam = SpacedFamily(L)
        rng = np.random.default_rng(n + int(hi))
        f = random_band_function(g, rng, 0.0, hi)
        w = random_weight(g, rng)
        assert bits(spaced_energy(f, w, fam)) == bits(k_order_sum(f, w, fam))

    def test_every_piece_with_signal_is_inverted(self, inverted):
        # white noise fills the dual grid, so every piece whose window meets it
        # is significant; the rest are exactly 0
        rng = np.random.default_rng(11)
        f = SampledFunction(GRID, rng.standard_normal(GRID.n) + 1j * rng.standard_normal(GRID.n))
        w = random_weight(GRID, rng)
        fam = SpacedFamily(8.0)
        energy = spaced_energy(f, w, fam)
        fg = GRID.freq_grid()
        mult = _translate_support(fam, fg, np.array(fam.k_range(fg)))[1]
        assert sum(inverted) == np.count_nonzero(np.any(mult != 0.0, axis=-1))
        assert bits(energy) == bits(k_order_sum(f, w, fam))

    @pytest.mark.parametrize("case", ["zero-f", "zero-w", "spike-w", "nan-f"])
    def test_degenerate_inputs_bitwise(self, case):
        rng = np.random.default_rng(12)
        f = band_limited(12)
        w = random_weight(GRID, rng)
        if case == "zero-f":
            f = SampledFunction(GRID, np.zeros(GRID.n))
        elif case == "zero-w":
            w = Weight(GRID, np.zeros(GRID.n))
        elif case == "spike-w":
            w = Weight(GRID, 3.0 * (np.arange(GRID.n) == 1000))
        else:
            vals = f.values.copy()
            vals[77] = np.nan
            f = SampledFunction(GRID, vals)
        fam = SpacedFamily(0.5)
        energy = spaced_energy(f, w, fam)
        assert bits(energy) == bits(k_order_sum(f, w, fam))
        assert (case == "nan-f") == math.isnan(energy)

    def test_failed_head_check_inverts_the_head(self, inverted):
        # a faint line 2^-28 below a strong one, a few samples to its left: the
        # first significant piece sees only the faint line, and the roundoff of
        # the pieces before it outweighs ulp/2 of its energy, so they are inverted
        fg = GRID.freq_grid()
        vals = np.zeros(GRID.n, dtype=np.complex128)
        j = int(np.argmin(np.abs(fg.xs + 200.0)))
        vals[j], vals[j + 6] = 2.0**-28, 1.0
        f = inverse_transform(SpectralFunction(GRID, vals))
        w = random_weight(GRID, np.random.default_rng(13))
        fam = SpacedFamily(0.5)
        energy = spaced_energy(f, w, fam)
        count = sum(inverted)
        bounds = bounds_of(f, w, fam)
        significant = bounds >= 2.0**-60 * np.max(bounds)
        first = int(np.argmax(significant))
        energies = piece_energies(f, w, fam)
        assert first > 0 and 2.0 * np.sum(bounds[:first]) >= math.ulp(energies[first]) / 2
        assert count == first + np.count_nonzero(significant)
        assert bits(energy) == bits(k_order_sum(f, w, fam))

    @staticmethod
    def lines(*amps_at):
        """The function whose spectrum on GRID is amp at the sample nearest each xi."""
        xs = GRID.freq_grid().xs
        vals = np.zeros(GRID.n, dtype=np.complex128)
        for amp, xi in amps_at:
            vals[int(np.argmin(np.abs(xs - xi)))] = amp
        return inverse_transform(SpectralFunction(GRID, vals))

    # A faint line far left of a strong one leaves the sum tiny across the
    # roundoff between them, so there the skip is refused and the run inverted.
    @pytest.mark.parametrize("case", ["band-128", "faint-then-strong", "strong-then-faint"])
    def test_every_skipped_piece_is_proven(self, case, monkeypatch):
        fam = SpacedFamily(0.5)
        w = random_weight(GRID, np.random.default_rng(16))
        f = {"band-128": lambda: band_limited(16, lo=0.0),
             "faint-then-strong": lambda: self.lines((2.0**-28, -200.0), (1.0, 200.0)),
             "strong-then-faint": lambda: self.lines((1.0, -200.0), (2.0**-28, 200.0))}[case]()
        calls, real = [], lpaley._spaced_supports
        monkeypatch.setattr(lpaley, "_spaced_supports",
                            lambda fhat, fam, ks: calls.append(ks) or real(fhat, fam, ks))
        energy = spaced_energy(f, w, fam)
        monkeypatch.undo()
        ks = np.array(fam.k_range(GRID.freq_grid()))
        assert np.array_equal(calls[0], ks)  # the bounds, then the inverted pieces
        inverted = set((np.concatenate(calls[1:]) - ks[0]).tolist())
        energies, bounds = piece_energies(f, w, fam), bounds_of(f, w, fam)
        first = next(i for i, e in enumerate(energies) if i in inverted and e > 0.0)
        head = [i for i in range(first) if i not in inverted]
        assert 2.0 * np.sum(bounds[head]) < math.ulp(energies[first]) / 2
        total = 0.0
        for i, e in enumerate(energies):
            if i > first and i not in inverted:
                assert total > 0.0 and bounds[i] < math.ulp(total) / 2
            total += e
        assert bits(energy) == bits(total)
        assert len(inverted) > (len(ks) // 2 if case == "faint-then-strong" else 0)

    # E_k <= B_k / 2 for a varying weight; for w = 1 Parseval makes the bound
    # sharp, so 2 E_k / B_k is 1 up to rounding and the factor 2 is all margin
    @pytest.mark.parametrize("L", [0.125, 2.0])
    def test_bounds_are_twice_the_energies(self, L):
        fam = SpacedFamily(L)
        rng = np.random.default_rng(14)
        for f, w in [(band_limited(14, lo=0.0), random_weight(GRID, rng)),
                     (band_limited(15, lo=0.0), Weight(GRID, np.arange(GRID.n) == 2000))]:
            energies = np.array(piece_energies(f, w, fam))
            assert np.all(energies <= bounds_of(f, w, fam) / 2)
        f, w = band_limited(16, lo=0.0), Weight(GRID, np.ones(GRID.n))
        energies, bounds = np.array(piece_energies(f, w, fam)), bounds_of(f, w, fam)
        lit = energies > 0.0
        assert np.count_nonzero(lit) > 0.99 * len(energies)
        assert np.all(np.abs(2.0 * energies[lit] / bounds[lit] - 1.0) <= 2.0**-40)

    def test_check_lp_inverts_under_40_percent_at_L_eighth(self, inverted):
        # check-lp's L = 0.125 sample (seed 0, 8 square pairs first): f has
        # |xi| <= 128 on a dual grid reaching 402, so most of the 6,439 pieces
        # carry only roundoff
        lp_checks(FAM, [SpacedFamily(0.125)], 8, 0)
        assert len(SpacedFamily(0.125).k_range(GRID.freq_grid())) == 6439
        assert sum(inverted) <= 0.4 * 6439


class TestAnnuli:
    IDX = AnnuliIndex(3, 64.0)

    def test_multiplicity_between_one_and_four(self):
        fg = GRID.freq_grid()
        pm = self.IDX.p_max(fg.half_width)
        mult = self.IDX.multiplicity(fg.xs, pm)
        assert mult.min() >= 1 and mult.max() <= 4

    def test_low_band_projection_is_identity(self):
        f = band_limited(2, lo=0.0, hi=0.9 * self.IDX.base)
        proj = annuli_project(f, self.IDX, 0)
        assert np.max(np.abs(proj.values - f.values)) <= 1e-10 * np.max(np.abs(f.values))

    def test_multiplicity_weighted_reconstruction(self):
        f = band_limited(4, lo=0.0, hi=100.0)
        fg = GRID.freq_grid()
        pm = self.IDX.p_max(fg.half_width)
        mult = self.IDX.multiplicity(fg.xs, pm).astype(float)
        acc = np.zeros(GRID.n, dtype=np.complex128)
        fhat = forward_transform(f)
        for p in range(pm + 1):
            mask = self.IDX.membership(p, fg.xs)
            acc += fhat.values * mask / mult
        assert np.max(np.abs(acc - fhat.values)) <= 1e-12 * np.max(np.abs(fhat.values))

    def test_negative_band_rejected(self):
        with pytest.raises(BadBand):
            annuli_project(band_limited(1), self.IDX, -1)

    # the gates and formulas that dominating_weights (A1 = 1) and envelope_check
    # (its spec's A1, floored at 1/4) each kept before AnnuliIndex.band held them
    @pytest.mark.parametrize("ell", [2, 3, 4, 7])
    def test_band_gate_and_spacing_match_the_old_gates(self, ell):
        for lam, a1, p in itertools.product([1.0, 64.0, 256.0, 1000.0, 4096.0, 2.0**20],
                                            [1.0, 0.25, 0.7, 3.0], range(-2, 48)):
            idx = AnnuliIndex(ell, lam)
            if a1 == 1.0:  # dominating_weights
                old_gate = p < 0 or 2.0**p >= 4.0 * lam ** ((ell - 1.0) / ell)
            else:  # envelope_check
                old_gate = p < 0 or 2.0**p >= 4.0 * a1 * lam ** ((ell - 1.0) / ell)
            if old_gate:
                with pytest.raises(BadBand):
                    idx.band(p, a1)
                continue
            L, scale = idx.band(p, a1)
            old_L = 2.0 ** (-p / (ell - 1.0)) * lam ** (1.0 / ell)
            assert L.hex() == old_L.hex()
            assert scale.hex() == (2.0**p * lam ** (1.0 / ell)).hex()
            assert (scale / L).hex() == (2.0**p * lam ** (1.0 / ell) / old_L).hex()

    # 2.0**p raised OverflowError from p = 1024 (an exit-1 traceback in
    # check-lemmas); below it the gate keeps its bits, also where the bound is inf
    @pytest.mark.parametrize("ell", [2, 3])
    def test_band_gate_keeps_its_bits_up_to_p_1023(self, ell):
        for lam, a1 in itertools.product([256.0, 2.0**20, 1e300], [1.0, 1e300]):
            idx = AnnuliIndex(ell, lam)
            bound = 4.0 * a1 * lam ** ((ell - 1.0) / ell)
            for p in range(1024):
                if 2.0**p >= bound:
                    with pytest.raises(BadBand):
                        idx.band(p, a1)
                else:
                    L, scale = idx.band(p, a1)
                    assert L.hex() == (2.0 ** (-p / (ell - 1.0)) * lam ** (1.0 / ell)).hex()
                    assert scale.hex() == (2.0**p * lam ** (1.0 / ell)).hex()
            for p in (1024, 1025, 10**6):
                with pytest.raises(BadBand):
                    idx.band(p, a1)

    def test_p_max_takes_the_reach(self):
        # the first p >= 1 whose annulus starts at or beyond the reach
        for reach in (0.1, 1.0, self.IDX.base, 64.0, 1e6):
            pm = self.IDX.p_max(reach)
            assert pm >= 1 and 2.0 ** (pm - 3) * self.IDX.base >= reach
            assert pm == 1 or 2.0 ** (pm - 4) * self.IDX.base < reach


class TestDominatingWeights:
    GRID4 = Grid(0.0, 4.0, 4096)

    def chain(self, seed, p=3, lam=256.0, ell=3):
        w = random_weight(self.GRID4, np.random.default_rng(seed))
        return dominating_weights(w, p, lam, ell), w

    def test_spacing_choice(self):
        ch, _ = self.chain(0)
        assert ch.L == pytest.approx(2.0 ** (-3 / 2.0) * 256.0 ** (1 / 3.0))

    @given(st.integers(0, 10**6))
    @settings(max_examples=15)
    def test_first_domination_exact(self, seed):
        ch, _ = self.chain(seed)
        assert np.all(ch.w1.values <= ch.w2.values)

    @given(st.integers(0, 10**6))
    @settings(max_examples=15)
    def test_second_domination_certified(self, seed):
        ch, _ = self.chain(seed)
        n = self.GRID4.n
        inner = slice(ch.margin_cells, n - ch.margin_cells)
        assert np.all(ch.w2.values[inner]
                      <= ch.constant * ch.w3.values[inner] * (1 + 1e-9))

    def test_constant_weight_chain(self):
        w = Weight(self.GRID4, np.full(self.GRID4.n, 2.0))
        ch = dominating_weights(w, 3, 256.0, 3)
        mid = self.GRID4.n // 2
        # constants are fixed points up to the mollifier and Theta masses
        assert ch.w1.values[mid] == pytest.approx(ch.w2.values[mid])
        grid0 = Grid(0.0, self.GRID4.half_width, self.GRID4.n)
        mass = lp_norm(band_limited_mollifier(grid0, ch.scale), 1)
        assert ch.w1.values[mid] / 2.0 == pytest.approx(mass**2, rel=1e-6)
        theta = _theta_samples(grid0, ch.L).values.real
        theta_mass = grid0.h * float(np.sum(theta))
        # Theta tails reach the grid edge, so the convolved constant sits a
        # shade below the full Theta mass
        assert ch.w3.values[mid] / ch.w2.values[mid] == pytest.approx(theta_mass, rel=1e-3)

    def test_band_gate(self):
        w = Weight(self.GRID4, np.ones(self.GRID4.n))
        with pytest.raises(BadBand):
            dominating_weights(w, -1, 256.0, 3)
        with pytest.raises(BadBand):
            dominating_weights(w, 30, 256.0, 3)

    def test_theta_both_signs(self):
        theta = _theta_samples(self.GRID4, 2.0).values.real
        assert np.all(theta >= 0.0)
        that = forward_transform(SampledFunction(self.GRID4,
                                                 theta.astype(np.complex128)))
        scale = np.max(np.abs(that.values))
        assert np.min(that.values.real) >= -1e-12 * scale
        # transform supported in [-L, L]
        outside = np.abs(that.freq_grid.xs) > 2.0 * (1 + 1e-9)
        assert np.max(np.abs(that.values[outside])) <= 1e-12 * scale


# The same samples on a grid off the origin. Every smoothing kernel is sampled
# on the kernel frame and every majorant convolves there, so each measurement
# is bit for bit the centred grid's. spaced_ratio's rhs once convolved W_L at
# absolute positions, which truncates it unevenly off the origin: it moved by
# 2.5% at L = 0.125.
OFF_GRID = Grid(3.0, 16.0, 4096)


@pytest.mark.parametrize("measure", [
    lambda f, w: spaced_ratio(f, w, SpacedFamily(0.125)).rhs,
    lambda f, w: spaced_ratio(f, w, SpacedFamily(2.0)).rhs,
    lambda f, w: mollifier_weight(w, 4.0).values,
    lambda f, w: dominating_weights(w, 3, 256.0, 3).w3.values,
    lambda f, w: SpacedFamily(0.5).decay_constant(w.grid, 2)],
    ids=["spaced-rhs-0.125", "spaced-rhs-2", "mollifier", "chain-w3", "decay-constant"])
def test_measurements_ignore_the_grid_centre(measure):
    rng = np.random.default_rng(19)
    f = random_band_function(GRID, rng, 0.0, 60.0)
    w = random_weight(GRID, rng)
    off = measure(SampledFunction(OFF_GRID, f.values), Weight(OFF_GRID, w.values))
    assert np.asarray(off).tobytes() == np.asarray(measure(f, w)).tobytes()
