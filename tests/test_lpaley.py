"""Frequency decompositions: telescoping, partitions of unity, annuli
coverage, and the dominating weight chain."""

import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab import lpaley
from oscillab.errors import OscillabError
from oscillab.lpaley import (_BLOCK_SAMPLES, AnnuliIndex, DyadicFamily, SpacedFamily,
                             _energy_bounds, _spaced_blocks, _spaced_spectra, _support_width,
                             _theta_samples, _translate_support, band_limited_mollifier,
                             dominating_weights, dyadic_pieces, spaced_energy, spaced_pieces,
                             square_function)
from oscillab.numerics import (Grid, SampledFunction, SpectralFunction,
                               Weight, _RowInverter, forward_transform, inverse_transform,
                               lp_norm, restrict, smoothing_majorant, weighted_l2)
from oscillab.verify import lp_checks, random_band_function, random_weight, spaced_ratio

from conftest import annuli_project, traced_peak

GRID = Grid(0.0, 16.0, 4096)
FAM = DyadicFamily(-2, 8)


def translate_hat(fam, k, xi):
    """The k-th translate W^_L(xi - kL) of the family's window."""
    return fam.window_hat(np.asarray(xi, dtype=float) - k * fam.L)


def decay_constant(fam, grid, N):
    """Measured C_N in |W_L(x)| <= C_N * L / (1 + L|x|)^N."""
    w = fam.spatial_window(grid)
    return float(np.max(np.abs(w.values) * (1.0 + fam.L * np.abs(w.grid.xs)) ** N / fam.L))


def multiplicity(idx, xi, p_max):
    """How many of the annuli A_0..A_p_max of the AnnuliIndex idx hold each xi."""
    counts = np.zeros(len(np.atleast_1d(xi)), dtype=int)
    for p in range(0, p_max + 1):
        counts += idx.membership(p, xi).astype(int)
    return counts


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
        with pytest.raises(OscillabError, match="of the energy lies outside the covered bands"):
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
                c = decay_constant(fam, grid, N)
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
        assert len(fam.k_range(grid.freq_grid())) % (_BLOCK_SAMPLES // grid.n) != 0
        assert spaced_energy(f, w, fam) == k_order_sum(f, w, fam)

    # at 5e307 every window is the whole grid, and 2L overflows
    @pytest.mark.parametrize("L", [0.125, 0.5, 2.0, 8.0, 100.0, 5e307])
    def test_support_slices_are_the_translates_bitwise(self, L):
        fam = SpacedFamily(L)
        fg = GRID.freq_grid()
        ks = np.array(fam.k_range(fg))
        first, mult = _translate_support(fam, fg, ks)
        full = np.zeros((len(ks), fg.n))
        np.put_along_axis(full, first[:, None] + np.arange(mult.shape[1]), mult, axis=-1)
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
        rows = (row for block in _spaced_blocks(f, fam) for row in block)
        for k, row in zip(fam.k_range(fhat.freq_grid), rows, strict=True):
            dense = inverse_transform(SpectralFunction(g, fhat.values * translate_hat(fam, k, xs)))
            assert row.tobytes() == dense.values.tobytes()

    # At n = 2^17 and L = 1e3 each of the 7 windows is the whole grid, more than
    # _WINDOW_SAMPLES, so each is evaluated alone. One at a time, with each
    # block's support dropped before the next window, the traced peak is 10.5
    # complex grid arrays; holding the last block's, 14.1; all 7 at once, 38.4.
    # Scaled by 2^-479, f leaves the zero window past the left end (k = -3)
    # deferred, and its bound fails the head check of the next piece: its window
    # is evaluated again while the walk holds that piece's block (its spectrum,
    # 1.5 arrays) and window evaluation (1), 12.6 arrays in all.
    @pytest.mark.parametrize("scale, arrays", [(1.0, 11), (2.0**-479, 13)])
    def test_energy_evaluates_one_budget_of_windows_at_a_time(self, scale, arrays, evaluated):
        n = 2**17
        grid = Grid(0.0, n / 64.0, n)
        fam = SpacedFamily(1e3)
        fg = grid.freq_grid()
        assert _support_width(fam, fg) == n and len(fam.k_range(fg)) == 7
        rng = np.random.default_rng(17)
        f = random_band_function(grid, rng, 0.0, 60.0)
        f = SampledFunction(grid, scale * f.values)
        w = random_weight(grid, rng)
        spaced_energy(f, w, fam)
        assert evaluated == ([-3, -2, -3, -1, 0, 1, 2, 3] if scale != 1.0 else list(range(-3, 4)))
        assert traced_peak(lambda: spaced_energy(f, w, fam)) <= arrays * 16 * n

    def test_piece_budget(self):
        # 6,439 pieces is the most any run makes; L = 1e-6 would be about 8e8
        # full-grid pieces, and the smallest float spacing an infinite count
        assert len(SpacedFamily(0.125).k_range(Grid(0.0, 32.0, 8192).freq_grid())) == 6439
        for L in (1e-6, 5e-324):
            with pytest.raises(ValueError, match="MAX_PIECES"):
                SpacedFamily(L).k_range(GRID.freq_grid())
        # the budget holds before the zero-input return, as in spaced_pieces
        zero = SampledFunction(GRID, np.zeros(GRID.n))
        with pytest.raises(ValueError, match="MAX_PIECES"):
            spaced_pieces(zero, SpacedFamily(1e-6))
        for w in (random_weight(GRID, np.random.default_rng(3)), Weight(GRID, np.zeros(GRID.n))):
            with pytest.raises(ValueError, match="MAX_PIECES"):
                spaced_energy(zero, w, SpacedFamily(1e-6))


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
    """The row count of each block that the row inverter inverts from here on."""
    counts, real = [], _RowInverter.invert
    monkeypatch.setattr(_RowInverter, "invert",
                        lambda inv, jdx, x: counts.append(len(jdx)) or real(inv, jdx, x))
    return counts


@pytest.fixture
def evaluated(monkeypatch):
    """The k of each window that lpaley evaluates from here on, in order."""
    ks, real = [], lpaley._translate_support
    monkeypatch.setattr(lpaley, "_translate_support",
                        lambda fam, fg, k: ks.extend(k.tolist()) or real(fam, fg, k))
    return ks


def spectra_of(f, fam):
    """The (jdx, x) blocks of every piece, in k order, as spaced_energy draws them."""
    fhat = forward_transform(f)
    ks = np.array(fam.k_range(fhat.freq_grid))
    return _spaced_spectra(fhat, fam, ks, _RowInverter(f.grid, _BLOCK_SAMPLES))


def bounds_of(f, w, fam):
    """B_k of every piece, as spaced_energy bounds each block."""
    peak = float(np.max(w.values))
    return np.concatenate([_energy_bounds(f.grid, peak, x) for _, x in spectra_of(f, fam)])


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

    # A zero f^, or a zero w with sum |f^/h|^2 finite, gives 0.0 without inverting
    # a piece. Where sum |f^/h|^2 overflows, |f_k|^2 w is inf * 0 in every piece
    # that meets f^, and the sum stays their NaN.
    @pytest.mark.parametrize("case, count", [("zero-f", 0), ("zero-w", 0), ("spike-w", 515),
                                             ("nan-f", 1615), ("overflow-zero-w", 1615)])
    def test_degenerate_inputs_bitwise(self, case, count, inverted):
        rng = np.random.default_rng(12)
        f = band_limited(12)
        w = random_weight(GRID, rng)
        if case == "zero-f":
            f = SampledFunction(GRID, np.zeros(GRID.n))
        elif case == "zero-w":
            w = Weight(GRID, np.zeros(GRID.n))
        elif case == "spike-w":
            w = Weight(GRID, 3.0 * (np.arange(GRID.n) == 1000))
        elif case == "nan-f":
            vals = f.values.copy()
            vals[77] = np.nan
            f = SampledFunction(GRID, vals)
        else:
            f = SampledFunction(GRID, 1e200 * f.values)
            w = Weight(GRID, np.zeros(GRID.n))
        fam = SpacedFamily(0.5)
        # only the overflow case multiplies inf by 0 on purpose; the others run
        # under the default errstate, where any float warning is an error
        quiet = case == "overflow-zero-w"
        with np.errstate(over="ignore", invalid="ignore") if quiet else contextlib.nullcontext():
            energy = spaced_energy(f, w, fam)
            assert sum(inverted) == count
            assert bits(energy) == bits(k_order_sum(f, w, fam))
        assert (case in ("nan-f", "overflow-zero-w")) == math.isnan(energy)

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
    # roundoff between them, so there the skip is refused for the pieces whose
    # bounds reach ulp/2 of it. The inverter sees each inverted row; a row is known
    # by its samples and values, and the rows that share both (the all-zero windows
    # past each end) are told apart by k order.
    @pytest.mark.parametrize("case", ["band-128", "faint-then-strong", "strong-then-faint",
                                      "faint-spike-w"])
    def test_every_skipped_piece_is_proven(self, case, monkeypatch, evaluated):
        fam = SpacedFamily(0.5)
        w = random_weight(GRID, np.random.default_rng(16))
        if case == "faint-spike-w":
            w = Weight(GRID, 3.0 * (np.arange(GRID.n) == 1000))
        f = {"band-128": lambda: band_limited(16, lo=0.0),
             "faint-then-strong": lambda: self.lines((2.0**-28, -200.0), (1.0, 200.0)),
             "strong-then-faint": lambda: self.lines((1.0, -200.0), (2.0**-28, 200.0)),
             "faint-spike-w": lambda: self.lines((2.0**-28, -200.0), (1.0, 200.0))}[case]()
        seen, real = [], _RowInverter.invert  # the rows of each call
        monkeypatch.setattr(_RowInverter, "invert",
                            lambda inv, jdx, x: seen.append([*zip(jdx, x)]) or real(inv, jdx, x))
        energy = spaced_energy(f, w, fam)
        monkeypatch.undo()
        pieces = {}
        for i, (j, v) in enumerate(row for jdx, x in spectra_of(f, fam) for row in zip(jdx, x)):
            pieces.setdefault((j.tobytes(), v.tobytes()), []).append(i)
        order = [pieces[j.tobytes(), v.tobytes()].pop(0) for rows in seen for j, v in rows]
        inverted = set(order)
        assert len(order) == len(inverted)  # no piece is inverted twice
        ks = np.array(fam.k_range(GRID.freq_grid()))
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
        # Each piece is judged by its own bound. A faint line left of the strong one
        # makes the roundoff between them count: 99 of its 791 pieces are inverted,
        # and all 791 under the spike weight.
        between = [i for i in inverted if abs(ks[i] * fam.L) < 198.0]
        assert (len(inverted), len(between)) == {"band-128": (515, 515),
                                                 "faint-then-strong": (520, 99),
                                                 "strong-then-faint": (6, 0),
                                                 "faint-spike-w": (1216, 791)}[case]
        # Every window is evaluated, and again only where the head check fails: with
        # the faint line first, the pieces before it are inverted after it. Under the
        # spike, the faint piece's energy is too small to prove the skip of the
        # roundoff after it in its block, and those pieces (409 to 415) are inverted
        # one by one from the block's values, with no window evaluated again. A row is
        # also inverted alone where it is the one row its block keeps: with the faint
        # line first, three roundoff pieces between the lines, in 16-row blocks.
        fallback = [i for i in order if i < order[0]]
        assert fallback == (list(range(order[0])) if case.startswith("faint") else [])
        assert sorted(evaluated) == sorted(ks.tolist() + ks[fallback].tolist())
        at = np.cumsum([0] + [len(rows) for rows in seen])
        alone = [order[a] for a, b in zip(at[:-1], at[1:]) if b - a == 1]
        assert alone == {"faint-then-strong": [843, 874, 956],
                         "faint-spike-w": list(range(409, 416))}.get(case, [])

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

    def test_check_lp_evaluates_each_window_once_at_L_eighth(self, monkeypatch, evaluated):
        # one pass over the pieces: each of the 6,439 windows of check-lp's
        # L = 0.125 sample is evaluated once, 45,073 samples in all, and no piece
        # again; the last call is spatial_window's, on the whole grid
        shapes, real = [], SpacedFamily.window_hat
        monkeypatch.setattr(SpacedFamily, "window_hat",
                            lambda fam, xi: shapes.append(np.shape(xi)) or real(fam, xi))
        lp_checks(FAM, [SpacedFamily(0.125)], 8, 0)
        assert evaluated == list(SpacedFamily(0.125).k_range(GRID.freq_grid()))
        assert {shape[1] for shape in shapes[:-1]} == {7} and shapes[-1] == (GRID.n,)
        assert sum(math.prod(shape) for shape in shapes[:-1]) == 45_073


class TestAnnuli:
    IDX = AnnuliIndex(3, 64.0)

    def test_multiplicity_between_one_and_four(self):
        fg = GRID.freq_grid()
        pm = self.IDX.p_max(fg.half_width)
        mult = multiplicity(self.IDX, fg.xs, pm)
        assert mult.min() >= 1 and mult.max() <= 4

    def test_low_band_projection_is_identity(self):
        f = band_limited(2, lo=0.0, hi=0.9 * self.IDX.base)
        proj = annuli_project(f, self.IDX, 0)
        assert np.max(np.abs(proj.values - f.values)) <= 1e-10 * np.max(np.abs(f.values))

    def test_multiplicity_weighted_reconstruction(self):
        f = band_limited(4, lo=0.0, hi=100.0)
        fg = GRID.freq_grid()
        pm = self.IDX.p_max(fg.half_width)
        mult = multiplicity(self.IDX, fg.xs, pm).astype(float)
        acc = np.zeros(GRID.n, dtype=np.complex128)
        fhat = forward_transform(f)
        for p in range(pm + 1):
            mask = self.IDX.membership(p, fg.xs)
            acc += fhat.values * mask / mult
        assert np.max(np.abs(acc - fhat.values)) <= 1e-12 * np.max(np.abs(fhat.values))

    def test_negative_band_rejected(self):
        with pytest.raises(OscillabError, match="p must be nonnegative"):
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
                with pytest.raises(OscillabError, match=f"band p={p} outside"):
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
                    with pytest.raises(OscillabError, match=f"band p={p} outside"):
                        idx.band(p, a1)
                else:
                    L, scale = idx.band(p, a1)
                    assert L.hex() == (2.0 ** (-p / (ell - 1.0)) * lam ** (1.0 / ell)).hex()
                    assert scale.hex() == (2.0**p * lam ** (1.0 / ell)).hex()
            for p in (1024, 1025, 10**6):
                with pytest.raises(OscillabError, match=f"band p={p} outside"):
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
        with pytest.raises(OscillabError, match="band p=-1 outside"):
            dominating_weights(w, -1, 256.0, 3)
        with pytest.raises(OscillabError, match="band p=30 outside"):
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
    lambda f, w: decay_constant(SpacedFamily(0.5), w.grid, 2)],
    ids=["spaced-rhs-0.125", "spaced-rhs-2", "mollifier", "chain-w3", "decay-constant"])
def test_measurements_ignore_the_grid_centre(measure):
    rng = np.random.default_rng(19)
    f = random_band_function(GRID, rng, 0.0, 60.0)
    w = random_weight(GRID, rng)
    off = measure(SampledFunction(OFF_GRID, f.values), Weight(OFF_GRID, w.values))
    assert np.asarray(off).tobytes() == np.asarray(measure(f, w)).tobytes()
