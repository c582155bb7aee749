"""Grid, transform, convolution and norm contracts, checked against
closed forms and a direct-summation oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscillab._util import standard_bump
from oscillab.cli import load_weight_csv
from oscillab.errors import OscillabError
from oscillab.numerics import (Grid, SampledFunction, SpectralFunction, Weight,
                               _padded_fft_convolve, _RowInverter, convolve,
                               forward_transform, inverse_transform, kernel_frame,
                               lp_norm, multiplier_kernel, on_bump, padded_spectrum,
                               smoothing_majorant, spectral_leak, weighted_l2)
from oscillab.verify import approach_grid

from conftest import convolve_direct, index_of, sampled, save_weight_csv, traced_peak


TOP = np.finfo(float).max


def gaussian(grid):
    return sampled(grid, lambda x: np.exp(-x**2 / 2))


def random_band(grid, seed, lo=0.0, hi=20.0):
    rng = np.random.default_rng(seed)
    fg = grid.freq_grid()
    vals = np.zeros(grid.n, dtype=np.complex128)
    sel = (np.abs(fg.xs) >= lo) & (np.abs(fg.xs) <= hi)
    vals[sel] = rng.normal(size=int(sel.sum())) + 1j * rng.normal(size=int(sel.sum()))
    from oscillab.numerics import SpectralFunction

    return inverse_transform(SpectralFunction(grid, vals))


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

    def test_grid_budget(self):
        # refused before anything is allocated; a step needing infinitely many
        # samples used to loop forever in Grid.from_step
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            Grid(0.0, 1.0, 2**23)
        assert Grid.from_step(0.0, 1.0, 2.0 / 2**22).n == 2**22
        for step in (1e-15, 1e-320):
            with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
                Grid.from_step(0.0, 1.0, step)

    # 1/(4 lam) is 0 once 4 lam overflows; that step used to be blamed as
    # "max_step must be positive, got 0.0"
    def test_step_that_underflowed_to_zero_is_over_the_grid_budget(self):
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            Grid.from_step(0.0, 4.0, 1.0 / (4.0 * 1e308))
        with pytest.raises(ValueError, match="max_step must be positive"):
            Grid.from_step(0.0, 1.0, -0.5)

    # every comparison with NaN is false, so `half_width <= 0` let a NaN grid through
    @pytest.mark.parametrize("center, half_width", [
        (float("nan"), 1.0), (float("inf"), 1.0), (0.0, float("nan")), (0.0, float("inf")),
        (0.0, 0.0), (0.0, -1.0)])
    def test_center_and_half_width_must_be_finite(self, center, half_width):
        with pytest.raises(ValueError, match="finite center and a finite positive half_width"):
            Grid(center, half_width, 8)

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


# The transform convention frozen as the expressions forward_transform and
# inverse_transform evaluated before they shared one offset-phase helper, so
# that any change in the bits shows up.
def reference_forward(f):
    g = f.grid
    raw = np.fft.fft(f.values)
    xi = np.fft.fftfreq(g.n, d=g.h) * 2.0 * np.pi
    x0 = g.center - g.half_width
    return np.fft.fftshift(g.h * raw * np.exp(-1j * xi * x0))


def reference_inverse_input(g, values):
    """What the inverse transform hands to the FFT."""
    xi = np.fft.fftfreq(g.n, d=g.h) * 2.0 * np.pi
    x0 = g.center - g.half_width
    return np.fft.ifftshift(values) * np.exp(1j * xi * x0) / g.h


def reference_inverse(g, values):
    return np.fft.ifft(reference_inverse_input(g, values))


@st.composite
def off_centre_samples(draw):
    g = Grid(draw(st.floats(-50.0, 50.0)), draw(st.floats(1e-3, 1e3)),
             2 ** draw(st.integers(0, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = [rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n) for _ in range(2)]
    return g, *vals


# The spaced family inverts a block of pieces with one FFT over its rows, which
# is only bit for bit the per-piece inverse if pocketfft treats rows alone.
@pytest.mark.parametrize("n", [4096, 8192])
def test_ifft_over_rows_matches_single_calls_bitwise(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
    rows = np.fft.ifft(a, axis=-1)
    for row, single in zip(rows, a):
        assert row.tobytes() == np.fft.ifft(single).tobytes()


# Whole-grid supports, windows, and an empty one; 8 whole rows of 4096 are past
# numpy's 256 KiB threshold for reusing a temporary in place. The FFT's input is
# checked too: off the support the FFT absorbs the sign of a zero, so only the
# input shows that every zero is the dense expression's (0j * phase) / h. Two
# blocks through one inverter, each with its windows in its own half of the
# grid, show that the cells the first block scattered are put back before the
# second is inverted. A block's rows are reused, so each is checked before the
# next.
@pytest.mark.parametrize("widths", [(4096,), (300,), (1,), (0,), (300, 300)],
                         ids=["4096", "300", "1", "0", "300-300"])
def test_support_rows_match_inverse_transform_bitwise(widths, monkeypatch):
    g = Grid(3.0, 16.0, 4096)
    rng = np.random.default_rng(widths[0])
    part = g.n // len(widths)
    blocks, expected = [], []
    for b, width in enumerate(widths):
        first = b * part + rng.integers(0, part - width + 1, size=8)
        idx = first[:, None] + np.arange(width)
        vals = rng.standard_normal(idx.shape) + 1j * rng.standard_normal(idx.shape)
        blocks.append((idx, vals))
        spectra = np.zeros((len(idx), g.n), dtype=np.complex128)
        np.put_along_axis(spectra, idx, vals, axis=-1)
        expected.append([(reference_inverse_input(g, s).tobytes(),
                          inverse_transform(SpectralFunction(g, s)).values.tobytes())
                         for s in spectra])
    inputs, ifft = [], np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda a, **kw: inputs.append(a.copy()) or ifft(a, **kw))
    inv = _RowInverter(g, 8 * g.n)
    for (idx, vals), dense in zip(blocks, expected, strict=True):
        rows = inv.invert(*inv.spectrum(idx, vals))
        for row, row_input, (dense_input, dense_row) in zip(rows, inputs[-1], dense, strict=True):
            assert row_input.tobytes() == dense_input
            assert row.tobytes() == dense_row


@given(off_centre_samples())
def test_transforms_match_frozen_convention_bitwise(case):
    g, vals, spectrum = case
    f = SampledFunction(g, vals)
    fhat = forward_transform(f)
    assert fhat.freq_grid == g.freq_grid()
    assert fhat.values.tobytes() == reference_forward(f).tobytes()
    back = inverse_transform(dataclasses.replace(fhat, values=spectrum))
    assert back.grid == g
    assert back.values.tobytes() == reference_inverse(g, spectrum).tobytes()


class TestConvolve:
    def test_box_box_triangle(self):
        g = Grid(0.0, 8.0, 2048)
        box = sampled(g, lambda x: ((x >= 0) & (x <= 1)).astype(float))
        tri = convolve(box, box)
        expected = np.maximum(0.0, 1.0 - np.abs(g.xs - 1.0))
        assert np.max(np.abs(tri.values.real - expected)) <= g.h * (1 + 1e-9)
        assert abs(tri.values[index_of(g, 1.0)].real - 1.0) <= g.h * (1 + 1e-9)

    def test_impulse_sifting(self):
        g = Grid(0.0, 8.0, 512)
        f = gaussian(g)
        j = index_of(g, 1.5)
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
        f = sampled(g, lambda x: np.exp(-(x**2)))
        h = sampled(g, lambda x: np.exp(-((x - 1) ** 2)))
        lhs = forward_transform(convolve(f, h))
        rhs = forward_transform(f).values * forward_transform(h).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-9 * np.max(np.abs(rhs))

    def test_grid_mismatch(self):
        f = gaussian(Grid(0.0, 8.0, 256))
        h = gaussian(Grid(0.0, 8.0, 512))
        with pytest.raises(OscillabError, match="grids differ"):
            convolve(f, h)


def frozen_padded_fft_convolve(a, b):
    """The padded FFT convolution as one expression, with its temporaries."""
    n = 2 * len(a)
    return np.fft.ifft(np.fft.fft(a, n) * np.fft.fft(b, n))


def padded_fft_convolve(a, b):
    """The package's padded convolution of two sample arrays: a's padded
    spectrum, then the shared product, inverse and crop."""
    return _padded_fft_convolve(np.fft.fft(a, 2 * len(a)), b)


def frozen_linear_convolution(f, g, full_of):
    """The linear convolution's placement as an index gather, then grid.h * out."""
    grid = f.grid
    n = grid.n
    full = full_of(f.values, g.values)
    shift = n // 2 - int(round(grid.center / grid.h))
    idx = np.arange(n) + shift
    out = np.zeros(n, dtype=np.complex128)
    ok = (idx >= 0) & (idx < len(full))
    out[ok] = full[idx[ok]]
    return grid.h * out


class TestInPlaceConvolution:
    """The in-place product and inverse, and the sliced placement, give the bits
    of the expressions they replace. The padded spectra hold 2n complex
    samples, so n = 4096 stays under numpy's 256 KiB temporary-elision
    threshold and n >= 8192 reaches it."""

    @pytest.mark.parametrize("n", [64, 4096, 8192, 16384, 32768])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_padded_fft_convolve_bitwise(self, n, dtype):
        rng = np.random.default_rng(n)
        a, b = (rng.normal(size=n) + (1j * rng.normal(size=n) if dtype is np.complex128
                                      else 0.0) for _ in range(2))
        assert a.dtype == dtype
        assert padded_fft_convolve(a, b).tobytes() == frozen_padded_fft_convolve(a, b).tobytes()

    # one kernel spectrum, held across inputs as the sweeps hold it: the kernel's
    # spectrum stays the product's first operand, and no product overwrites it
    @pytest.mark.parametrize("n", [64, 4096, 8192, 32768])
    def test_held_spectrum_bitwise(self, n):
        rng = np.random.default_rng(n + 1)
        grid = Grid(0.0, 4.0, n)
        k = SampledFunction(grid, rng.normal(size=n) + 1j * rng.normal(size=n))
        khat = padded_spectrum(k)
        before = khat.values.tobytes()
        for _ in range(3):
            f = SampledFunction(grid, rng.normal(size=n) + 1j * rng.normal(size=n))
            assert (_padded_fft_convolve(khat.values, f.values).tobytes()
                    == frozen_padded_fft_convolve(k.values, f.values).tobytes())
            assert convolve(khat, f).values.tobytes() == convolve(k, f).values.tobytes()
            assert (convolve(khat, f).values.tobytes()
                    == frozen_linear_convolution(k, f, frozen_padded_fft_convolve).tobytes())
        assert khat.values.tobytes() == before and not khat.values.flags.writeable

    # a spectrum taken inside convolve dies with the call, and the padded result
    # before the copy into the SampledFunction: the peak is two padded arrays (4
    # grid arrays), and 3 more beside a held spectrum; keeping either alive to the
    # copy made it 6 and 4
    def test_convolve_peak(self):
        n = 2**15
        grid = Grid(0.0, 4.0, n)
        rng = np.random.default_rng(3)
        f, g = (SampledFunction(grid, rng.normal(size=n) + 0j) for _ in range(2))
        khat = padded_spectrum(f)
        for first, arrays in [(f, 4), (khat, 3)]:
            convolve(first, g)
            assert traced_peak(lambda: convolve(first, g)) <= arrays * 16 * n + 4096

    # the grid center sits frac * n + 37 cells off 0, so the output range
    # [n/2 - cells, 3n/2 - cells) of the full convolution lies inside it
    # (frac = 0), overhangs its start or its end (+-0.75), misses it (1.5)
    # or meets only its last 37 samples (-1.5)
    @pytest.mark.parametrize("n", [256, 8192, 16384])
    @pytest.mark.parametrize("frac", [0.0, 0.75, -0.75, 1.5, -1.5])
    def test_linear_convolution_bitwise(self, n, frac):
        rng = np.random.default_rng(7)
        h = 8.0 / n
        grid = Grid((int(frac * n) + 37) * h, 4.0, n)
        assert grid.h == h
        f, g = (SampledFunction(grid, rng.normal(size=n) + 1j * rng.normal(size=n))
                for _ in range(2))
        paths = [(convolve, padded_fft_convolve)]
        if n <= 256:
            paths.append((convolve_direct, np.convolve))
        for conv, full_of in paths:
            got = conv(f, g).values
            assert got.tobytes() == frozen_linear_convolution(f, g, full_of).tobytes()


class TestNorms:
    def test_indicator_l3(self):
        g = Grid(0.0, 8.0, 2048)
        f = sampled(g, lambda x: ((x >= 0) & (x <= 1)).astype(float))
        assert abs(lp_norm(f, 3) - 1.0) <= g.h

    def test_exponential_l2(self):
        g = Grid(0.0, 32.768, 65536)  # h = 1e-3, covers [-20, 20] and beyond
        f = sampled(g, lambda x: np.exp(-np.abs(x)))
        assert abs(lp_norm(f, 2) - 1.0) <= 1e-4

    def test_sup_norm(self):
        g = Grid(0.0, 4.0, 64)
        f = sampled(g, lambda x: np.sin(x))
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

    # lp_norm raises only the nonzero samples to p: pow(+0, p) = +0, so the sum
    # keeps the bits of the dense a**p, with every edge value present; at the
    # scale 1e-300 the subnormals and their underflow make up the whole sum
    @pytest.mark.parametrize("p", [1, 2, 3, 1.5, 5 / 3])
    @pytest.mark.parametrize("scale, tail", [(1.0, []), (1e-300, []), (1.0, [-TOP]),
                                             (1.0, [np.inf])],
                             ids=["finite", "tiny", "overflow", "inf"])
    def test_power_of_the_nonzero_samples_bitwise(self, p, scale, tail):
        g = Grid(0.0, 4.0, 128)
        rng = np.random.default_rng(7)
        edge = [0.0, -0.0, complex(-0.0, -0.0), 5e-324, -2.5e-310, 1e-300j]
        if scale == 1.0:
            edge.append(0.25 * TOP ** (1.0 / p))  # its p-th power 4^-p of the largest float
        v = scale * (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        v[rng.random(g.n) < 0.3] = 0.0
        v[:len(edge) + len(tail)] = edge + tail
        for f in (SampledFunction(g, v), Weight(g, np.minimum(np.abs(v), TOP))):
            with np.errstate(over="ignore"):
                expected = float((g.h * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))
                assert np.float64(lp_norm(f, p)).tobytes() == np.float64(expected).tobytes()
            assert math.isfinite(expected) == (not tail)

    def test_absolute_homogeneity(self):
        g = Grid(0.0, 4.0, 128)
        f = gaussian(g)
        two_f = SampledFunction(g, 2.0 * f.values)
        for p in (1, 2, 3, np.inf):
            assert np.isclose(lp_norm(two_f, p), 2.0 * lp_norm(f, p), rtol=1e-12)


class TestOnBump:
    @pytest.mark.parametrize("center, halfwidth", [(0.0, 1.5), (0.3, 0.7), (-3.9, 0.5)])
    def test_wave_times_bump_on_its_run(self, center, halfwidth):
        g = Grid(0.0, 4.0, 512)
        calls = []

        def wave(xs):
            calls.append(xs)
            return np.exp(3j * xs)

        f = on_bump(g, center, halfwidth, wave)
        env = standard_bump((g.xs - center) / halfwidth)
        inside = env > 0.0
        [xs] = calls
        assert xs.flags.owndata and xs.tobytes() == g.xs[inside].tobytes()
        assert f.values[inside].tobytes() == (np.exp(3j * xs) * env[inside]).tobytes()
        assert not np.any(f.values[~inside])

    def test_empty_run_still_calls_the_wave(self):
        # 0.3 h lies 0.3 cells from the sample at 0: no sample is within h/4 of it
        g = Grid(0.0, 4.0, 512)
        calls = []
        f = on_bump(g, 0.3 * g.h, g.h / 4.0, lambda xs: calls.append(xs) or np.ones(len(xs)))
        [xs] = calls
        assert xs.shape == (0,)
        assert not np.any(f.values)


class TestWeight:
    def test_nonnegativity_enforced(self):
        g = Grid(0.0, 4.0, 64)
        with pytest.raises(ValueError):
            Weight(g, np.full(g.n, -1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finiteness_enforced(self, bad):
        # a NaN used to pass the sign check and reach every operator
        g = Grid(0.0, 4.0, 64)
        values = np.ones(g.n)
        values[5] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Weight(g, values)

    # judged by the min and the max alone, NaN and inf above: -0.0 is nonnegative
    @pytest.mark.parametrize("value, accepted", [
        (-0.0, True), (5e-324, True), (TOP, True), (-5e-324, False), (-1.0, False)])
    def test_validation_reads_the_extremes(self, value, accepted):
        g = Grid(0.0, 4.0, 64)
        values = np.ones(g.n)
        values[[0, 9, 63]] = value
        if accepted:
            assert Weight(g, values).values.tobytes() == values.tobytes()
        else:
            with pytest.raises(ValueError, match="finite and nonnegative"):
                Weight(g, values)

    def test_values_immutable(self):
        g = Grid(0.0, 4.0, 64)
        w = Weight(g, np.ones(g.n))
        with pytest.raises(ValueError):
            w.values[0] = 2.0


class TestKernelFrame:
    OFF = Grid(3.0, 16.0, 4096)

    def test_frame_puts_zero_at_the_middle_sample(self):
        frame = kernel_frame(self.OFF)
        assert (frame.h, frame.n) == (self.OFF.h, self.OFF.n)
        assert frame.xs[frame.n // 2] == 0.0

    def test_multiplier_kernel_lives_on_the_frame(self):
        # the transform of a flat multiplier is the point mass 1/h at x = 0
        k = multiplier_kernel(self.OFF, np.ones_like)
        assert k.grid == kernel_frame(self.OFF)
        spike = np.zeros(k.grid.n)
        spike[k.grid.n // 2] = 1.0 / k.grid.h
        assert np.max(np.abs(k.values - spike)) <= 1e-9 / k.grid.h

    def test_majorant_of_a_point_mass_is_the_weight(self):
        frame = kernel_frame(self.OFF)
        delta = np.zeros(frame.n)
        delta[frame.n // 2] = -1.0 / frame.h  # |K| is taken
        w = Weight(self.OFF, standard_bump((self.OFF.xs - 5.0) / 4.0))
        out = smoothing_majorant(SampledFunction(frame, delta), w)
        assert out.grid == self.OFF
        assert np.max(np.abs(out.values - w.values)) <= 1e-12

    @pytest.mark.parametrize("kernel_grid", [OFF, Grid(0.0, 16.0, 2048), Grid(0.0, 8.0, 4096)],
                             ids=["absolute-positions", "other-count", "other-step"])
    def test_majorant_refuses_a_kernel_off_the_frame(self, kernel_grid):
        w = Weight(self.OFF, np.ones(self.OFF.n))
        with pytest.raises(OscillabError, match="grids differ"):
            smoothing_majorant(SampledFunction(kernel_grid, np.ones(kernel_grid.n)), w)

    def test_leak_of_a_zero_spectrum_is_zero(self):
        fhat = SpectralFunction(self.OFF, np.zeros(self.OFF.n))
        assert spectral_leak(fhat, np.zeros(self.OFF.n, dtype=bool)) == 0.0

    def test_leak_is_the_exact_share_outside_the_mask(self):
        n = self.OFF.n
        inside = np.arange(n) < n // 2
        assert spectral_leak(SpectralFunction(self.OFF, np.ones(n)), inside) == 0.5
        # |3|^2 inside and |1j|^2 outside: (n/2) / (5n)
        values = np.where(inside, 3.0, 1j)
        assert spectral_leak(SpectralFunction(self.OFF, values), inside) == 0.1
        assert spectral_leak(SpectralFunction(self.OFF, values), ~inside) == 0.9


class TestCsv:
    def test_weight_round_trip(self, tmp_path):
        g = Grid(0.0, 8.0, 128)
        w = Weight(g, np.abs(np.sin(g.xs)))
        path = str(tmp_path / "w.csv")
        save_weight_csv(w, path)
        back = load_weight_csv(path)
        np.testing.assert_allclose(back.values, w.values, atol=0)

    # positions written to a few decimals lie off the grid through their
    # ends by up to 0.009 h here, and by 0.1 h with %g at lam = 1024; they load
    @pytest.mark.parametrize("lam, fmt", [(64, "%.6f"), (1024, "%.6f"), (1024, "%g")])
    def test_rounded_positions_load(self, lam, fmt, tmp_path):
        g = approach_grid(lam)
        path = tmp_path / "w.csv"
        path.write_text("x,w\n" + "".join(f"{fmt % x},1\n" for x in g.xs))
        back = load_weight_csv(str(path))
        assert back.grid.n == g.n
        assert abs(back.grid.h - g.h) < 1e-3 * g.h

    def test_nan_positions_are_refused(self, tmp_path):
        # used to load as a weight on Grid(nan, nan, 4)
        path = tmp_path / "w.csv"
        path.write_text("x,w\n" + "nan,1\n" * 4)
        with pytest.raises(ValueError, match="finite center"):
            load_weight_csv(str(path))

    # uneven positions loaded as if equally spaced, since only the first and
    # last were read; the other three were refused without naming the file
    @pytest.mark.parametrize("xs, message", [
        ([0, 1, 5, 6], "increasing and equally spaced"),
        ([0, np.nan, 2, 3], "increasing and equally spaced"),
        ([0, 1, 2, 3, 4, 6, 7, 8], "increasing and equally spaced"),  # 5 is missing
        ([0, 1, 2, 2, 3, 4, 5, 6], "increasing and equally spaced"),  # 2 twice
        ([0, 1, 2], "n=3 is not a power of two"),
        ([0, 0, 0, 0], "finite center"),
        ([3, 1], "finite center"),
    ])
    def test_malformed_positions_are_refused_by_path(self, xs, message, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("x,w\n" + "".join(f"{x!r},1\n" for x in xs))
        with pytest.raises(ValueError, match=message) as info:
            load_weight_csv(str(path))
        assert str(path) in str(info.value)
