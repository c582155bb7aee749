"""Uniform grids, discrete Fourier transforms, convolution and norms.

Transform convention, fixed package-wide:

    F[f](xi) = integral f(x) exp(-i xi x) dx
    F^-1[g](x) = (1/2pi) integral g(xi) exp(+i xi x) dxi

Discretely the forward transform approximates ``h * sum f(x_j) exp(-i xi x_j)``
on the dual grid with step ``2*pi/(n*h)``; the round trip is exact up to FFT
rounding. Every convolution zero-pads to twice the grid length, so the linear
convolution of two grid-supported functions is computed without wrap-around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from ._util import standard_bump
from .errors import OscillabError

__all__ = [
    "Grid",
    "SampledFunction",
    "Weight",
    "SpectralFunction",
    "on_bump",
    "forward_transform",
    "inverse_transform",
    "restrict",
    "PaddedSpectrum",
    "padded_spectrum",
    "abs_spectrum",
    "convolve",
    "kernel_frame",
    "multiplier_kernel",
    "smoothing_majorant",
    "spectral_leak",
    "lp_norm",
    "weighted_l2",
]


# The grid budget, checked before anything is allocated: one complex array is 64 MiB.
MAX_GRID_POINTS = 2**22


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n`` samples covering [center - half_width, center + half_width).

    ``n`` must be a power of two; the step is ``h = 2*half_width/n`` and the
    samples are ``x_j = center - half_width + j*h``.
    """

    center: float
    half_width: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.center) and 0 < self.half_width < math.inf):
            raise ValueError(f"need a finite center and a finite positive half_width, "
                             f"got {self.center!r}, {self.half_width!r}")
        if not _is_pow2(self.n):
            raise ValueError(f"n={self.n} is not a power of two")
        if self.n > MAX_GRID_POINTS:
            raise ValueError(f"n={self.n} samples exceed the grid budget "
                             f"MAX_GRID_POINTS = 2^22")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def xs(self) -> np.ndarray:
        return self.center - self.half_width + self.h * np.arange(self.n)

    @classmethod
    def from_step(cls, center: float, half_width: float, max_step: float) -> "Grid":
        """Grid with the requested extent whose step does not exceed ``max_step``."""
        if not max_step >= 0:
            raise ValueError(f"max_step must be positive, got {max_step}")
        # a step that underflowed to 0, as 1/(4 lam) does once 4 lam overflows,
        # asks for infinitely many samples
        m = 2.0 * half_width / max_step if max_step > 0 else math.inf
        if m > MAX_GRID_POINTS:  # checked first: the doubling never ends on m = inf
            raise ValueError(f"step {max_step:.3e} over half-width {half_width} needs more "
                             f"than the grid budget MAX_GRID_POINTS = 2^22 samples")
        n = 1
        while n < m:
            n *= 2
        return cls(center, half_width, n)

    def freq_grid(self) -> "Grid":
        """Dual grid: step 2*pi/(n*h), centered at zero, same sample count."""
        dxi = 2.0 * np.pi / (self.n * self.h)
        return Grid(0.0, dxi * self.n / 2.0, self.n)


def _as_complex(values: Iterable[complex], n: int) -> np.ndarray:
    v = np.array(values, dtype=np.complex128)  # a copy: the caller may keep writing its array
    if v.shape != (n,):
        raise ValueError(f"expected {n} samples, got shape {v.shape}")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class SampledFunction:
    """Complex-valued function sampled on a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex(self.values, self.grid.n))


def on_bump(grid: Grid, center: float, halfwidth: float, wave) -> SampledFunction:
    """wave(x) * standard_bump((x - center) / halfwidth) on the grid.

    ``wave`` is called once, on a copy of the positions of the bump's nonzero
    run, also when that run is empty; every other sample is 0.
    """
    xs = grid.xs
    env = standard_bump((xs - center) / halfwidth)
    inside = np.flatnonzero(env > 0.0)
    run = slice(inside[0], inside[-1] + 1) if len(inside) else slice(0, 0)
    xs = xs[run].copy()  # a view would keep every position alive
    on_run = wave(xs) * env[run]  # before the output: one grid array fewer at the peak
    vals = np.zeros(grid.n, dtype=np.complex128)
    vals[run] = on_run
    return SampledFunction(grid, vals)


@dataclass(frozen=True)
class Weight:
    """Finite nonnegative real function on a grid.

    ``boundary`` optionally marks cells whose defining windows overflowed the
    grid; such cells are excluded from interior-only assertions.
    """

    grid: Grid
    values: np.ndarray
    boundary: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {v.shape}")
        if not (v.min() >= 0 and v.max() < np.inf):  # NaN fails the first
            raise ValueError("weight values must be finite and nonnegative")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.boundary is not None:
            b = np.array(self.boundary, dtype=bool)
            b.flags.writeable = False
            object.__setattr__(self, "boundary", b)


@dataclass(frozen=True)
class SpectralFunction:
    """Samples of a forward transform on the dual grid of ``space_grid``."""

    space_grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex(self.values, self.space_grid.n))

    @property
    def freq_grid(self) -> Grid:
        return self.space_grid.freq_grid()


def _offset_phase(g: Grid, unit: complex) -> np.ndarray:
    """exp(unit * xi * x_0) on the FFT frequencies, x_0 the first sample of ``g``."""
    xi = np.fft.fftfreq(g.n, d=g.h) * 2.0 * np.pi
    return np.exp(unit * xi * (g.center - g.half_width))


def forward_transform(f: SampledFunction) -> SpectralFunction:
    """Forward transform of ``f`` on the dual grid."""
    g = f.grid
    vals = g.h * np.fft.fft(f.values) * _offset_phase(g, -1j)
    return SpectralFunction(g, np.fft.fftshift(vals))


def inverse_transform(fhat: SpectralFunction) -> SampledFunction:
    """Exact inverse of :func:`forward_transform`."""
    g = fhat.space_grid
    return SampledFunction(g, np.fft.ifft(np.fft.ifftshift(fhat.values)
                                          * _offset_phase(g, 1j) / g.h))


class _RowInverter:
    """Inverts spectra given on their supports alone, up to ``block`` = max(1,
    samples // n) rows at a time, through three blocks of ``block`` rows: the row
    block (complex128, the spectra to invert), the output block (complex128, their
    inverses) and the energy block (float64, their weighted squares), 40 B per
    sample in all. They are allocated once, on first use, after the caller's first
    window evaluation has dropped its temporaries.

    The row block is filled once from the zero row, the (0j * phase) / h that the
    dense expression of :func:`inverse_transform` writes at every sample outside a
    support, signed zeros included. :meth:`invert` scatters a block's support into
    it, takes one FFT over the block into the output, which gives each row the bits
    it gets alone, and puts the scattered cells back.
    """

    def __init__(self, g: Grid, samples: int):
        self.g = g
        self.block = max(1, samples // g.n)
        self.phase = _offset_phase(g, 1j)
        self.zero = np.zeros(g.n, dtype=np.complex128) * self.phase / g.h

    @cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, out, energy): the row block, the output and the energy block."""
        rows = np.tile(self.zero, (self.block, 1))
        return rows, np.empty_like(rows), np.empty(rows.shape)

    def spectrum(self, idx: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(jdx, x) for the spectra that are vals[r] at the samples idx[r] of g's dual
        grid and 0.0 at the others: idx ifftshifted, and vals times the phase
        (``_offset_phase(g, 1j)``) and 1/h, as :func:`inverse_transform` multiplies
        them before its FFT."""
        jdx = (idx - self.g.n // 2) % self.g.n
        # np.multiply, not *: on a large block numpy would reuse the temporary
        # phase[jdx] and compute phase[jdx] * vals, which FMA rounds differently
        return jdx, np.multiply(vals, self.phase[jdx]) / self.g.h

    def invert(self, jdx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The rows of (jdx, x), bit for bit what :func:`inverse_transform` returns
        for each spectrum, in the output block: valid until the next call, so copy
        them to keep them."""
        rows, out, _ = self.blocks
        m = len(jdx)
        np.put_along_axis(rows[:m], jdx, x, axis=-1)
        np.fft.ifft(rows[:m], axis=-1, out=out[:m])
        np.put_along_axis(rows[:m], jdx, self.zero[jdx], axis=-1)
        return out[:m]

    def energies(self, jdx: np.ndarray, x: np.ndarray, w: Weight) -> list[float]:
        """The weighted energy of each row of (jdx, x), formed as :func:`weighted_l2`
        forms it (``a**2`` is np.square) in the energy block."""
        a = np.abs(self.invert(jdx, x), out=self.blocks[2][:len(jdx)])
        np.multiply(np.square(a, out=a), w.values, out=a)
        return (self.g.h * np.sum(a, axis=-1)).tolist()


def restrict(fhat: SpectralFunction, multiplier: np.ndarray) -> SampledFunction:
    """The function whose transform is f^ times the frequency multiplier."""
    return inverse_transform(SpectralFunction(fhat.space_grid, fhat.values * multiplier))


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise OscillabError(f"grids differ: {a.grid} vs {b.grid}")


@dataclass(frozen=True)
class PaddedSpectrum:
    """The FFT of a grid function's samples zero-padded to twice their length:
    the first operand of :func:`convolve`, taken once to convolve with many."""

    grid: Grid
    values: np.ndarray


def padded_spectrum(f: SampledFunction) -> PaddedSpectrum:
    """f's padded spectrum; read-only, as every convolution with it reads it."""
    values = np.fft.fft(f.values, 2 * f.grid.n)
    values.flags.writeable = False
    return PaddedSpectrum(f.grid, values)


def _padded_fft_convolve(fa: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution by FFT from a's spectrum, zero-padded to twice the
    length, and b, zero-padded to that length.

    a's spectrum is the product's first operand. The product and its inverse
    overwrite b's spectrum, so a's is left for the next b, and one padded
    spectrum besides a's is alive at a time.
    """
    fb = np.fft.fft(b, len(fa))
    np.multiply(fa, fb, out=fb)
    return np.fft.ifft(fb, out=fb)


def convolve(f: SampledFunction | PaddedSpectrum, g: SampledFunction) -> SampledFunction:
    """h-weighted linear convolution, evaluated on the shared grid.

    Zero-pads to twice the length, so no periodic wrap-around occurs. f may
    come as its :func:`padded_spectrum`, which is then not taken again. The
    grid center must be an integer multiple of the step for the result
    samples to land on grid points.
    """
    _require_same_grid(f, g)
    grid = f.grid
    n = grid.n
    c_cells = grid.center / grid.h
    if abs(c_cells - round(c_cells)) > 1e-9:
        raise OscillabError("grid center must be an integer multiple of the step")
    # a spectrum taken here is dropped when _padded_fft_convolve returns, and full
    # before the copy into the result: two padded arrays at most besides a held one
    full = _padded_fft_convolve(
        (f if isinstance(f, PaddedSpectrum) else padded_spectrum(f)).values, g.values)
    # linear conv index k sits at position 2*(center-half_width) + k*h; output
    # sample j is full[j + shift], 0 where that index falls outside full
    shift = n // 2 - int(round(c_cells))
    lo, hi = max(shift, 0), min(shift + n, len(full))
    out = np.zeros(n, dtype=np.complex128)
    if lo < hi:
        out[lo - shift: hi - shift] = full[lo:hi]
    del full
    return SampledFunction(grid, np.multiply(grid.h, out, out=out))


def kernel_frame(grid: Grid) -> Grid:
    """The grid's copy with x = 0 at sample n // 2, the frame of every kernel."""
    return Grid(0.0, grid.half_width, grid.n)


def multiplier_kernel(grid: Grid, multiplier) -> SampledFunction:
    """The kernel whose transform is multiplier(xi), on the grid's kernel frame."""
    frame = kernel_frame(grid)
    return inverse_transform(SpectralFunction(frame, multiplier(frame.freq_grid().xs)))


def abs_spectrum(kernel: SampledFunction) -> PaddedSpectrum:
    """The padded spectrum of |K|: the kernel of :func:`smoothing_majorant`, taken
    once to smooth many weights."""
    return padded_spectrum(SampledFunction(kernel.grid, np.abs(kernel.values)))


def smoothing_majorant(kernel: SampledFunction | PaddedSpectrum, w: Weight) -> Weight:
    """|K| * w clipped at 0, on w's grid. w is relabelled onto the grid's kernel
    frame, so only differences of positions count; K must lie on that frame, or
    :func:`convolve` raises :class:`OscillabError`. K may come as its
    :func:`abs_spectrum`."""
    conv = convolve(kernel if isinstance(kernel, PaddedSpectrum) else abs_spectrum(kernel),
                    SampledFunction(kernel_frame(w.grid), w.values))
    return Weight(w.grid, np.maximum(conv.values.real, 0.0))


def spectral_leak(fhat: SpectralFunction, inside: np.ndarray) -> float:
    """The share of the energy sum |f^|^2 outside the mask; 0 for a zero spectrum."""
    energy = np.abs(fhat.values) ** 2
    total = float(np.sum(energy))
    return float(np.sum(energy[~inside])) / total if total > 0.0 else 0.0


def lp_norm(f: SampledFunction | Weight, p: float) -> float:
    """(h * sum |f|^p)^(1/p); max |f| for p = inf."""
    if p < 1:
        raise ValueError("p must be >= 1")
    a = np.abs(f.values)
    if np.isinf(p):
        return float(np.max(a)) if len(a) else 0.0
    # pow(+0, p) = +0, and numpy's pow takes a slow path on zeros: they are left as they are
    return float((f.grid.h * np.sum(np.power(a, p, out=a, where=a > 0.0))) ** (1.0 / p))


def weighted_l2(f: SampledFunction, w: Weight) -> float:
    """The weighted energy h * sum |f|^2 w (an integral, not a norm)."""
    _require_same_grid(f, w)
    return float(f.grid.h * np.sum(np.abs(f.values) ** 2 * w.values))
