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

import csv
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import GridMismatch

__all__ = [
    "Grid",
    "SampledFunction",
    "Weight",
    "SpectralFunction",
    "forward_transform",
    "inverse_transform",
    "convolve",
    "lp_norm",
    "weighted_l2",
    "save_weight_csv",
    "load_weight_csv",
]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def next_pow2(m: float) -> int:
    n = 1
    while n < m:
        n *= 2
    return n


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
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if not _is_pow2(self.n):
            raise ValueError(f"n={self.n} is not a power of two")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def xs(self) -> np.ndarray:
        return self.center - self.half_width + self.h * np.arange(self.n)

    @classmethod
    def from_step(cls, center: float, half_width: float, max_step: float) -> "Grid":
        """Grid with the requested extent whose step does not exceed ``max_step``."""
        if not max_step > 0:
            raise ValueError(f"max_step must be positive, got {max_step}")
        n = next_pow2(2.0 * half_width / max_step)
        return cls(center, half_width, n)

    def index_of(self, x: float) -> int:
        """Nearest sample index of position ``x``."""
        return int(round((x - self.center + self.half_width) / self.h))

    def freq_grid(self) -> "Grid":
        """Dual grid: step 2*pi/(n*h), centered at zero, same sample count."""
        dxi = 2.0 * np.pi / (self.n * self.h)
        return Grid(0.0, dxi * self.n / 2.0, self.n)


def _as_complex(values: Iterable[complex], n: int) -> np.ndarray:
    v = np.asarray(values, dtype=np.complex128)
    if v.shape != (n,):
        raise ValueError(f"expected {n} samples, got shape {v.shape}")
    v = v.copy()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class SampledFunction:
    """Complex-valued function sampled on a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex(self.values, self.grid.n))

    @classmethod
    def from_vectorized(cls, grid: Grid, fn) -> "SampledFunction":
        return cls(grid, np.asarray(fn(grid.xs), dtype=np.complex128))


@dataclass(frozen=True)
class Weight:
    """Nonnegative real function on a grid.

    ``boundary`` optionally marks cells whose defining windows overflowed the
    grid; such cells are excluded from interior-only assertions.
    """

    grid: Grid
    values: np.ndarray
    boundary: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {v.shape}")
        if np.any(v < 0):
            raise ValueError("weight values must be nonnegative")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.boundary is not None:
            b = np.asarray(self.boundary, dtype=bool).copy()
            b.flags.writeable = False
            object.__setattr__(self, "boundary", b)

    def as_sampled(self) -> SampledFunction:
        return SampledFunction(self.grid, self.values.astype(np.complex128))

    def interior(self) -> np.ndarray:
        """Values with boundary-flagged cells dropped."""
        if self.boundary is None:
            return self.values
        return self.values[~self.boundary]


@dataclass(frozen=True)
class SpectralFunction:
    """Samples of a forward transform on the dual grid of ``space_grid``."""

    freq_grid: Grid
    values: np.ndarray
    space_grid: Grid
    tail_warning: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex(self.values, self.freq_grid.n))


def _tails_decay(values: np.ndarray) -> bool:
    n = len(values)
    m = max(1, n // 20)
    peak = np.max(np.abs(values))
    if peak == 0.0:
        return True
    edge = max(np.max(np.abs(values[:m])), np.max(np.abs(values[-m:])))
    return bool(edge <= 1e-12 * peak)


def forward_transform(f: SampledFunction) -> SpectralFunction:
    """Forward transform of ``f`` on the dual grid.

    Sets ``tail_warning`` when the outer 5% of the grid carries more than
    1e-12 of the peak magnitude (the function is then not safely compactly
    supported on the grid).
    """
    g = f.grid
    fg = g.freq_grid()
    raw = np.fft.fft(f.values)
    # fft uses exp(-2pi i jk/n); account for the grid offset x_0 and the h weight
    xi = np.fft.fftfreq(g.n, d=g.h) * 2.0 * np.pi
    x0 = g.center - g.half_width
    vals = g.h * raw * np.exp(-1j * xi * x0)
    vals = np.fft.fftshift(vals)
    return SpectralFunction(fg, vals, g, tail_warning=not _tails_decay(f.values))


def inverse_transform(fhat: SpectralFunction) -> SampledFunction:
    """Exact inverse of :func:`forward_transform`."""
    g = fhat.space_grid
    xi = np.fft.fftfreq(g.n, d=g.h) * 2.0 * np.pi
    x0 = g.center - g.half_width
    raw = np.fft.ifftshift(fhat.values) * np.exp(1j * xi * x0) / g.h
    return SampledFunction(g, np.fft.ifft(raw))


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")


def _linear_convolution(f: SampledFunction, g: SampledFunction, full_of) -> SampledFunction:
    """h-weighted linear convolution on the shared grid; ``full_of`` returns
    the full linear convolution of the two sample arrays."""
    _require_same_grid(f, g)
    grid = f.grid
    n = grid.n
    c_cells = grid.center / grid.h
    if abs(c_cells - round(c_cells)) > 1e-9:
        raise GridMismatch("grid center must be an integer multiple of the step")
    full = full_of(f.values, g.values)
    # linear conv index k sits at position 2*(center-half_width) + k*h
    shift = n // 2 - int(round(c_cells))
    idx = np.arange(n) + shift
    out = np.zeros(n, dtype=np.complex128)
    ok = (idx >= 0) & (idx < len(full))
    out[ok] = full[idx[ok]]
    return SampledFunction(grid, grid.h * out)


def _padded_fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution by FFT, both inputs zero-padded to twice their length."""
    n = 2 * len(a)
    return np.fft.ifft(np.fft.fft(a, n) * np.fft.fft(b, n))


def convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """h-weighted linear convolution, evaluated on the shared grid.

    Zero-pads to twice the length, so no periodic wrap-around occurs. The
    grid center must be an integer multiple of the step for the result
    samples to land on grid points.
    """
    return _linear_convolution(f, g, _padded_fft_convolve)


def convolve_direct(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Direct O(n^2) counterpart of :func:`convolve` (quadrature oracle path)."""
    return _linear_convolution(f, g, np.convolve)


def lp_norm(f: SampledFunction | Weight, p: float) -> float:
    """(h * sum |f|^p)^(1/p); max |f| for p = inf."""
    if p < 1:
        raise ValueError("p must be >= 1")
    a = np.abs(f.values)
    if np.isinf(p):
        return float(np.max(a)) if len(a) else 0.0
    return float((f.grid.h * np.sum(a**p)) ** (1.0 / p))


def weighted_l2(f: SampledFunction, w: Weight) -> float:
    """The weighted energy h * sum |f|^2 w (an integral, not a norm)."""
    _require_same_grid(f, w)
    return float(f.grid.h * np.sum(np.abs(f.values) ** 2 * w.values))


def save_weight_csv(w: Weight, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "w"])
        for x, v in zip(w.grid.xs, w.values):
            writer.writerow([repr(float(x)), repr(float(v))])


def load_weight_csv(path: str) -> Weight:
    xs, vals = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            xs.append(float(row[0]))
            vals.append(float(row[1]))
    return Weight(_grid_from_samples(np.asarray(xs)), np.asarray(vals))


def _grid_from_samples(xs: np.ndarray) -> Grid:
    n = len(xs)
    if n < 2:
        raise ValueError(f"a sampled weight needs at least 2 samples, got {n}")
    h = (xs[-1] - xs[0]) / (n - 1)
    half_width = n * h / 2.0
    center = xs[0] + half_width
    return Grid(float(center), float(half_width), n)
