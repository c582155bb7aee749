"""Littlewood-Paley decompositions, frequency annuli, and the dominating
weight chain w1 -> w2 -> w3 used to force almost-orthogonality.

The dyadic family uses the telescoping construction b^(xi) =
chi(xi) - chi(2 xi) with chi a smooth even cutoff equal to 1 on
|xi| <= 1 and supported in |xi| <= 2; band k carries b^(2^-k xi). The
band sum then telescopes to exactly 1 on 2^kmin <= |xi| <= 2^kmax.

The equally-spaced family periodizes a fixed bump: W^_L(xi) =
eta(xi/L) / sum_k eta(xi/L - k), which makes the translates sum to one
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import cells, sliding_max, smooth_plateau, standard_bump
from .errors import OscillabError
from .numerics import (Grid, PaddedSpectrum, SampledFunction, SpectralFunction, Weight,
                       _require_same_grid, _RowInverter, abs_spectrum, forward_transform,
                       lp_norm, multiplier_kernel, restrict, smoothing_majorant,
                       spectral_leak)

__all__ = [
    "DyadicFamily",
    "SpacedFamily",
    "AnnuliIndex",
    "dyadic_pieces",
    "square_function",
    "spaced_pieces",
    "spaced_energy",
    "dominating_weights",
    "DominatedChain",
    "band_limited_mollifier",
]


# ---------------------------------------------------------------------------
# dyadic family


@dataclass(frozen=True)
class DyadicFamily:
    """Dyadic multipliers b^(2^-k xi) for k in [kmin, kmax]."""

    kmin: int
    kmax: int

    def __post_init__(self):
        if not -1021 <= self.kmin <= self.kmax <= 1023:  # 2^(kmin-1), 2^kmax normal floats
            raise ValueError(f"need -1021 <= kmin <= kmax <= 1023, got {self.kmin}, {self.kmax}")

    def multiplier(self, k: int, xi: np.ndarray) -> np.ndarray:
        a = np.abs(np.asarray(xi, dtype=float))
        with np.errstate(over="ignore"):  # a quotient of inf lies where the plateau is 0
            return (smooth_plateau(a / 2.0**k, 1.0, 2.0)
                    - smooth_plateau(a / 2.0 ** (k - 1), 1.0, 2.0))

    @property
    def bands(self) -> range:
        return range(self.kmin, self.kmax + 1)

    def covered(self, xi: np.ndarray) -> np.ndarray:
        """Mask of frequencies where the band sum telescopes to one."""
        a = np.abs(np.asarray(xi, dtype=float))
        return (a >= 2.0**self.kmin) & (a <= 2.0**self.kmax)

    def band_sum(self, xi: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(xi, dtype=float))
        for k in self.bands:
            out = out + self.multiplier(k, xi)
        return out

    def telescoping_deviation(self, grid: Grid) -> float:
        """max |band sum - 1| over the covered frequencies of the grid's dual."""
        fg = grid.freq_grid()
        covered = fg.xs[self.covered(fg.xs)]
        if not covered.size:
            raise ValueError(f"dyadic family {self.kmin}..{self.kmax} covers no frequency of "
                             f"the grid's dual (step {fg.h:.4g}, |xi| <= {fg.half_width:.4g})")
        return float(np.max(np.abs(self.band_sum(covered) - 1.0)))


def dyadic_pieces(f: SampledFunction, fam: DyadicFamily) -> list[SampledFunction]:
    """Band restrictions of f via frequency multiplication.

    Raises :class:`OscillabError` when more than 1e-8 of the spectral
    energy sits outside the family's covered range.
    """
    fhat = forward_transform(f)
    xs = fhat.freq_grid.xs
    if (leak := spectral_leak(fhat, fam.covered(xs))) > 1e-8:
        raise OscillabError(f"{leak:.2e} of the energy lies outside the covered bands")
    return [restrict(fhat, fam.multiplier(k, xs)) for k in fam.bands]


def square_function(pieces: list[SampledFunction]) -> SampledFunction:
    """Pointwise quadratic aggregate (sum_k |piece_k|^2)^(1/2)."""
    if not pieces:
        raise ValueError("no pieces")
    acc = np.zeros(pieces[0].grid.n)
    for p in pieces:
        acc += np.abs(p.values) ** 2
    return SampledFunction(pieces[0].grid, np.sqrt(acc))


# ---------------------------------------------------------------------------
# equally-spaced family

# The piece budget: k_range refuses more translates than this, which bounds the work of
# spaced_energy and spaced_pieces at one full-grid inverse FFT per piece. The window
# and its products with f^, the phase and 1/h are evaluated only on each translate's
# support; the rest of a row keeps the values of a precomputed zero row. spaced_energy
# holds one block of pieces at a time; spaced_pieces returns every piece.
MAX_PIECES = 2**16
# Samples in one block of pieces, the working set of _RowInverter: its row and output
# blocks take 16 B per sample each (2 MiB together, about one core's L2 cache), its
# energy block 8 B more. 16 pieces on the n = 4096 grid, 8 on n = 8192, 1 from
# n = 2^16 on.
_BLOCK_SAMPLES = 2**16
# Window samples in one evaluation (64 KiB of float64).
_WINDOW_SAMPLES = 2**13


@dataclass(frozen=True)
class SpacedFamily:
    """Translates of W^_L at spacing L, an exact partition of unity."""

    L: float

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError(f"spacing L must be finite and positive, not {self.L!r}")

    def window_hat(self, xi: np.ndarray) -> np.ndarray:
        t = np.asarray(xi, dtype=float) / self.L
        num = standard_bump(t / 2.0)
        den = np.zeros_like(t)
        base = np.round(t)
        for d in range(-3, 4):
            den += standard_bump((t - (base + d)) / 2.0)
        return num / den

    def k_range(self, freq_grid: Grid) -> range:
        reach = (freq_grid.half_width + 2 * self.L) / self.L
        if reach > MAX_PIECES // 2 - 1:  # 2*ceil(reach) + 1 > MAX_PIECES, or reach = inf
            raise ValueError(f"spacing L={self.L!r} needs about {2 * reach:.3g} pieces, over "
                             f"the piece budget MAX_PIECES = 2^16")
        kmax = int(math.ceil(reach))
        return range(-kmax, kmax + 1)

    def spatial_window(self, grid: Grid) -> SampledFunction:
        """W_L, the inverse transform of W^_L, on the grid's kernel frame."""
        return multiplier_kernel(grid, self.window_hat)


def _support_width(fam: SpacedFamily, freq_grid: Grid) -> int:
    """Samples in each translate's window on the frequency grid."""
    return int(min(freq_grid.n, np.ceil(4.0 * fam.L / freq_grid.h) + 4))


def _translate_support(fam: SpacedFamily, freq_grid: Grid,
                       ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, values): row r holds W^_L(xi - ks[r] L) at the samples first[r] + j,
    j < _support_width, of the frequency grid, a window covering |xi - kL| < 2L and,
    where the grid goes on, at least one more sample at each end. At every other
    sample the translate is exactly 0.0."""
    n, dxi = freq_grid.n, freq_grid.h
    width = _support_width(fam, freq_grid)
    kl = ks * fam.L
    first = np.zeros(len(ks), dtype=np.int64)
    if width < n:  # else each window is the whole grid, and 2L may overflow
        first = np.clip(np.floor((kl - 2.0 * fam.L + freq_grid.half_width) / dxi)
                        .astype(np.int64) - 1, 0, n - width)
    return first, fam.window_hat(freq_grid.xs[first[:, None] + np.arange(width)] - kl[:, None])


def _spaced_spectra(fhat: SpectralFunction, fam: SpacedFamily, ks: np.ndarray,
                    inv: _RowInverter):
    """(jdx, x) of :meth:`~numerics._RowInverter.spectrum` for each block of at most
    inv.block translates of ks, in order: the samples of their windows (see
    :func:`_translate_support`) and f^ times W^_L there.

    The windows are evaluated for as many whole blocks of translates as fit
    _WINDOW_SAMPLES samples, and for one block where none fits, so a paused call
    holds at most max(_WINDOW_SAMPLES, block * width) window values; those of one
    evaluation are dropped before the next.
    """
    fg = fhat.freq_grid
    block = inv.block
    per_call = max(1, _WINDOW_SAMPLES // (_support_width(fam, fg) * block)) * block
    for lo in range(0, len(ks), per_call):
        first, mult = _translate_support(fam, fg, ks[lo:lo + per_call])
        for r in range(0, len(first), block):
            part = first[r:r + block, None] + np.arange(mult.shape[1])
            yield inv.spectrum(part, fhat.values[part] * mult[r:r + block])
        del first, mult, part


def _spaced_blocks(f: SampledFunction, fam: SpacedFamily):
    """The pieces of :func:`spaced_pieces` in k order, as the rows of one
    (block, n) array per block of at most _BLOCK_SAMPLES samples, each row
    inverted from its translate's support alone (:func:`_spaced_spectra`).
    A yielded block is valid only until the generator is advanced (see
    :meth:`~numerics._RowInverter.invert`).
    """
    fhat = forward_transform(f)
    inv = _RowInverter(f.grid, _BLOCK_SAMPLES)
    for jdx, x in _spaced_spectra(fhat, fam, np.array(fam.k_range(fhat.freq_grid)), inv):
        yield inv.invert(jdx, x)


def spaced_pieces(f: SampledFunction, fam: SpacedFamily) -> list[SampledFunction]:
    """Pieces f_k with f_k^ = f^ * W^_L(. - kL), for k over the grid's range."""
    return [SampledFunction(f.grid, row) for rows in _spaced_blocks(f, fam) for row in rows]


def _energy_bounds(g: Grid, peak: float, x: np.ndarray) -> np.ndarray:
    """B >= 2 E for each row of x, E the energy h sum |f|^2 w of the row's inverse
    as computed, from the values x that the row receives alone; peak is max(w).

    By Parseval the exact inverse of a row has squared norm sum |x|^2 / n, so
    h max(w) sum |x|^2 / n bounds its energy. B is twice that (the FFT's
    norm-wise error and the rounding of the sums are below 2^-40 of it for
    every grid up to 2^22 samples) plus 2^-1060 (1 + h n (1 + max w)), more than
    all that underflow to or within the subnormals can add to E and take from
    B. An overflow on the way reads inf, and a NaN in x NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sum(np.square(x.real) + np.square(x.imag), axis=-1)
        return norms * peak * (2.0 * g.h / g.n) + math.ldexp(1.0 + g.h * g.n * (1.0 + peak),
                                                              -1060)


def spaced_energy(f: SampledFunction, w: Weight, fam: SpacedFamily) -> float:
    """sum_k integral |f_k|^2 w over the pieces of :func:`spaced_pieces`: bit for
    bit the sum S of their weighted_l2 in k order, added left to right as Python
    3.11's sum adds floats, inverting only the pieces that can change a bit of it.

    One pass over the blocks of :func:`_spaced_spectra` evaluates each window
    once. E_k <= B_k / 2 (:func:`_energy_bounds`), so once S > 0 a piece with
    B_k < ulp(S)/2 is skipped, S + E_k rounding to S: a block inverts at once the
    pieces that the S before it cannot rule out. While S = 0, a piece with
    B_k < 2^-60 B* is deferred (B* the bound of f^ itself, which bounds every
    piece), and the deferred head is dropped when twice its bounds total less
    than ulp/2 of the first positive energy. Where a proof fails, the piece is
    inverted and added in its turn: a failed head from its windows evaluated
    again, while the paused walk holds its current block and evaluation; a
    deferred piece that S, turned positive in the piece's own block, cannot rule
    out from that block's values, alone. Both happen only in the block where S
    turns positive.

    Every piece of a zero f^ is 0, and so is every energy against a zero w while
    sum |f^/h|^2 is finite, since by Parseval no |f_k|^2 can then overflow: both
    return 0.0 before any piece is inverted.
    """
    _require_same_grid(f, w)
    g = f.grid
    fhat = forward_transform(f)
    ks = np.array(fam.k_range(fhat.freq_grid))
    peak = float(np.max(w.values))
    star = _energy_bounds(g, peak, fhat.values[None] / g.h)[0]
    if not fhat.values.any() or (peak == 0.0 and math.isfinite(star)):
        return 0.0
    cut = 2.0**-60 * star
    inv = _RowInverter(g, _BLOCK_SAMPLES)

    def added(total: float, pick: list) -> float:
        """total plus E_k of the pieces ks[pick] in order, their windows evaluated again."""
        for jdx, x in _spaced_spectra(fhat, fam, ks[pick], inv):
            for e in inv.energies(jdx, x, w):
                total += e
        return total

    bounds = np.empty(len(ks))
    total, head, lo = 0.0, [], 0  # head: the pieces deferred while the sum was 0
    for jdx, x in _spaced_spectra(fhat, fam, ks, inv):
        b = bounds[lo:lo + len(x)]
        b[:] = _energy_bounds(g, peak, x)
        keep = ~(b < (cut if total == 0.0 else math.ulp(total) / 2))
        found = iter(inv.energies(jdx[keep], x[keep], w) if keep.any() else [])
        for r, (kept, bound) in enumerate(zip(keep.tolist(), b.tolist())):
            if kept:
                e = next(found)
            elif total == 0.0:
                head.append(lo + r)
                continue
            elif bound < math.ulp(total) / 2:
                continue
            else:
                e = inv.energies(jdx[r:r + 1], x[r:r + 1], w)[0]
            if head and e != 0.0:
                if not 2.0 * float(np.sum(bounds[head])) < math.ulp(e) / 2:
                    total = added(total, head)
                head = []
            total += e
        lo += len(x)
        del jdx, x
    return added(total, head)  # a head is left when no energy was positive


# ---------------------------------------------------------------------------
# frequency annuli


@dataclass(frozen=True)
class AnnuliIndex:
    """The covering annuli: A_0 = {|xi| <= lam^(1/ell)} and, for p >= 1,
    A_p = {2^(p-3) lam^(1/ell) < |xi| <= 2^(p+1) lam^(1/ell)}; and the spaced
    band of each admissible p (see :meth:`band`)."""

    ell: int
    lam: float

    @property
    def base(self) -> float:
        return self.lam ** (1.0 / self.ell)

    def membership(self, p: int, xi: np.ndarray) -> np.ndarray:
        if p < 0:
            raise OscillabError("p must be nonnegative")
        a = np.abs(np.asarray(xi, dtype=float))
        if p == 0:
            return a <= self.base
        return (a > 2.0 ** (p - 3) * self.base) & (a <= 2.0 ** (p + 1) * self.base)

    def p_max(self, reach: float) -> int:
        """The first p >= 1 whose annulus lies wholly beyond |xi| = reach."""
        p = 1
        while 2.0 ** (p - 3) * self.base < reach:
            p += 1
        return p

    def band(self, p: int, a1: float) -> tuple[float, float]:
        """(L_p, 2^p lam^(1/ell)): the spacing 2^(-p/(ell-1)) lam^(1/ell) and the
        scale of band p for a phase with sup |phi'| = a1. Raises :class:`OscillabError`
        unless 1 <= 2^p < 4 a1 lam^((ell-1)/ell)."""
        ell = self.ell
        # from p = 1024 on, 2^p is above every float bound and 2.0**p would raise
        if not 0 <= p < 1024 or 2.0**p >= 4.0 * a1 * self.lam ** ((ell - 1.0) / ell):
            raise OscillabError(f"band p={p} outside [0, log2(4*A1*lam^((ell-1)/ell))) "
                                f"at A1 = {a1!r}")
        return 2.0 ** (-p / (ell - 1.0)) * self.base, 2.0**p * self.base


# ---------------------------------------------------------------------------
# dominating weight chain


def band_limited_mollifier(grid: Grid, scale: float) -> SampledFunction:
    """Real even mollifier on the grid's kernel frame whose transform is 1 on
    [-4*scale, 4*scale] and supported in [-8*scale, 8*scale].

    No nonnegative function can have a flat transform, so the smoothing
    step below uses |Phi| together with its mass, which is the exact
    majorant the uncertainty-principle inequality provides.
    """
    phi = multiplier_kernel(grid, lambda xi: smooth_plateau(xi / scale, 4.0, 8.0))
    return SampledFunction(phi.grid, phi.values.real)


def _theta_samples(grid: Grid, L: float) -> SampledFunction:
    """Theta_L on the grid's kernel frame: nonnegative, with nonnegative
    transform supported in [-L, L]. Built as 2*pi*|F^-1[b_L]|^2 with b_L a
    nonnegative even bump supported in [-L/2, L/2], so both sign conditions
    hold exactly (the spatial values are squared magnitudes; the transform
    is the autocorrelation of b_L)."""
    g = multiplier_kernel(grid, lambda xi: standard_bump(2.0 * xi / L))
    return SampledFunction(g.grid, 2.0 * np.pi * np.abs(g.values) ** 2)


@dataclass(frozen=True)
class DominatedChain:
    """The chain w1 <= w2 <= constant * w3, with its certified constant.

    ``constant`` is derived from the actual Theta samples by the
    one-sided-window argument, so the domination holds pointwise on
    interior cells (margin ``margin_cells``) by construction.
    """

    w1: Weight
    w2: Weight
    w3: Weight
    L: float
    scale: float
    constant: float
    margin_cells: int

    def dominates(self, rel_tol: float) -> bool:
        """w1 <= w2, and w2 <= constant * w3 * (1 + rel_tol) on interior cells."""
        inner = slice(self.margin_cells, self.w2.grid.n - self.margin_cells)
        return bool(np.all(self.w1.values <= self.w2.values)
                    and np.all(self.w2.values[inner]
                               <= self.constant * self.w3.values[inner] * (1 + rel_tol)))


@dataclass(frozen=True)
class _ChainKernels:
    """What the chain of band p at lam takes from the grid alone, built once for
    many weights: the band's spacing and scale, the half-width of w2's window,
    ||Phi_s||_1, the :func:`abs_spectrum` of Phi_s and of Theta_L, and the
    certified constant."""

    L: float
    scale: float
    margin_cells: int
    mass: float
    phi: PaddedSpectrum
    theta: PaddedSpectrum
    constant: float


def _chain_kernels(grid: Grid, p: int, lam: float, ell: int) -> _ChainKernels:
    """The kernels of the chain of band p at lam (A1 = 1) on the grid, at the
    spacing L and scale of :meth:`AnnuliIndex.band`."""
    L, scale = AnnuliIndex(ell, lam).band(p, 1.0)
    h = grid.h
    rho = 4.0 ** (-1.0 / (ell - 1.0)) / L
    s2 = cells(rho, h)
    phi = band_limited_mollifier(grid, scale)
    theta = _theta_samples(grid, L)
    mid = grid.n // 2  # x = 0 sits at this index of the kernel frame
    one_sided = h * float(np.sum(theta.values.real[mid: mid + s2 + 1]))
    constant = float("inf") if one_sided == 0.0 else 1.0 / one_sided
    return _ChainKernels(L, scale, s2, lp_norm(phi, 1), abs_spectrum(phi), abs_spectrum(theta),
                         constant)


def dominating_weights(w: Weight, p: int, lam: float, ell: int,
                       kernels: _ChainKernels | None = None) -> DominatedChain:
    """Build the dominating chain for band p at oscillation lam, for a phase
    normalized to A1 = 1: w1 = ||Phi_s||_1 (|Phi_s| * w), w2 its sliding maximum,
    w3 = Theta_L * w2. ``kernels``, the :func:`_chain_kernels` of w's grid at
    (p, lam, ell), saves building them again for each weight.
    """
    k = _chain_kernels(w.grid, p, lam, ell) if kernels is None else kernels
    w1 = Weight(w.grid, k.mass * smoothing_majorant(k.phi, w).values)
    w2 = Weight(w.grid, sliding_max(w1.values, k.margin_cells))
    w3 = smoothing_majorant(k.theta, w2)
    return DominatedChain(w1, w2, w3, k.L, k.scale, k.constant, k.margin_cells)
