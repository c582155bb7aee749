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
from .errors import BadBand, CoverageGap
from .numerics import (Grid, SampledFunction, Weight, _require_same_grid, _support_rows,
                       forward_transform, lp_norm, multiplier_kernel, restrict,
                       smoothing_majorant, spectral_leak)

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
    "annuli_project",
    "mollifier_weight",
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

    Raises :class:`CoverageGap` when more than 1e-8 of the spectral
    energy sits outside the family's covered range.
    """
    fhat = forward_transform(f)
    xs = fhat.freq_grid.xs
    if (leak := spectral_leak(fhat, fam.covered(xs))) > 1e-8:
        raise CoverageGap(f"{leak:.2e} of the energy lies outside the covered bands")
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
# Samples in one block of pieces (2 MiB of complex128, about one core's L2 cache):
# 32 pieces on the n = 4096 grid, 16 on n = 8192, 1 from n = 2^17 on. It budgets the
# window samples of one evaluation too: all 6,439 translates of L = 0.125 on the
# n = 4096 grid of check-lp (7 samples each) in one, one whole-grid window per
# evaluation once a window has 2^17 samples or more.
_BLOCK_SAMPLES = 2**17


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

    def decay_constant(self, grid: Grid, N: int) -> float:
        """Measured C_N in |W_L(x)| <= C_N * L / (1 + L|x|)^N."""
        w = self.spatial_window(grid)
        return float(np.max(np.abs(w.values) * (1.0 + self.L * np.abs(w.grid.xs)) ** N / self.L))


def _support_width(fam: SpacedFamily, freq_grid: Grid) -> int:
    """Samples in each translate's window on the frequency grid."""
    return int(min(freq_grid.n, np.ceil(4.0 * fam.L / freq_grid.h) + 4))


def _translate_support(fam: SpacedFamily, freq_grid: Grid,
                       ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(idx, values): row r holds W^_L(xi - ks[r] L) at the samples idx[r] of the
    frequency grid, a window covering |xi - kL| < 2L and, where the grid goes on,
    at least one more sample at each end. At every other sample the translate is
    exactly 0.0."""
    n, dxi = freq_grid.n, freq_grid.h
    width = _support_width(fam, freq_grid)
    kl = ks * fam.L
    first = np.zeros(len(ks), dtype=np.int64)
    if width < n:  # else each window is the whole grid, and 2L may overflow
        first = np.clip(np.floor((kl - 2.0 * fam.L + freq_grid.half_width) / dxi)
                        .astype(np.int64) - 1, 0, n - width)
    idx = first[:, None] + np.arange(width)
    return idx, fam.window_hat(freq_grid.xs[idx] - kl[:, None])


def _spaced_blocks(f: SampledFunction, fam: SpacedFamily):
    """The pieces of :func:`spaced_pieces` in k order, as the rows of one
    (block, n) array per block of at most _BLOCK_SAMPLES samples, each row
    inverted from its translate's support alone.

    The windows are evaluated for as many whole blocks of translates as fit
    _BLOCK_SAMPLES window samples, and for one block where none fits, so a
    call holds at most max(_BLOCK_SAMPLES, n) window samples. A yielded block
    is valid only until the generator is advanced (see :func:`_support_rows`).
    """
    fhat = forward_transform(f)
    fg = fhat.freq_grid
    ks = np.array(fam.k_range(fg))
    block = max(1, _BLOCK_SAMPLES // f.grid.n)
    per_call = max(1, _BLOCK_SAMPLES // (_support_width(fam, fg) * block)) * block

    def supports():
        for lo in range(0, len(ks), per_call):
            idx, mult = _translate_support(fam, fg, ks[lo:lo + per_call])
            for r in range(0, len(idx), block):
                part = idx[r:r + block]
                yield part, fhat.values[part] * mult[r:r + block]

    return _support_rows(f.grid, supports())


def spaced_pieces(f: SampledFunction, fam: SpacedFamily) -> list[SampledFunction]:
    """Pieces f_k with f_k^ = f^ * W^_L(. - kL), for k over the grid's range."""
    return [SampledFunction(f.grid, row) for rows in _spaced_blocks(f, fam) for row in rows]


def spaced_energy(f: SampledFunction, w: Weight, fam: SpacedFamily) -> float:
    """sum_k integral |f_k|^2 w over the pieces of :func:`spaced_pieces`: bit for
    bit their weighted_l2 sum in k order, holding one block of pieces at a time.

    |rows|^2 w is formed in one reused float block, with the elementwise
    operations of weighted_l2 (``a**2`` is np.square), before the next block
    overwrites the rows."""
    _require_same_grid(f, w)

    def energies():
        energy = np.empty((0, f.grid.n))
        for rows in _spaced_blocks(f, fam):
            if len(rows) > len(energy):
                energy = np.empty(rows.shape)
            a = np.abs(rows, out=energy[:len(rows)])
            np.multiply(np.square(a, out=a), w.values, out=a)
            yield from (f.grid.h * np.sum(a, axis=-1)).tolist()

    return sum(energies())


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
            raise BadBand("p must be nonnegative")
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
        scale of band p for a phase with sup |phi'| = a1. Raises :class:`BadBand`
        unless 1 <= 2^p < 4 a1 lam^((ell-1)/ell)."""
        ell = self.ell
        # from p = 1024 on, 2^p is above every float bound and 2.0**p would raise
        if not 0 <= p < 1024 or 2.0**p >= 4.0 * a1 * self.lam ** ((ell - 1.0) / ell):
            raise BadBand(f"band p={p} outside [0, log2(4*A1*lam^((ell-1)/ell))) "
                          f"at A1 = {a1!r}")
        return 2.0 ** (-p / (ell - 1.0)) * self.base, 2.0**p * self.base

    def multiplicity(self, xi: np.ndarray, p_max: int) -> np.ndarray:
        counts = np.zeros(len(np.atleast_1d(xi)), dtype=int)
        for p in range(0, p_max + 1):
            counts += self.membership(p, xi).astype(int)
        return counts


def annuli_project(f: SampledFunction, idx: AnnuliIndex, p: int) -> SampledFunction:
    """Sharp frequency restriction of f to the p-th annulus."""
    fhat = forward_transform(f)
    return restrict(fhat, idx.membership(p, fhat.freq_grid.xs))


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


def mollifier_weight(w: Weight, scale: float) -> Weight:
    """w1 = ||Phi_s||_1 * (|Phi_s| * w): the smoothing majorant at the given scale."""
    phi = band_limited_mollifier(w.grid, scale)
    return Weight(w.grid, lp_norm(phi, 1) * smoothing_majorant(phi, w).values)


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


def dominating_weights(w: Weight, p: int, lam: float, ell: int) -> DominatedChain:
    """Build the dominating chain for band p at oscillation lam, for a phase
    normalized to A1 = 1, at the spacing L and scale of :meth:`AnnuliIndex.band`.
    """
    L, scale = AnnuliIndex(ell, lam).band(p, 1.0)
    h = w.grid.h

    w1 = mollifier_weight(w, scale)

    rho = 4.0 ** (-1.0 / (ell - 1.0)) / L
    s2 = cells(rho, h)
    w2 = Weight(w.grid, sliding_max(w1.values, s2))

    theta = _theta_samples(w.grid, L)
    w3 = smoothing_majorant(theta, w2)

    mid = w.grid.n // 2  # x = 0 sits at this index of the kernel frame
    one_sided = h * float(np.sum(theta.values.real[mid: mid + s2 + 1]))
    constant = float("inf") if one_sided == 0.0 else 1.0 / one_sided
    return DominatedChain(w1, w2, w3, L, scale, constant, s2)
