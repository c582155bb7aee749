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
from .numerics import (Grid, SampledFunction, SpectralFunction, Weight,
                       convolve, forward_transform, inverse_transform, lp_norm)

__all__ = [
    "DyadicFamily",
    "SpacedFamily",
    "AnnuliIndex",
    "dyadic_pieces",
    "square_function",
    "spaced_pieces",
    "dominating_weights",
    "DominatedChain",
    "annuli_project",
    "mollifier_weight",
    "band_limited_mollifier",
]


def _restrict(fhat: SpectralFunction, multiplier: np.ndarray) -> SampledFunction:
    """The function whose transform is f^ times the frequency multiplier."""
    return inverse_transform(SpectralFunction(fhat.freq_grid, fhat.values * multiplier,
                                              fhat.space_grid))


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
        return smooth_plateau(a / 2.0**k, 1.0, 2.0) - smooth_plateau(a / 2.0 ** (k - 1), 1.0, 2.0)

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
        xs = grid.freq_grid().xs
        return float(np.max(np.abs(self.band_sum(xs[self.covered(xs)]) - 1.0)))


def dyadic_pieces(f: SampledFunction, fam: DyadicFamily) -> list[SampledFunction]:
    """Band restrictions of f via frequency multiplication.

    Raises :class:`CoverageGap` when more than 1e-8 of the spectral
    energy sits outside the family's covered range.
    """
    fhat = forward_transform(f)
    xs = fhat.freq_grid.xs
    energy = np.abs(fhat.values) ** 2
    total = float(np.sum(energy))
    if total > 0.0:
        outside = float(np.sum(energy[~fam.covered(xs)]))
        if outside > 1e-8 * total:
            raise CoverageGap(
                f"{outside / total:.2e} of the energy lies outside the covered bands")
    return [_restrict(fhat, fam.multiplier(k, xs)) for k in fam.bands]


def square_function(pieces: list[SampledFunction]) -> SampledFunction:
    """Pointwise quadratic aggregate (sum_k |piece_k|^2)^(1/2)."""
    if not pieces:
        raise ValueError("no pieces")
    acc = np.zeros(pieces[0].grid.n)
    for p in pieces:
        acc += np.abs(p.values) ** 2
    return SampledFunction(pieces[0].grid, np.sqrt(acc).astype(np.complex128))


# ---------------------------------------------------------------------------
# equally-spaced family


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

    def translate_hat(self, k: int, xi: np.ndarray) -> np.ndarray:
        return self.window_hat(np.asarray(xi, dtype=float) - k * self.L)

    def k_range(self, freq_grid: Grid) -> range:
        xi_max = freq_grid.half_width
        kmax = int(math.ceil((xi_max + 2 * self.L) / self.L))
        return range(-kmax, kmax + 1)

    def spatial_window(self, grid: Grid) -> SampledFunction:
        """W_L sampled on the grid (inverse transform of W^_L)."""
        fg = grid.freq_grid()
        hat = SpectralFunction(fg, self.window_hat(fg.xs).astype(np.complex128), grid)
        return inverse_transform(hat)

    def decay_constant(self, grid: Grid, N: int) -> float:
        """Measured C_N in |W_L(x)| <= C_N * L / (1 + L|x|)^N."""
        w = self.spatial_window(grid)
        xs = grid.xs
        return float(np.max(np.abs(w.values) * (1.0 + self.L * np.abs(xs)) ** N / self.L))


def spaced_pieces(f: SampledFunction, fam: SpacedFamily) -> list[SampledFunction]:
    """Pieces f_k with f_k^ = f^ * W^_L(. - kL), for k over the grid's range."""
    fhat = forward_transform(f)
    xs = fhat.freq_grid.xs
    return [_restrict(fhat, fam.translate_hat(k, xs)) for k in fam.k_range(fhat.freq_grid)]


# ---------------------------------------------------------------------------
# frequency annuli


@dataclass(frozen=True)
class AnnuliIndex:
    """The covering annuli: A_0 = {|xi| <= lam^(1/ell)} and, for p >= 1,
    A_p = {2^(p-3) lam^(1/ell) < |xi| <= 2^(p+1) lam^(1/ell)}."""

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

    def p_max(self, freq_grid: Grid) -> int:
        xi_max = freq_grid.half_width
        p = 1
        while 2.0 ** (p - 3) * self.base < xi_max:
            p += 1
        return p

    def multiplicity(self, xi: np.ndarray, p_max: int) -> np.ndarray:
        counts = np.zeros(len(np.atleast_1d(xi)), dtype=int)
        for p in range(0, p_max + 1):
            counts += self.membership(p, xi).astype(int)
        return counts


def annuli_project(f: SampledFunction, idx: AnnuliIndex, p: int) -> SampledFunction:
    """Sharp frequency restriction of f to the p-th annulus."""
    fhat = forward_transform(f)
    return _restrict(fhat, idx.membership(p, fhat.freq_grid.xs))


# ---------------------------------------------------------------------------
# dominating weight chain


def band_limited_mollifier(grid: Grid, scale: float) -> SampledFunction:
    """Real even mollifier whose transform is 1 on [-4*scale, 4*scale] and
    supported in [-8*scale, 8*scale].

    No nonnegative function can have a flat transform, so the smoothing
    step below uses |Phi| together with its mass, which is the exact
    majorant the uncertainty-principle inequality provides.
    """
    fg = grid.freq_grid()
    hat = smooth_plateau(fg.xs / scale, 4.0, 8.0).astype(np.complex128)
    phi = inverse_transform(SpectralFunction(fg, hat, grid))
    return SampledFunction(grid, phi.values.real.astype(np.complex128))


def mollifier_weight(w: Weight, scale: float) -> Weight:
    """w1 = ||Phi_s||_1 * (|Phi_s| * w): the smoothing majorant at the given scale."""
    grid0 = Grid(0.0, w.grid.half_width, w.grid.n)
    phi = band_limited_mollifier(grid0, scale)
    mass = lp_norm(phi, 1)
    absphi = SampledFunction(grid0, np.abs(phi.values).astype(np.complex128))
    conv = convolve(absphi, SampledFunction(grid0, w.values.astype(np.complex128)))
    return Weight(w.grid, mass * np.maximum(conv.values.real, 0.0))


def _theta_samples(grid: Grid, L: float) -> np.ndarray:
    """Samples of Theta_L: nonnegative, with nonnegative transform supported
    in [-L, L]. Built as 2*pi*|F^-1[b_L]|^2 with b_L a nonnegative even
    bump supported in [-L/2, L/2], so both sign conditions hold exactly
    (the spatial values are squared magnitudes; the transform is the
    autocorrelation of b_L)."""
    fg = grid.freq_grid()
    b = standard_bump(2.0 * fg.xs / L).astype(np.complex128)
    g = inverse_transform(SpectralFunction(fg, b, grid))
    return 2.0 * np.pi * np.abs(g.values) ** 2


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


def dominating_weights(w: Weight, p: int, lam: float, ell: int, A1: float) -> DominatedChain:
    """Build the dominating chain for band p at oscillation lam.

    Requires 1 <= 2^p < 4*A1*lam^((ell-1)/ell); the spacing is
    L = 2^(-p/(ell-1)) * lam^(1/ell). ``A1`` is clamped below at 1/4 so
    the local-supremum window stays inside the positivity radius of
    Theta.
    """
    if p < 0 or 2.0**p >= 4.0 * max(A1, 0.25) * lam ** ((ell - 1.0) / ell):
        raise BadBand(f"band p={p} outside [0, log2(4*A1*lam^((ell-1)/ell)))")
    a1 = max(A1, 0.25)
    L = 2.0 ** (-p / (ell - 1.0)) * lam ** (1.0 / ell)
    scale = 2.0**p * lam ** (1.0 / ell)
    h = w.grid.h

    w1 = mollifier_weight(w, scale)

    rho = (4.0 * a1) ** (-1.0 / (ell - 1.0)) / L
    s2 = cells(rho, h)
    w2 = Weight(w.grid, sliding_max(w1.values, s2))

    grid0 = Grid(0.0, w.grid.half_width, w.grid.n)
    theta = _theta_samples(grid0, L)
    conv = convolve(SampledFunction(grid0, theta.astype(np.complex128)),
                    SampledFunction(grid0, w2.values.astype(np.complex128)))
    w3 = Weight(w.grid, np.maximum(conv.values.real, 0.0))

    mid = grid0.n // 2  # x = 0 sits at this index of the zero-centered grid
    one_sided = h * float(np.sum(theta[mid: mid + s2 + 1]))
    constant = float("inf") if one_sided == 0.0 else 1.0 / one_sided
    return DominatedChain(w1, w2, w3, L, scale, constant, s2)
