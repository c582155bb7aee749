"""The oscillatory kernel K = exp(i*lam*phi) * psi and its spectral decay.

``build_kernel`` enforces the resolution rule lam * A1 * h <= pi/4 (at
least eight samples per wavelength of the worst-case local frequency
lam*|phi'|) plus h <= u/64 so the cutoff itself is resolved. The decay
check measures the stationary-phase quantities: the low-frequency
supremum of |K^| below lam^(1/ell), the normalized tail constant
|K^| * lam^(1/(2(ell-1))) * |xi|^((ell-2)/(2(ell-1))) between lam^(1/ell)
and lam, and the rapid-decay product |K^| * |xi|^N beyond 2*A1*lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnderResolved
from .lpaley import AnnuliIndex
from .numerics import (Grid, PaddedSpectrum, SampledFunction, convolve, forward_transform,
                       on_bump)
from .phases import FiniteTypeSpec, Phase, check_lambda, ensure_finite_type, normalize_phase

__all__ = [
    "Kernel",
    "DecayReport",
    "build_kernel",
    "normalized_kernel",
    "apply_T",
    "check_decay",
]


@dataclass(frozen=True)
class Kernel:
    phase: Phase
    spec: FiniteTypeSpec
    lam: float
    samples: SampledFunction

    @property
    def grid(self) -> Grid:
        return self.samples.grid


def admissible_step(spec: FiniteTypeSpec, lam: float) -> float:
    """The largest step the build accepts: A1 is the spec's sup of |phi'| on U."""
    a1 = spec.derivative_bound(1)
    osc = np.inf if a1 == 0.0 else np.pi / (4.0 * lam * a1)
    return min(osc, spec.support_halfwidth / 64.0)


def build_kernel(phase: Phase, spec: FiniteTypeSpec, lam: float, grid: Grid) -> Kernel:
    """Sample exp(i*lam*phi) * psi on the grid, psi the standard bump rescaled
    to the spec's support [x0 - u, x0 + u].

    The finite-type hypothesis is re-validated (degenerate phases are
    rejected here rather than producing a non-oscillatory kernel), and
    the oscillation must be resolved or :class:`UnderResolved` is raised
    with the largest admissible step.
    """
    check_lambda(lam)
    ensure_finite_type(phase, spec)
    max_step = admissible_step(spec, lam)
    if grid.h > max_step:
        raise UnderResolved(f"step {grid.h:.3e} cannot resolve lam={lam}", max_step)
    samples = on_bump(grid, spec.x0, spec.support_halfwidth,
                      lambda xs: np.exp(1j * lam * phase.eval(0, xs)))
    return Kernel(phase, spec, float(lam), samples)


def normalized_kernel(phase: Phase, spec: FiniteTypeSpec, lam: float,
                      half_width: float) -> Kernel:
    """The kernel in the phase's normalized frame on [-half_width, half_width], just
    under the admissible step; its ``lam`` is lam * epsilon, its ``spec`` normalized."""
    norm = normalize_phase(phase, spec)
    lam_eff = lam * spec.epsilon
    grid = Grid.from_step(0.0, half_width,
                          admissible_step(norm.spec, lam_eff) * 0.999)
    return build_kernel(norm.phase, norm.spec, lam_eff, grid)


def apply_T(kernel: Kernel | PaddedSpectrum, f: SampledFunction) -> SampledFunction:
    """T f = K * f, by padded FFT; f must share the kernel's grid.

    A caller that applies T to many inputs passes the kernel's
    :func:`oscillab.numerics.padded_spectrum` in place of the kernel, so K is
    transformed once for all of them.
    """
    return convolve(kernel if isinstance(kernel, PaddedSpectrum) else kernel.samples, f)


@dataclass(frozen=True)
class DecayReport:
    """Measured stationary-phase decay quantities for one (ell, lam)."""

    lam: float
    ell: int
    sup_low: float  # sup of |K^| over |xi| <= lam^(1/ell)
    tail_constants: tuple  # per-annulus max of the normalized tail quantity
    tail_max: float
    far_field: float  # max over |xi| >= 2*A1*lam of |K^| * |xi|^N


def check_decay(kernel: Kernel, N: int = 4) -> DecayReport:
    """Measure the decay quantities; the harness judges stability across lam.

    Requires the dual grid to reach 4*A1*lam, i.e. the build resolution
    rule with a factor-of-two margin on the far field, and N >= 0 with
    |xi|^N finite up to that reach.
    """
    xi_max = np.pi / kernel.grid.h
    if N < 0:
        raise ValueError(f"decay order N must be >= 0, got {N}")
    try:
        math.pow(xi_max, N)
    except OverflowError:
        raise ValueError(f"decay order N={N} overflows the far-field factor |xi|^N, "
                         f"|xi| <= {xi_max:.4g}") from None
    lam, ell = kernel.lam, kernel.spec.ell
    a1 = kernel.spec.derivative_bound(1)
    if xi_max < 4.0 * a1 * lam * (1.0 - 1e-9):
        raise UnderResolved("dual grid does not reach 4*A1*lam",
                            np.pi / (4.0 * a1 * lam))
    spec_fn = forward_transform(kernel.samples)
    a = np.abs(spec_fn.freq_grid.xs)
    mags = np.abs(spec_fn.values)
    annuli = AnnuliIndex(ell, lam)

    low = annuli.membership(0, a)
    sup_low = float(np.max(mags[low])) if np.any(low) else 0.0

    # the tail annuli A_p, p >= 1, cut to lam^(1/ell) < |xi| <= lam
    tail = (a > annuli.base) & (a <= lam)
    tail_exp = (ell - 2.0) / (2.0 * (ell - 1.0))
    tail_pref = lam ** (1.0 / (2.0 * (ell - 1.0)))
    consts = []
    for p in range(1, annuli.p_max(lam)):
        band = annuli.membership(p, a) & tail
        if np.any(band):
            consts.append(float(np.max(mags[band] * tail_pref * a[band] ** tail_exp)))
    tail_max = max(consts) if consts else 0.0

    far = a >= 2.0 * a1 * lam
    far_field = float(np.max(mags[far] * a[far] ** N)) if np.any(far) else 0.0
    return DecayReport(lam, ell, sup_low, tuple(consts), tail_max, far_field)
