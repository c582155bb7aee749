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

import csv
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from ._util import standard_bump
from .errors import GridMismatch, UnderResolved
from .numerics import Grid, SampledFunction, SpectralFunction, convolve, forward_transform
from .phases import FiniteTypeSpec, Phase, ensure_finite_type

__all__ = [
    "Cutoff",
    "Kernel",
    "DecayReport",
    "build_kernel",
    "apply_T",
    "kernel_spectrum",
    "kernel_spectrum_quadrature",
    "check_decay",
    "decay_reports_csv",
]


@dataclass(frozen=True)
class Cutoff:
    """Smooth bump exp(-1/(1-t^2)) rescaled to [center-u, center+u]."""

    center: float
    halfwidth: float

    def __call__(self, x) -> np.ndarray:
        return standard_bump((np.asarray(x, dtype=float) - self.center) / self.halfwidth)

    def samples(self, grid: Grid) -> np.ndarray:
        return self(grid.xs)


@dataclass(frozen=True)
class Kernel:
    phase: Phase
    spec: FiniteTypeSpec
    lam: float
    cutoff: Cutoff
    samples: SampledFunction

    @property
    def grid(self) -> Grid:
        return self.samples.grid


def effective_a1(phase: Phase, spec: FiniteTypeSpec) -> float:
    """Bound on |phi'| over the cutoff support: the sharper of the computed
    sup on U and the supplied global bound."""
    xs = spec.x0 + np.linspace(-spec.support_halfwidth, spec.support_halfwidth, 1024)
    local = float(np.max(np.abs(np.asarray(phase.eval(1, xs)))))
    return min(local, spec.derivative_bound(1)) if len(spec.bounds) > 1 else local


def admissible_step(phase: Phase, spec: FiniteTypeSpec, lam: float) -> float:
    a1 = effective_a1(phase, spec)
    osc = np.inf if a1 == 0.0 else np.pi / (4.0 * lam * a1)
    return min(osc, spec.support_halfwidth / 64.0)


def build_kernel(phase: Phase, spec: FiniteTypeSpec, lam: float, grid: Grid) -> Kernel:
    """Sample exp(i*lam*phi) * psi on the grid.

    The finite-type hypothesis is re-validated (degenerate phases are
    rejected here rather than producing a non-oscillatory kernel), and
    the oscillation must be resolved or :class:`UnderResolved` is raised
    with the largest admissible step.
    """
    if lam < 1:
        raise ValueError("lam must be >= 1")
    ensure_finite_type(phase, spec)
    max_step = admissible_step(phase, spec, lam)
    if grid.h > max_step:
        raise UnderResolved(f"step {grid.h:.3e} cannot resolve lam={lam}", max_step)
    cutoff = Cutoff(spec.x0, spec.support_halfwidth)
    psi = cutoff.samples(grid)
    vals = np.zeros(grid.n, dtype=np.complex128)
    inside = psi > 0.0
    xs = grid.xs[inside]
    vals[inside] = np.exp(1j * lam * np.asarray(phase.eval(0, xs))) * psi[inside]
    return Kernel(phase, spec, float(lam), cutoff, SampledFunction(grid, vals))


def apply_T(kernel: Kernel, f: SampledFunction) -> SampledFunction:
    """T f = K * f, by padded FFT."""
    if f.grid != kernel.grid:
        raise GridMismatch("input must share the kernel grid")
    return convolve(kernel.samples, f)


def kernel_spectrum(kernel: Kernel) -> SpectralFunction:
    """K^ on the dual grid."""
    return forward_transform(kernel.samples)


def kernel_spectrum_quadrature(kernel: Kernel, xis) -> np.ndarray:
    """Adaptive-quadrature evaluation of K^ at arbitrary frequencies.

    Independent of the FFT path; absolute tolerance 1e-10 per component.
    """
    spec = kernel.spec
    lo = spec.x0 - spec.support_halfwidth
    hi = spec.x0 + spec.support_halfwidth
    phase0 = lambda x: float(np.asarray(kernel.phase.eval(0, x)))
    out = []
    for xi in np.atleast_1d(xis):
        def integrand(x, part, xi=xi):
            val = np.exp(1j * (kernel.lam * phase0(x) - xi * x)) * kernel.cutoff(x)
            return val.real if part == 0 else val.imag

        re, _ = quad(integrand, lo, hi, args=(0,), epsabs=1e-10, epsrel=1e-10, limit=4000)
        im, _ = quad(integrand, lo, hi, args=(1,), epsabs=1e-10, epsrel=1e-10, limit=4000)
        out.append(re + 1j * im)
    return np.asarray(out)


@dataclass(frozen=True)
class DecayReport:
    """Measured stationary-phase decay quantities for one (ell, lam)."""

    lam: float
    ell: int
    sup_low: float  # sup of |K^| over |xi| <= lam^(1/ell)
    tail_constants: tuple  # per-annulus max of the normalized tail quantity
    tail_max: float
    far_field: float  # max over |xi| >= 2*A1*lam of |K^| * |xi|^N
    far_field_order: int


def check_decay(kernel: Kernel, N: int = 4) -> DecayReport:
    """Measure the decay quantities; the harness judges stability across lam.

    Requires the dual grid to reach 4*A1*lam, i.e. the build resolution
    rule with a factor-of-two margin on the far field, and N >= 0.
    """
    if N < 0:
        raise ValueError(f"decay order N must be >= 0, got {N}")
    lam, ell = kernel.lam, kernel.spec.ell
    a1 = effective_a1(kernel.phase, kernel.spec)
    xi_max = np.pi / kernel.grid.h
    if xi_max < 4.0 * a1 * lam * (1.0 - 1e-9):
        raise UnderResolved("dual grid does not reach 4*A1*lam",
                            np.pi / (4.0 * a1 * lam))
    spec_fn = kernel_spectrum(kernel)
    xs = spec_fn.freq_grid.xs
    mags = np.abs(spec_fn.values)
    base = lam ** (1.0 / ell)

    low = np.abs(xs) <= base
    sup_low = float(np.max(mags[low])) if np.any(low) else 0.0

    tail_exp = (ell - 2.0) / (2.0 * (ell - 1.0))
    tail_pref = lam ** (1.0 / (2.0 * (ell - 1.0)))
    consts = []
    p = 1
    while 2.0 ** (p - 3) * base < lam:
        band = (np.abs(xs) > max(2.0 ** (p - 3) * base, base)) \
            & (np.abs(xs) <= min(2.0 ** (p + 1) * base, lam))
        if np.any(band):
            consts.append(float(np.max(
                mags[band] * tail_pref * np.abs(xs[band]) ** tail_exp)))
        p += 1
    tail_max = max(consts) if consts else 0.0

    far = np.abs(xs) >= 2.0 * a1 * lam
    far_field = float(np.max(mags[far] * np.abs(xs[far]) ** N)) if np.any(far) else 0.0
    return DecayReport(lam, ell, sup_low, tuple(consts), tail_max, far_field, N)


def decay_reports_csv(reports, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "ell", "sup_low", "tail_max", "far_field"])
        for r in reports:
            writer.writerow([repr(r.lam), r.ell, repr(r.sup_low),
                             repr(r.tail_max), repr(r.far_field)])
