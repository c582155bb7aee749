"""Experiment harness: both sides of every inequality under test, empirical
constants, operator-norm sweeps, and log-log exponent fits.

Inequalities with unspecified constants are measured as lhs/rhs ratios
over seeded corpora; scaling laws are measured as fitted log-log slopes
over powers-of-two oscillation parameters. Operator norms for p other
than 2 are estimated from below by corpus maximization; the focusing
inputs (phase-conjugated bumps) realize the known exponent, which is the
claim under test, rather than the constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from ._util import smooth_plateau, standard_bump
from .errors import BadBand, InsufficientPoints, NonpositiveValue, SupportViolation
from .kernels import (Kernel, admissible_step, apply_T, build_kernel, check_decay,
                      normalized_kernel)
from .lpaley import (AnnuliIndex, DyadicFamily, SpacedFamily, _chain_kernels,
                     dominating_weights, dyadic_pieces, spaced_energy, square_function)
from .maximal import approach_maximal, hardy_littlewood
from .numerics import (Grid, PaddedSpectrum, SampledFunction, SpectralFunction, Weight,
                       abs_spectrum, forward_transform, inverse_transform, lp_norm,
                       multiplier_kernel, on_bump, padded_spectrum, restrict, smoothing_majorant,
                       spectral_leak, weighted_l2)
from .phases import (FiniteTypeSpec, Phase, check_ell, check_lambda, finite_type_spec,
                     normalize_phase)

__all__ = [
    "Provenance",
    "RatioSample",
    "SquareFunctionSample",
    "SweepReport",
    "TwoWeightSweep",
    "stability_factor",
    "fit_power_law",
    "two_weight_ratio",
    "frequency_restricted_ratio",
    "two_weight_sweep",
    "spaced_ratio",
    "square_function_ratios",
    "baseline_two_weight",
    "baseline_square_samples",
    "baseline_spaced_constants",
    "uncertainty_bounds_check",
    "envelope_check",
    "weight_chain_holds",
    "uncertainty_samples",
    "envelope_constants",
    "kernel_decay_sweep",
    "lemma_checks",
    "lp_checks",
    "approach_grid",
    "maximal_norm_sweep",
    "operator_norm_sweep",
    "random_weight",
    "random_band_function",
    "random_test_function",
    "focusing_input",
    "h1_atom",
    "weight_corpus",
]


# ---------------------------------------------------------------------------
# result records


@dataclass(frozen=True)
class Provenance:
    f_id: str = ""
    w_id: str = ""
    ell: int = 0
    lam: float = 0.0
    seed: int = 0
    p: int | None = None


@dataclass(frozen=True)
class RatioSample:
    """lhs/rhs of one inequality instance; ratio is 0 with the vacuous flag
    when the right side vanishes."""

    lhs: float
    rhs: float
    ratio: float
    provenance: Provenance = field(default_factory=Provenance)
    vacuous: bool = False

    @staticmethod
    def of(lhs: float, rhs: float, provenance: Provenance = Provenance()) -> "RatioSample":
        if rhs > 0.0:
            return RatioSample(lhs, rhs, lhs / rhs, provenance)
        return RatioSample(lhs, rhs, 0.0, provenance, vacuous=True)


@dataclass(frozen=True)
class SquareFunctionSample:
    """Both square-function inequalities for one (f, w) pair, plus two
    checks on the same dyadic pieces: the reconstruction error
    max|sum_k P_k f - f| / max|f| and the energy ratio (||Sf||_2/||f||_2)^2.
    Both checks read 0.0 when f vanishes."""

    forward: RatioSample
    backward: RatioSample
    reconstruction_error: float
    energy_ratio: float


@dataclass(frozen=True)
class TwoWeightSweep:
    """Two-weight samples over several lambda, in draw order, and the
    largest ratio of each lambda that finished. A sweep that met a
    sample with rhs = 0 < lhs stopped there; that sample is ``violation``."""

    samples: tuple  # (RatioSample, ...)
    maxima: tuple  # ((lam, largest ratio), ...)
    violation: RatioSample | None = None


@dataclass(frozen=True)
class SweepReport:
    """Per-lambda measured values with a log-log least-squares fit."""

    points: tuple  # ((lam, value), ...)
    slope: float
    intercept: float
    max_residual: float
    insufficient: bool = False


def stability_factor(values) -> float:
    """max/min of a quantity measured across lambda; inf when the smallest is <= 0."""
    lo = min(values)
    return max(values) / lo if lo > 0 else math.inf


def fit_power_law(points) -> tuple[float, float, float]:
    """Least squares of log(value) against log(lam); residual in log units."""
    pts = sorted(points)
    if len({p[0] for p in pts}) < 3:
        raise InsufficientPoints(f"need >= 3 distinct lambda values, got {len(pts)}")
    for lam, v in pts:
        if v <= 0.0:
            raise NonpositiveValue(f"value {v} at lambda {lam} not positive")
        check_lambda(lam)
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return float(slope), float(intercept), resid


def _sweep_report(points) -> SweepReport:
    try:
        slope, intercept, resid = fit_power_law(points)
        return SweepReport(tuple(points), slope, intercept, resid)
    except (InsufficientPoints, NonpositiveValue):
        return SweepReport(tuple(points), float("nan"), float("nan"), float("nan"),
                           insufficient=True)


# ---------------------------------------------------------------------------
# corpora


def random_weight(grid: Grid, rng: np.random.Generator) -> Weight:
    """Sum of randomly placed smooth bumps, spikes and indicator blocks.

    The values are rounded to multiples of 2^-12 so window sums are exact
    in floating point regardless of summation order (the oracle
    comparisons rely on this).
    """
    xs = grid.xs
    span = 0.6 * grid.half_width
    vals = np.zeros(grid.n)
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(-span, span)
        wdt = rng.uniform(0.05, 0.5) * span
        vals += rng.uniform(0.2, 2.0) * standard_bump((xs - c) / wdt)
    for _ in range(rng.integers(0, 3)):
        j = rng.integers(grid.n // 5, 4 * grid.n // 5)
        vals[j] += rng.uniform(1.0, 8.0)
    for _ in range(rng.integers(0, 3)):
        a = rng.uniform(-span, span)
        b = a + rng.uniform(0.02, 0.4) * span
        vals += rng.uniform(0.1, 1.0) * ((xs >= a) & (xs <= b))
    if rng.random() < 0.3:
        vals += rng.uniform(0.01, 0.2)
    return Weight(grid, np.round(vals * 4096.0) / 4096.0)


def weight_corpus(grid: Grid, rng: np.random.Generator) -> Iterator[Weight]:
    """Constants, a centered bump, a spike, a block, plus 8 random mixtures.

    The weights are streamed: each is built when the next one is asked for,
    so a consumer that lets go of one before taking the next holds one at a
    time. Only the mixtures draw from ``rng``, in order.
    """
    span = 0.5 * grid.half_width
    yield Weight(grid, np.ones(grid.n))
    yield Weight(grid, standard_bump(grid.xs / span))
    yield Weight(grid, np.arange(grid.n) == grid.n // 2)
    yield Weight(grid, np.abs(grid.xs) <= span / 4)
    for _ in range(8):
        yield random_weight(grid, rng)


def random_band_function(grid: Grid, rng: np.random.Generator, lo: float,
                         hi: float) -> SampledFunction:
    """Random function with spectrum supported in lo <= |xi| <= hi."""
    fg = grid.freq_grid()
    sel = (np.abs(fg.xs) >= lo) & (np.abs(fg.xs) <= hi)
    vals = np.zeros(grid.n, dtype=np.complex128)
    vals[sel] = rng.normal(size=int(sel.sum())) + 1j * rng.normal(size=int(sel.sum()))
    vals[sel] *= np.exp(-np.abs(fg.xs[sel]) / max(hi, 1.0))
    return inverse_transform(SpectralFunction(grid, vals))


def random_test_function(grid: Grid, rng: np.random.Generator, max_freq: float,
                         support_halfwidth: float) -> SampledFunction:
    """Smooth random 6-term trigonometric polynomial under a compact envelope.

    The polynomial is evaluated only on the envelope's support; the samples
    outside it are 0. The 6 terms are drawn also when that support is empty.
    """
    # bit for bit the dense acc += amp * np.exp(...) over the whole grid: from
    # 16384 complex samples (256 KiB) numpy reuses that temporary and computes
    # exp * amp, and a complex product rounds differently with its operands swapped
    elided = grid.n >= 16384

    def polynomial(xs):
        acc = np.zeros(len(xs), dtype=np.complex128)
        for _ in range(6):
            freq = rng.uniform(-max_freq, max_freq)
            amp = rng.normal() + 1j * rng.normal()
            wave = np.exp(1j * freq * xs)
            acc += np.multiply(wave, amp) if elided else np.multiply(amp, wave)
        return acc

    return on_bump(grid, 0.0, support_halfwidth, polynomial)


def focusing_input(kernel: Kernel) -> SampledFunction:
    """Phase-conjugated bump on the kernel's support: maximizes |T f(0)|
    and realizes the norm lower bound at the known exponent."""
    return on_bump(kernel.grid, 0.0, kernel.spec.support_halfwidth,
                   lambda xs: np.exp(-1j * kernel.lam * kernel.phase.eval(0, -xs)))


def h1_atom(grid: Grid, width: float) -> SampledFunction:
    """Mean-zero atom on [-width/2, width/2] with |a| <= 1/width.

    The width snaps to an even cell count so the grid mean vanishes
    exactly.
    """
    half_cells = max(1, int(round(width / (2 * grid.h))))
    mid = grid.n // 2
    vals = np.zeros(grid.n)
    actual = 2 * half_cells * grid.h
    vals[mid - half_cells: mid] = 1.0 / actual
    vals[mid: mid + half_cells] = -1.0 / actual
    return SampledFunction(grid, vals)


# ---------------------------------------------------------------------------
# inequality instances


def _two_weight_ratio(kernel: Kernel, f: SampledFunction, w: Weight, provenance: Provenance,
                      k_inner: int, k_outer: int,
                      khat: PaddedSpectrum | None = None) -> RatioSample:
    """lhs = integral |T f|^2 w, rhs = integral |f|^2 * (M^k_outer M_approach M^k_inner w),
    with the approach region at the kernel's lam; T applies ``khat``, the kernel's
    padded spectrum, when the caller holds it."""
    lhs = weighted_l2(apply_T(kernel if khat is None else khat, f), w)
    inner = hardy_littlewood(w, k_inner)
    mid = approach_maximal(inner, kernel.spec.ell, kernel.lam)
    outer = hardy_littlewood(mid, k_outer)
    return RatioSample.of(lhs, weighted_l2(f, outer), provenance)


def two_weight_ratio(kernel: Kernel, f: SampledFunction, w: Weight,
                     provenance: Provenance = Provenance(),
                     khat: PaddedSpectrum | None = None) -> RatioSample:
    """The two-weight inequality: lhs = integral |T f|^2 w, rhs =
    integral |f|^2 * (M^2 M_approach M^4 w). ``khat``, the kernel's padded
    spectrum, saves transforming K again for each f."""
    return _two_weight_ratio(kernel, f, w, provenance, 4, 2, khat)


def frequency_restricted_ratio(kernel: Kernel, f: SampledFunction, w: Weight,
                               provenance: Provenance = Provenance()) -> RatioSample:
    """Single-annulus form: rhs uses M M_approach M instead of M^2 ... M^4."""
    return _two_weight_ratio(kernel, f, w, provenance, 1, 1)


def two_weight_sweep(phase: Phase, spec: FiniteTypeSpec, lambdas, pairs: int,
                     seed: int) -> TwoWeightSweep:
    """Two-weight ratios of ``pairs`` seeded (f, w) pairs at each lam in
    turn, stopping at the first sample with rhs = 0 < lhs.

    One kernel per lam, built in the phase's normalized frame at
    lam_eff = lam * epsilon on a grid of [-4, 4] that resolves both the
    kernel and the approach region at lam_eff. f is a random trigonometric
    polynomial with frequencies up to 2*lam_eff^(1/ell) under a bump of
    half-width 1.5, w a random weight; f, w and |T f|^2 all live in that
    frame, so w weighs the kernel's output where it is computed. Each lam
    draws from a fresh RNG seeded with ``seed``. K is transformed once per lam.
    """
    norm = normalize_phase(phase, spec)
    samples, maxima = [], []
    for lam in lambdas:
        rng = np.random.default_rng(seed)
        lam_eff = lam * spec.epsilon
        step = min(1.0 / (4.0 * lam_eff), admissible_step(norm.spec, lam_eff))
        grid = Grid.from_step(0.0, 4.0, step)
        kernel = build_kernel(norm.phase, norm.spec, lam_eff, grid)
        khat = padded_spectrum(kernel.samples)
        best = 0.0
        for i in range(pairs):
            f = random_test_function(grid, rng, max_freq=2.0 * lam_eff ** (1.0 / spec.ell),
                                     support_halfwidth=1.5)
            w = random_weight(grid, rng)
            rs = two_weight_ratio(kernel, f, w,
                                  Provenance(f"f{i}", f"w{i}", spec.ell, lam, seed), khat)
            samples.append(rs)
            if rs.vacuous and rs.lhs > 1e-10:
                return TwoWeightSweep(tuple(samples), tuple(maxima), rs)
            best = max(best, rs.ratio)
        maxima.append((lam, best))
        del khat  # held for this lam only, not while the next kernel is built
    return TwoWeightSweep(tuple(samples), tuple(maxima))


def square_function_ratios(f: SampledFunction, w: Weight, fam: DyadicFamily,
                           provenance: Provenance = Provenance()) -> SquareFunctionSample:
    """Forward and reverse square-function inequalities.

    forward: integral (Sf)^2 w over integral |f|^2 Mw
    backward: integral |f|^2 w over integral (Sf)^2 M^3 w, with M^3 w = M^2 (Mw)
    """
    pieces = dyadic_pieces(f, fam)
    sf = square_function(pieces)
    mw = hardy_littlewood(w, 1)
    forward = RatioSample.of(weighted_l2(sf, w), weighted_l2(f, mw), provenance)
    backward = RatioSample.of(weighted_l2(f, w),
                              weighted_l2(sf, hardy_littlewood(mw, 2)), provenance)
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        return SquareFunctionSample(forward, backward, 0.0, 0.0)
    recon = sum(p.values for p in pieces)
    return SquareFunctionSample(forward, backward,
                                float(np.max(np.abs(recon - f.values))) / peak,
                                (lp_norm(sf, 2) / lp_norm(f, 2)) ** 2)


def _flat_window(grid: Grid, lo: float, hi: float) -> SampledFunction:
    """Kernel on the grid's kernel frame whose transform is 1 on [lo, hi],
    supported on the doubled interval."""
    c, rho = (lo + hi) / 2.0, (hi - lo) / 2.0
    return multiplier_kernel(grid, lambda xi: smooth_plateau((xi - c) / rho, 1.0, 2.0))


def spaced_ratio(f: SampledFunction, w: Weight, fam: SpacedFamily,
                 provenance: Provenance = Provenance()) -> RatioSample:
    """Equally-spaced family: lhs = sum_k integral |P_k f|^2 w over
    rhs = integral |f|^2 (|W_L| * w), with W_L the family's spatial window."""
    lhs = spaced_energy(f, w, fam)
    rhs = weighted_l2(f, smoothing_majorant(fam.spatial_window(f.grid), w))
    return RatioSample.of(lhs, rhs, provenance)


@dataclass(frozen=True)
class _Mollifiers:
    """Psi and T Psi of :func:`uncertainty_bounds_check` for one kernel and
    declared support, built once for many (f, w): their L1 norms and their
    :func:`abs_spectrum`."""

    psi_mass: float
    psi: PaddedSpectrum
    tpsi_mass: float
    tpsi: PaddedSpectrum


def _mollifiers(grid: Grid, kernel: Kernel | PaddedSpectrum,
                psi_hat_support: tuple[float, float]) -> _Mollifiers:
    """Psi, flat on the declared support, and T Psi on the grid's kernel frame."""
    psi = _flat_window(grid, *psi_hat_support)
    tpsi = apply_T(kernel, psi)
    return _Mollifiers(lp_norm(psi, 1), abs_spectrum(psi), lp_norm(tpsi, 1), abs_spectrum(tpsi))


def uncertainty_bounds_check(f: SampledFunction, kernel: Kernel | PaddedSpectrum, w: Weight,
                             psi_hat_support: tuple[float, float],
                             provenance: Provenance = Provenance(),
                             mollifiers: _Mollifiers | None = None):
    """The two mollification bounds from the uncertainty principle.

    mol:  integral |Tf|^2 w   <= ||Psi||_1 integral |Tf|^2 (|Psi| * w)
    mol2: integral |Tf|^2 w   <= ||T Psi||_1 integral |f|^2 (|T Psi| * w)

    with Psi^ equal to one on the declared spectral support of f. Both
    are exact inequalities; the returned ratios must not exceed one
    beyond discretization error. T is applied as by :func:`apply_T`, so
    ``kernel`` may be the kernel's padded spectrum; ``mollifiers``, the
    :func:`_mollifiers` of f's grid, kernel and support, saves building Psi
    and T Psi again for each pair.
    """
    lo, hi = psi_hat_support
    fhat = forward_transform(f)
    xs = fhat.freq_grid.xs
    if spectral_leak(fhat, (xs >= lo) & (xs <= hi)) > 1e-8:
        raise SupportViolation("input spectrum leaks outside the declared interval")
    m = _mollifiers(f.grid, kernel, psi_hat_support) if mollifiers is None else mollifiers
    tf = apply_T(kernel, f)
    lhs = weighted_l2(tf, w)
    mol_rhs = m.psi_mass * weighted_l2(tf, smoothing_majorant(m.psi, w))
    mol2_rhs = m.tpsi_mass * weighted_l2(f, smoothing_majorant(m.tpsi, w))
    return RatioSample.of(lhs, mol_rhs, provenance), RatioSample.of(lhs, mol2_rhs, provenance)


def _envelope_band(spec: FiniteTypeSpec, nspec: FiniteTypeSpec, lam: float, p: int):
    """Band p of envelope_check at lam: at lam * epsilon, A1 of the normalized nspec, >= 1/4."""
    return AnnuliIndex(spec.ell, lam * spec.epsilon).band(p, max(nspec.derivative_bound(1), 0.25))


def envelope_check(phase: Phase, spec: FiniteTypeSpec, lam: float, p: int, k: int,
                   N: int, provenance: Provenance = Provenance()) -> RatioSample:
    """Envelope constant for one spaced-band piece pushed through T.

    With L and 2^p lam^(1/ell) from :meth:`AnnuliIndex.band` (A1 at least 1/4)
    and |k| comparable to 2^p lam^(1/ell) / L, measures

        sup_x |T Psi_{L,k}(x)| (1 + L|x|)^N
        -----------------------------------------------
        lam^(-1/ell) 2^(-p(ell-2)/(2(ell-1))) L

    whose stability across (lam, p) is the stationary-phase envelope
    claim.
    """
    kernel = normalized_kernel(phase, spec, lam, 8.0)
    lam_eff, ell = kernel.lam, spec.ell
    L, scale = _envelope_band(spec, kernel.spec, lam, p)
    k0 = scale / L
    if not (0.5 * k0 <= abs(k) <= 2.0 * k0):
        raise BadBand(f"|k|={abs(k)} not comparable to 2^p lam^(1/ell)/L = {k0:.1f}")
    grid = kernel.grid
    khat = forward_transform(kernel.samples)
    tpsi = restrict(khat, smooth_plateau((khat.freq_grid.xs - k * L) / L, 2.0, 4.0))
    half = grid.n // 4  # inner window: spectral wrap pollutes the outer edge
    mid = grid.n // 2
    window = slice(mid - half, mid + half)
    weighted = np.abs(tpsi.values[window]) * (1.0 + L * np.abs(grid.xs[window])) ** N
    lhs = float(np.max(weighted))
    rhs = lam_eff ** (-1.0 / ell) * 2.0 ** (-p * (ell - 2.0) / (2.0 * (ell - 1.0))) * L
    return RatioSample.of(lhs, rhs, provenance)


# ---------------------------------------------------------------------------
# sweeps: the CLI checks and the acceptance criteria measure through these and
# keep their thresholds themselves


def _largest_norm_ratio(op, corpus, p: float) -> float:
    """max over the corpus of ||op(x)||_p / ||x||_p; zero inputs are skipped.

    ``corpus`` is iterated once, so a generator streams it: each input is
    built only after the previous one has been measured.
    """
    best = 0.0
    for x in corpus:
        denom = lp_norm(x, p)
        if denom > 0.0:
            best = max(best, lp_norm(op(x), p) / denom)
    return best


def approach_grid(lam: float) -> Grid:
    """The grid of the approach-region measurements at lam: [-2, 2] at step 1/(16 lam)."""
    return Grid.from_step(0.0, 2.0, 1.0 / (16.0 * lam))


def maximal_norm_sweep(ell: int, lambdas, seed: int = 0) -> SweepReport:
    """Per lambda, the largest ||M_approach w||_q / ||w||_q over the weight
    corpus, with q = (ell/2)' and w on :func:`approach_grid`."""
    check_ell(ell)  # before q: at ell < 2, q < 1 and lp_norm would object first
    q = math.inf if ell == 2 else ell / (ell - 2.0)

    def one(lam: float) -> tuple[float, float]:
        rng = np.random.default_rng(seed)
        grid = approach_grid(lam)
        return float(lam), _largest_norm_ratio(lambda w: approach_maximal(w, ell, lam),
                                               weight_corpus(grid, rng), q)

    return _sweep_report([one(float(lam)) for lam in lambdas])


def _operator_corpus(kernel: Kernel, rng: np.random.Generator) -> Iterator[SampledFunction]:
    """The focusing input, 3 modulated bumps of half-width 2 at frequencies
    0, 0.35 and 0.7 times lam^(1/ell), then 8 random test functions with
    frequencies up to 2 lam^(1/ell) under a bump of half-width 2."""
    grid = kernel.grid
    yield focusing_input(kernel)
    base = kernel.lam ** (1.0 / kernel.spec.ell)
    for frac in (0.0, 0.35, 0.7):
        yield on_bump(grid, 0.0, 2.0, lambda xs: np.exp(1j * frac * base * xs))
    for _ in range(8):
        yield random_test_function(grid, rng, max_freq=2.0 * base, support_halfwidth=2.0)


def operator_norm_sweep(phase: Phase, spec: FiniteTypeSpec, lambdas,
                        seed: int = 0) -> SweepReport:
    """Per lambda, the largest ||T f||_ell / ||f||_ell over the corpus, on
    [-4, 4] at the kernel's admissible step.

    The corpus holds the focusing input, modulated wide bumps at
    frequencies spread through the low band, and 8 seeded random
    band-limited functions, streamed in that order; the measured value is
    a certified lower bound on the discretized operator norm. K is
    transformed once per lambda.
    """
    def one(lam: float) -> tuple[float, float]:
        kernel = normalized_kernel(phase, spec, lam, 4.0)
        khat = padded_spectrum(kernel.samples)
        return float(lam), _largest_norm_ratio(
            lambda f: apply_T(khat, f), _operator_corpus(kernel, np.random.default_rng(seed)),
            spec.ell)

    return _sweep_report([one(float(lam)) for lam in lambdas])


def _band_samples(grid: Grid, band: tuple[float, float], draws: int,
                  rng: np.random.Generator, measure, label: Provenance = Provenance()) -> list:
    """measure(f, w, provenance) for ``draws`` random f with |xi| in band, each then a random w."""
    return [measure(random_band_function(grid, rng, *band), random_weight(grid, rng),
                    replace(label, f_id=f"f{i}", w_id=f"w{i}")) for i in range(draws)]


def weight_chain_holds(p: int, lam: float, ell: int, draws: int,
                       rng: np.random.Generator, rel_tol: float) -> bool:
    """Whether the chain of band p at lam (A1 = 1) dominates to ``rel_tol`` for each of
    ``draws`` random weights on [-4, 4] at step 1/(8 lam); all are drawn whatever the
    outcome. The chain's kernels are built once for all of them."""
    grid = Grid.from_step(0.0, 4.0, 1.0 / (8.0 * lam))
    kernels = _chain_kernels(grid, p, lam, ell)
    return all([dominating_weights(random_weight(grid, rng), p, lam, ell, kernels)
                .dominates(rel_tol) for _ in range(draws)])


def uncertainty_samples(phase: Phase, spec: FiniteTypeSpec, lam: float, band_hi: float,
                        draws: int, rng: np.random.Generator, seed: int = 0) -> list:
    """(mol, mol2) of ``draws`` pairs through the normalized kernel on [-8, 8],
    f with |xi| <= band_hi inside the declared support [-10, 10]; K is
    transformed, and Psi and T Psi built, once for all of them."""
    kernel = normalized_kernel(phase, spec, lam, 8.0)
    khat = padded_spectrum(kernel.samples)
    mollifiers = _mollifiers(kernel.grid, khat, (-10.0, 10.0))
    return _band_samples(
        kernel.grid, (0.0, band_hi), draws, rng,
        lambda f, w, pv: uncertainty_bounds_check(f, khat, w, (-10.0, 10.0), pv, mollifiers),
        Provenance(ell=spec.ell, lam=lam, seed=seed))


def envelope_constants(phase: Phase, spec: FiniteTypeSpec, lambdas, p: int) -> list[RatioSample]:
    """The envelope constant of band p at each lam, with N = 2 and the
    nominal |k| = 2^p lam^(1/ell) / L = 2^(p ell/(ell-1)) rounded."""
    k0 = int(round(2.0 ** (p * spec.ell / (spec.ell - 1.0))))
    return [envelope_check(phase, spec, lam, p, k=k0, N=2) for lam in lambdas]


def kernel_decay_sweep(phase: Phase, spec: FiniteTypeSpec, lambdas, N: int,
                       tail_slack: float) -> tuple[list, float, bool]:
    """check_decay of the normalized kernel on [-2u, 2u], reported at each lam: the reports,
    max/min of lam^(1/ell) sup_low (inf if one is 0), whether all tail_max <= tail_slack * first."""
    u = spec.support_halfwidth
    reports = [replace(check_decay(normalized_kernel(phase, spec, lam, 2.0 * u), N=N),
                       lam=float(lam)) for lam in lambdas]
    factor = stability_factor([r.sup_low * r.lam ** (1.0 / spec.ell) for r in reports])
    return reports, factor, all(r.tail_max <= tail_slack * reports[0].tail_max
                                for r in reports)


def lemma_checks(phase: Phase, spec: FiniteTypeSpec, lambdas, p: int, pairs: int,
                 seed: int, chain_tol: float) -> tuple[bool, list, list]:
    """The check-lemmas corpus: from one RNG, at the first lam, the chain over ``pairs``
    weights and max(1, pairs // 4) uncertainty samples with |xi| <= 8; the envelope."""
    nspec = normalize_phase(phase, spec).spec
    try:  # before the first draw, every band the run asks for: the chain's (A1 = 1), the envelopes'
        lam = lambdas[0]
        AnnuliIndex(spec.ell, lam).band(p, 1.0)
        for lam in lambdas:
            _envelope_band(spec, nspec, lam, p)
    except BadBand as exc:
        raise BadBand(f"lambda = {lam!r}: {exc}") from None
    rng = np.random.default_rng(seed)
    holds = weight_chain_holds(p, lambdas[0], spec.ell, pairs, rng, chain_tol)
    mols = uncertainty_samples(phase, spec, lambdas[0], 8.0, max(1, pairs // 4), rng, seed)
    return holds, mols, envelope_constants(phase, spec, lambdas, p)


def lp_checks(fam: DyadicFamily, spaced, pairs: int, seed: int) -> tuple[float, list, dict]:
    """The check-lp corpus on Grid(0, 16, 4096): fam's telescoping deviation,
    then from one RNG ``pairs`` square samples with 2^kmin * 1.01 <= |xi| <=
    min(2^kmax, 0.9 xi_max) and {L: [one sample with |xi| <= 128]}. Every
    spacing's piece budget, and that fam covers a frequency, are checked
    before the first draw."""
    grid = Grid(0.0, 16.0, 4096)
    for sf in spaced:
        sf.k_range(grid.freq_grid())
    deviation = fam.telescoping_deviation(grid)
    rng = np.random.default_rng(seed)
    label = Provenance(seed=seed)
    band = (2.0**fam.kmin * 1.01, min(2.0**fam.kmax, 0.9 * grid.freq_grid().half_width))
    square = _band_samples(grid, band, pairs, rng,
                           lambda f, w, pv: square_function_ratios(f, w, fam, pv), label)
    return deviation, square, {
        sf.L: _band_samples(grid, (0.0, 2.0**7), 1, rng,
                            lambda f, w, pv: spaced_ratio(f, w, sf, pv), label)
        for sf in spaced}


# ---------------------------------------------------------------------------
# frozen-baseline recipes: tests/baselines.json holds their values and the
# acceptance suite re-measures them


def baseline_two_weight(ell: int, pairs: int, seed: int) -> TwoWeightSweep:
    """The two-weight sweep of x^ell at 0 (epsilon = 1, u = 1/2) over
    lam = 64, 256, 1024."""
    phase = Phase.monomial(ell)
    spec = finite_type_spec(phase, 0.0, ell, epsilon=1.0, support_halfwidth=0.5)
    return two_weight_sweep(phase, spec, (64.0, 256.0, 1024.0), pairs, seed)


def baseline_square_samples(pairs: int, seed: int) -> list[SquareFunctionSample]:
    """Square-function samples of DyadicFamily(-2, 8) on Grid(0, 16, 4096),
    f band-limited to 0.5 <= |xi| <= 128, one RNG for all pairs."""
    fam = DyadicFamily(-2, 8)
    return _band_samples(Grid(0.0, 16.0, 4096), (0.5, 128.0), pairs, np.random.default_rng(seed),
                         lambda f, w, pv: square_function_ratios(f, w, fam, pv))


def baseline_spaced_constants(seed: int) -> dict[float, float]:
    """Per spacing L, the largest spaced-family ratio over 4 pairs on
    Grid(0, 32, 8192), f band-limited to |xi| <= 60, one RNG for all L."""
    grid = Grid(0.0, 32.0, 8192)
    rng = np.random.default_rng(seed)
    return {fam.L: max(rs.ratio for rs in _band_samples(
                grid, (0.0, 60.0), 4, rng, lambda f, w, pv: spaced_ratio(f, w, fam, pv)))
            for fam in map(SpacedFamily, (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0))}
