"""Smooth phase functions of finite type and their hypothesis checks.

A phase is of finite type ``ell`` at ``x0`` when its derivatives of order
2..ell-1 vanish there while the ell-th does not; locally it behaves like
``c*(x-x0)**ell`` plus an affine part. The checks here validate that
hypothesis quantitatively and verify the model comparability

    (1/2) |x-x0|^(ell-k)  <=  |phi^(k)(x)|  <=  A_ell |x-x0|^(ell-k)

on the support of interest, after the affine part is removed and the
phase is rescaled so its ell-th derivative at the base point is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateSupport, OrderUnavailable, ValidationFailed

__all__ = [
    "Phase",
    "FiniteTypeSpec",
    "TypeReport",
    "ComparabilityReport",
    "finite_type_spec",
    "check_lambda",
    "validate_finite_type",
    "ensure_finite_type",
    "comparability_check",
    "normalize_phase",
    "NormalizedPhase",
]

_FD_STEP = 1e-4
_FD_DEPTH = 2  # finite-difference orders allowed beyond the analytic ones
_ALL_ORDERS = 10**9
# The largest order a hypothesis is checked at: 171! overflows a float, so
# the monomial's derivatives end here, and every check does O(ell) work.
MAX_ELL = 170


class Phase:
    """A smooth phase with derivative evaluation.

    ``eval(k, x)`` returns the k-th derivative at ``x`` as a float ndarray,
    0-d for a scalar ``x``. Orders up to ``max_analytic_order`` are
    analytic; at most two further orders are supplied by 5-point centered
    differences at step 1e-4, beyond which :class:`OrderUnavailable` is
    raised.
    """

    def __init__(self, kind: str, eval_analytic: Callable[[int, np.ndarray], np.ndarray],
                 max_analytic_order: int):
        self.kind = kind
        self._eval_analytic = eval_analytic
        self.max_analytic_order = max_analytic_order

    def eval(self, k: int, x) -> np.ndarray:
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        xs = np.asarray(x, dtype=float)
        if k <= self.max_analytic_order:
            return np.asarray(self._eval_analytic(k, xs), dtype=float)
        if k - self.max_analytic_order > _FD_DEPTH:
            raise OrderUnavailable(
                f"order {k} exceeds analytic order {self.max_analytic_order} "
                f"by more than {_FD_DEPTH}")
        d = _FD_STEP
        lower = lambda t: self.eval(k - 1, t)
        return np.asarray((-lower(xs + 2 * d) + 8 * lower(xs + d)
                           - 8 * lower(xs - d) + lower(xs - 2 * d)) / (12 * d))

    @staticmethod
    def monomial(ell: int) -> "Phase":
        """phi(x) = x**ell; eval(k, x) = ell!/(ell-k)! * x**(ell-k)."""
        if ell < 1:
            raise ValueError("ell must be >= 1")
        if ell > MAX_ELL:
            raise ValueError(f"ell = {ell} is too large for the monomial phase: "
                             f"ell! overflows a float above ell = {MAX_ELL}")

        def ev(k, x):
            if k > ell:
                return np.zeros_like(x)
            return (math.factorial(ell) / math.factorial(ell - k)) * x ** (ell - k)

        return Phase("monomial", ev, _ALL_ORDERS)

    @staticmethod
    def cosine() -> "Phase":
        """phi(x) = cos x; the k-th derivative is cos(x + k*pi/2)."""
        return Phase("cosine", lambda k, x: np.cos(x + k * np.pi / 2), _ALL_ORDERS)

    @staticmethod
    def from_derivatives(derivs: Sequence[Callable]) -> "Phase":
        """User-supplied phase; ``derivs[k]`` evaluates the k-th derivative."""
        table = tuple(derivs)
        return Phase("user", lambda k, x: table[k](x), max_analytic_order=len(table) - 1)


@dataclass(frozen=True)
class FiniteTypeSpec:
    """Quantified finite-type hypothesis at a base point.

    ``bounds[j]`` is the sup bound A_j on |phi^(j)|; only orders up to
    ell+2 are recorded. ``support_halfwidth`` defines U = [x0-u, x0+u],
    on which |phi^(ell)| must stay at least epsilon/2.
    """

    x0: float
    ell: int
    epsilon: float
    bounds: tuple
    support_halfwidth: float

    def __post_init__(self):
        _check_hypothesis(self.x0, self.ell, self.epsilon, self.support_halfwidth)

    def derivative_bound(self, j: int) -> float:
        if j >= len(self.bounds):
            raise OrderUnavailable(
                f"bound A_{j} not recorded (orders above ell+2 are not kept)")
        return self.bounds[j]


def _check_hypothesis(x0: float, ell: int, epsilon: float | None, u: float | None) -> None:
    """Reject ell outside [2, MAX_ELL] and a non-finite x0, epsilon or u; None
    is not yet derived."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if ell > MAX_ELL:
        raise ValueError(f"ell = {ell} is above the budget MAX_ELL = {MAX_ELL}")
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    if epsilon is not None and not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and positive")
    if u is not None and not 0 < u < math.inf:
        raise ValueError("support halfwidth must be finite and positive")


def check_lambda(lam: float) -> None:
    """The domain of the oscillation parameter, for every kernel, approach
    region and --lambdas entry: lam finite and >= 1."""
    if not 1 <= lam < math.inf:
        why = "below 1" if lam < 1 else "not finite"
        raise ValueError(f"lambda {lam!r} is {why}: lam must be finite and >= 1")


def finite_type_spec(phase: Phase, x0: float, ell: int, epsilon: float | None = None,
                     support_halfwidth: float | None = None) -> FiniteTypeSpec:
    """Build a :class:`FiniteTypeSpec`, filling defaults from the phase once
    the given values are checked.

    ``epsilon`` defaults to |phi^(ell)(x0)|. When the support halfwidth
    is absent, a halving search picks the largest u <= 1 such that
    |phi^(ell)| >= epsilon/2 across a 1024-point grid on [x0-u, x0+u].
    """
    _check_hypothesis(x0, ell, epsilon, support_halfwidth)
    dval = float(phase.eval(ell, x0))
    if epsilon is None:
        epsilon = abs(dval)
        if epsilon == 0.0:
            raise ValidationFailed(f"phi^({ell})(x0) = 0: not finite type {ell} at {x0}")
    if support_halfwidth is None:
        u = 1.0
        for _ in range(40):
            xs = x0 + np.linspace(-u, u, 1024)
            if np.all(np.abs(phase.eval(ell, xs)) >= epsilon / 2):
                break
            u /= 2.0
        else:
            raise ValidationFailed("no support halfwidth with |phi^(ell)| >= epsilon/2 found")
        support_halfwidth = u
    xs = x0 + np.linspace(-support_halfwidth, support_halfwidth, 1024)
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = tuple(
            float(np.max(np.abs(phase.eval(j, xs)))) for j in range(ell + 3))
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"the derivatives of order <= ell + 2 = {ell + 2} of the phase are "
                         f"not finite on [x0 - u, x0 + u] at x0 = {x0!r}, u = "
                         f"{support_halfwidth!r}")
    return FiniteTypeSpec(x0, ell, float(epsilon), bounds, float(support_halfwidth))


@dataclass(frozen=True)
class TypeReport:
    """Outcome of the finite-type validation at the base point."""

    lower_orders: tuple  # |phi^(k)(x0)| for 2 <= k < ell
    ell_value: float  # phi^(ell)(x0), signed
    passed: bool
    failures: tuple


def validate_finite_type(phase: Phase, spec: FiniteTypeSpec, tol: float = 1e-10) -> TypeReport:
    """Check the finite-type hypothesis; a mere failure does not raise.

    Records |phi^(k)(x0)| for 2 <= k < ell (each must be at most ``tol``)
    and the signed phi^(ell)(x0), whose magnitude must be at least
    epsilon - tol. Derivatives up to ell+1 must be evaluable, otherwise
    :class:`OrderUnavailable` propagates.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    phase.eval(spec.ell + 1, spec.x0)  # availability gate
    failures = []
    lower = []
    for k in range(2, spec.ell):
        v = abs(float(phase.eval(k, spec.x0)))
        lower.append(v)
        if v > tol:
            failures.append(f"|phi^({k})(x0)| = {v:.3e} exceeds tol {tol:.1e}")
    dval = float(phase.eval(spec.ell, spec.x0))
    if abs(dval) < spec.epsilon - tol:
        failures.append(
            f"|phi^({spec.ell})(x0)| = {abs(dval):.3e} below epsilon = {spec.epsilon:.3e}")
    u = spec.support_halfwidth
    xs = spec.x0 + np.linspace(-u, u, 1024)
    if not np.all(np.abs(phase.eval(spec.ell, xs)) >= spec.epsilon / 2 - tol):
        failures.append("|phi^(ell)| drops below epsilon/2 on the support interval")
    return TypeReport(tuple(lower), dval, not failures, tuple(failures))


def ensure_finite_type(phase: Phase, spec: FiniteTypeSpec) -> TypeReport:
    """Gate form of :func:`validate_finite_type` at the default tolerance:
    raises on the first violation."""
    report = validate_finite_type(phase, spec)
    if not report.passed:
        raise ValidationFailed(report.failures[0])
    return report


@dataclass(frozen=True)
class ComparabilityReport:
    ratio_min: float
    ratio_max: float
    passed: bool


def comparability_check(phase: Phase, spec: FiniteTypeSpec, k: int,
                        grid_step: float) -> ComparabilityReport:
    """Tabulate |phi^(k)(x)| / |x-x0|^(ell-k) over U minus the base point.

    The affine Taylor part at x0 is removed and the phase divided by
    epsilon first, so the model bounds [1/2, A_ell] apply. Passes when
    the tabulated min and max sit inside those bounds with a 1e-3
    relative allowance.
    """
    if not (0 <= k <= spec.ell - 1):
        raise ValueError("k must satisfy 0 <= k <= ell-1")
    m = int(np.floor(spec.support_halfwidth / grid_step))
    if 2 * m + 1 < 8:
        raise DegenerateSupport(f"only {2 * m + 1} grid points on the support interval")
    norm = normalize_phase(phase, spec)
    offs = np.arange(1, m + 1) * grid_step
    xs = np.concatenate([-offs[::-1], offs])
    vals = np.abs(norm.phase.eval(k, xs))
    ratios = vals / np.abs(xs) ** (spec.ell - k)
    delta = 1e-3
    a_ell = spec.derivative_bound(spec.ell) / spec.epsilon
    lo, hi = 0.5 * (1 - delta), a_ell * (1 + delta)
    rmin, rmax = float(np.min(ratios)), float(np.max(ratios))
    return ComparabilityReport(rmin, rmax, lo <= rmin and rmax <= hi)


@dataclass(frozen=True)
class NormalizedPhase:
    """A phase reduced to base point 0 with unit ell-th derivative there.

    ``phase`` satisfies phi^(k)(0) = 0 for 0 <= k < ell and
    phi^(ell)(0) = 1 when the original meets its hypothesis with
    epsilon equal to the actual ell-th derivative. The original kernel
    exp(i*lam*phi_orig(t)) equals, up to the unimodular factor
    exp(i*lam*(phi_orig(x0) + phi_orig'(x0)*s)) at t = x0 + s, the kernel
    exp(i*(lambda_scale*lam)*phi(s)), conjugated when phi_orig^(ell)(x0) < 0.
    """

    phase: Phase
    spec: FiniteTypeSpec
    lambda_scale: float


def normalize_phase(phase: Phase, spec: FiniteTypeSpec) -> NormalizedPhase:
    """Translate to x0 = 0, remove the affine part, rescale by epsilon. The
    normalized spec bounds the normalized phase on the same support half-width.
    As phi(0) = phi'(0) = 0, bounds that break A0 <= A1*u or A1 <= A2*u mean
    the affine part cancelled phi(x0 + x) in floating point: ValueError."""
    x0, eps = spec.x0, spec.epsilon
    a = float(phase.eval(0, x0))
    b = float(phase.eval(1, x0))
    dval = float(phase.eval(spec.ell, x0))
    sign = -1.0 if dval < 0 else 1.0

    def ev(k, x):
        if k == 0:
            return sign * (phase.eval(0, x + x0) - a - b * x) / eps
        if k == 1:
            return sign * (phase.eval(1, x + x0) - b) / eps
        return sign * phase.eval(k, x + x0) / eps

    out = Phase(f"{phase.kind}-normalized", ev, phase.max_analytic_order)
    u = spec.support_halfwidth
    nspec = finite_type_spec(out, 0.0, spec.ell, epsilon=1.0, support_halfwidth=u)
    a0, a1, a2 = nspec.bounds[:3]
    if a0 > a1 * u * (1 + 1e-9) or a1 > a2 * u * (1 + 1e-9):
        raise ValueError(f"the affine part of the phase cancels in floating point at "
                         f"x0 = {x0!r}: the normalized bounds A0 = {a0:.3g}, A1 = {a1:.3g}, "
                         f"A2 = {a2:.3g} break A0 <= A1*u and A1 <= A2*u at u = {u!r}")
    return NormalizedPhase(out, nspec, lambda_scale=eps)
