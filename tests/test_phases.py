"""Finite-type hypothesis validation and model comparability."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscillab.errors import OscillabError
from oscillab.phases import (FiniteTypeSpec, Phase, ensure_finite_type, finite_type_spec,
                             normalize_phase, validate_finite_type)

from conftest import translated


class TestPhaseEvaluation:
    @given(st.integers(2, 6), st.integers(0, 4),
           st.floats(-2.0, 2.0, allow_nan=False))
    def test_monomial_derivative_formula(self, ell, k, x):
        import math

        ph = Phase.monomial(ell)
        got = float(np.asarray(ph.eval(k, x)))
        expect = 0.0 if k > ell else math.factorial(ell) / math.factorial(ell - k) * x ** (ell - k)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_cosine_all_orders(self):
        ph = Phase.cosine()
        xs = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(ph.eval(2, xs), -np.cos(xs), atol=1e-15)
        np.testing.assert_allclose(ph.eval(7, xs), np.sin(xs), atol=1e-15)

    @pytest.mark.parametrize("phase,orders", [
        (Phase.monomial(4), range(1, 5)),
        (Phase.cosine(), range(1, 5)),
    ])
    def test_finite_difference_consistency(self, phase, orders):
        # eval(k) must agree with the 5-point stencil of eval(k-1)
        d = 1e-4
        xs = np.linspace(-0.9, 0.9, 7)
        for k in orders:
            lower = lambda t: np.asarray(phase.eval(k - 1, t))
            fd = (-lower(xs + 2 * d) + 8 * lower(xs + d)
                  - 8 * lower(xs - d) + lower(xs - 2 * d)) / (12 * d)
            direct = np.asarray(phase.eval(k, xs))
            scale = np.max(np.abs(direct)) or 1.0
            assert np.max(np.abs(fd - direct)) <= 1e-5 * scale

    def test_user_kind_falls_back_to_differences(self):
        ph = Phase.from_derivatives([np.cos])  # only the value is analytic
        fd = float(np.asarray(ph.eval(1, 0.3)))
        assert fd == pytest.approx(-np.sin(0.3), abs=1e-8)
        with pytest.raises(OscillabError, match="order 4 exceeds analytic order 0"):
            ph.eval(4, 0.3)

    # one contract for every kind: a float ndarray, 0-d at a scalar x. The
    # monomial, the cosine and a difference order gave numpy scalars
    @pytest.mark.parametrize("phase, k", [
        (Phase.monomial(3), 2),
        (Phase.cosine(), 5),
        (Phase.from_derivatives([np.cos, lambda x: -np.sin(x)]), 1),
        (Phase.from_derivatives([np.cos, lambda x: -np.sin(x)]), 2),
        (normalize_phase(Phase.cosine(), finite_type_spec(
            Phase.cosine(), np.pi / 2, 3, epsilon=1.0, support_halfwidth=0.5)).phase, 3)],
        ids=["monomial", "cosine", "user-analytic", "user-difference", "normalized"])
    def test_eval_returns_a_float_ndarray(self, phase, k):
        for x, shape in ((0.3, ()), (np.linspace(-0.5, 0.5, 5), (5,))):
            out = phase.eval(k, x)
            assert type(out) is np.ndarray and out.dtype == np.float64
            assert out.shape == shape

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            Phase.monomial(2).eval(-1, 0.0)


class TestValidateFiniteType:
    def test_cubic_at_origin(self):
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        report = validate_finite_type(ph, spec)
        assert report.passed
        assert report.ell_value == pytest.approx(6.0)
        assert report.lower_orders[0] <= 1e-10

    def test_cosine_at_origin_type_two(self):
        ph = Phase.cosine()
        spec = finite_type_spec(ph, 0.0, 2, epsilon=0.5)
        report = validate_finite_type(ph, spec)
        assert report.passed
        assert report.ell_value == pytest.approx(-1.0)

    def test_cosine_at_half_pi_type_three(self):
        ph = Phase.cosine()
        spec = finite_type_spec(ph, np.pi / 2, 3, epsilon=0.5)
        report = validate_finite_type(ph, spec)
        assert report.passed
        assert report.lower_orders[0] <= 1e-10  # second derivative vanishes
        assert report.ell_value == pytest.approx(1.0)

    def test_cubic_fails_as_type_two(self):
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 2, epsilon=0.5, support_halfwidth=0.25)
        report = validate_finite_type(ph, spec)
        assert not report.passed
        with pytest.raises(OscillabError, match="below epsilon = 5.000e-01"):
            ensure_finite_type(ph, spec)

    def test_ell_below_two_rejected(self):
        with pytest.raises(ValueError):
            finite_type_spec(Phase.monomial(2), 0.0, 1)

    def test_translation_covariance(self):
        ph = Phase.cosine()
        spec = finite_type_spec(ph, np.pi / 2, 3, epsilon=1.0, support_halfwidth=0.4)
        base = validate_finite_type(ph, spec)
        a = 0.7
        shifted_spec = finite_type_spec(translated(ph, a), np.pi / 2 + a, 3,
                                        epsilon=1.0, support_halfwidth=0.4)
        shifted = validate_finite_type(translated(ph, a), shifted_spec)
        assert shifted.passed == base.passed
        assert shifted.ell_value == base.ell_value
        assert shifted.lower_orders == base.lower_orders

    def test_support_halfwidth_search(self):
        ph = Phase.cosine()
        spec = finite_type_spec(ph, 0.0, 2, epsilon=1.0)
        u = spec.support_halfwidth
        xs = np.linspace(-u, u, 512)
        assert np.all(np.abs(np.cos(xs)) >= 0.5)
        assert u <= 1.0

    def test_bounds_capped_at_ell_plus_two(self):
        spec = finite_type_spec(Phase.monomial(3), 0.0, 3, epsilon=1.0,
                                support_halfwidth=0.5)
        assert len(spec.bounds) == 6
        with pytest.raises(OscillabError, match="bound A_7 not recorded"):
            spec.derivative_bound(7)


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
        raise ValueError(f"only {2 * m + 1} grid points on the support interval")
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


class TestComparability:
    def test_cubic_first_derivative_ratio_is_three(self):
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        rep = comparability_check(ph, spec, 1, 0.01)
        assert rep.ratio_min == pytest.approx(3.0, rel=1e-9)
        assert rep.ratio_max == pytest.approx(3.0, rel=1e-9)
        assert rep.passed

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_monomial_value_ratio_is_one(self, ell):
        ph = Phase.monomial(ell)
        spec = finite_type_spec(ph, 0.0, ell, epsilon=1.0, support_halfwidth=0.5)
        rep = comparability_check(ph, spec, 0, 0.01)
        assert rep.ratio_min == pytest.approx(1.0, rel=1e-9)
        assert rep.ratio_max == pytest.approx(1.0, rel=1e-9)

    def test_recentred_cosine_against_tabulation(self):
        # oracle: direct tabulation of |phi'(x)| / x^2 for the normalized
        # phase x - sin(x) on ten thousand points
        ph = Phase.cosine()
        spec = finite_type_spec(ph, np.pi / 2, 3, epsilon=1.0, support_halfwidth=0.3)
        step = 0.3 / 5000
        rep = comparability_check(ph, spec, 1, step)
        offs = np.arange(1, 5000 + 1) * step
        xs = np.concatenate([-offs[::-1], offs])
        ratios = np.abs(1.0 - np.cos(xs)) / xs**2
        assert rep.ratio_min == pytest.approx(float(np.min(ratios)), rel=1e-9)
        assert rep.ratio_max == pytest.approx(float(np.max(ratios)), rel=1e-9)
        # the tabulated minimum sits just under 1/2: the model lower bound
        # is not met on this interval and the check reports that honestly
        assert rep.ratio_min < 0.5 * (1 - 1e-3)
        assert not rep.passed

    def test_degenerate_support(self):
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        with pytest.raises(ValueError, match="grid points on the support interval"):
            comparability_check(ph, spec, 1, 0.2)


class TestNormalization:
    def test_recentred_cosine_matches_closed_form(self):
        # normalizing cos at pi/2 (type 3) gives x - sin(x)
        ph = Phase.cosine()
        spec = finite_type_spec(ph, np.pi / 2, 3, epsilon=1.0, support_halfwidth=0.5)
        norm = normalize_phase(ph, spec)
        xs = np.linspace(-0.5, 0.5, 21)
        np.testing.assert_allclose(np.asarray(norm.phase.eval(0, xs)),
                                   xs - np.sin(xs), atol=1e-12)
        assert spec.epsilon == pytest.approx(1.0)
        # the normalized spec bounds x - sin(x) on [-1/2, 1/2], not cos on U
        assert norm.spec.derivative_bound(0) == pytest.approx(0.5 - np.sin(0.5))
        assert norm.spec.derivative_bound(1) == pytest.approx(1.0 - np.cos(0.5))

    def test_low_orders_vanish_after_normalization(self):
        ph = Phase.cosine()
        spec = finite_type_spec(ph, 0.0, 2, epsilon=1.0)
        norm = normalize_phase(ph, spec)
        for k in (0, 1):
            assert abs(float(np.asarray(norm.phase.eval(k, 0.0)))) <= 1e-12
        assert float(np.asarray(norm.phase.eval(2, 0.0))) == pytest.approx(1.0)

    def test_validated_after_normalization(self):
        ph = Phase.cosine()
        spec = finite_type_spec(ph, np.pi / 2, 3, epsilon=1.0, support_halfwidth=0.5)
        norm = normalize_phase(ph, spec)
        assert validate_finite_type(norm.phase, norm.spec).passed
