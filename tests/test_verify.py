"""Harness operations: ratio records, power-law fits, sweeps and the
inequality instances on small seeded corpora."""

import weakref

import numpy as np
import pytest

from oscillab import lpaley, verify
from oscillab._util import standard_bump
from oscillab.errors import OscillabError
from oscillab.kernels import admissible_step, apply_T, build_kernel, normalized_kernel
from oscillab.lpaley import DyadicFamily, dyadic_pieces, square_function
from oscillab.maximal import approach_maximal, global_maximal, hardy_littlewood, regular_maximal
from oscillab.numerics import (Grid, SampledFunction, Weight, lp_norm, smoothing_majorant,
                               weighted_l2)
from oscillab.phases import Phase, finite_type_spec, normalize_phase
from oscillab.verify import (Provenance, RatioSample, _operator_corpus, _sweep_report,
                             envelope_check, envelope_constants, fit_power_law,
                             focusing_input, two_weight_ratio, maximal_norm_sweep,
                             operator_norm_sweep, random_band_function,
                             random_test_function, random_weight,
                             square_function_ratios, two_weight_sweep,
                             approach_grid, uncertainty_bounds_check,
                             uncertainty_samples, weight_chain_holds, weight_corpus)

from conftest import annuli_project, h1_atom, traced_peak


def cubic(lam, half_width=4.0, for_approach=True):
    ph = Phase.monomial(3)
    spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
    step = admissible_step(spec, lam) * 0.999
    if for_approach:
        step = min(step, 1.0 / (4.0 * lam))
    return ph, spec, Grid.from_step(0.0, half_width, step)


class TestFitPowerLaw:
    # log 1 = 0 is a valid abscissa: lam = 1 used to be refused by a bound of
    # the fit's own, lam > 1, outside phases.check_lambda
    @pytest.mark.parametrize("lams", [(16, 64, 256, 1024), (1, 2, 4, 8)])
    def test_exact_power_law(self, lams):
        slope, intercept, resid = fit_power_law(
            [(lam, 2.0 * lam ** (-2.0 / 3.0)) for lam in lams])
        assert slope == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert np.exp(intercept) == pytest.approx(2.0, rel=1e-12)
        assert resid <= 1e-12

    def test_lambda_below_one_meets_the_one_rule(self):
        with pytest.raises(ValueError, match="lambda 0.5 is below 1"):
            fit_power_law([(0.5, 1.0), (2.0, 1.0), (4.0, 1.0)])

    def test_constant_data(self):
        slope, _, _ = fit_power_law([(lam, 5.0) for lam in (4, 16, 64)])
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_noisy_slope_recovery(self):
        rng = np.random.default_rng(0)
        pts = [(lam, lam ** (-1.0 / 3.0) * (1 + rng.uniform(-0.05, 0.05)))
               for lam in 2.0 ** np.arange(4, 13)]
        slope, _, _ = fit_power_law(pts)
        assert abs(slope + 1.0 / 3.0) <= 0.03

    def test_too_few_points(self):
        with pytest.raises(OscillabError, match="need >= 3 distinct lambda values"):
            fit_power_law([(4.0, 1.0), (8.0, 0.5)])

    def test_nonpositive_value(self):
        with pytest.raises(OscillabError, match="value 0.0 at lambda 8.0 not positive"):
            fit_power_law([(4.0, 1.0), (8.0, 0.0), (16.0, 0.5)])

    def test_sweep_report_flags_bad_data(self):
        rep = _sweep_report([(64.0, 0.0), (128.0, 0.0), (256.0, 0.0)])
        assert rep.insufficient
        rep2 = _sweep_report([(64.0, 1.0)])
        assert rep2.insufficient
        # the fit's own refusals are reported; a lambda below 1 is not one of them
        with pytest.raises(ValueError, match="lambda 0.5 is below 1"):
            _sweep_report([(0.5, 1.0), (2.0, 1.0), (4.0, 1.0)])


class TestStabilityFactor:
    def test_single_value(self):
        assert verify.stability_factor([0.37]) == 1.0

    def test_zero_or_negative_minimum_is_infinite(self):
        assert verify.stability_factor([2.0, 0.0, 1.0]) == np.inf
        assert verify.stability_factor([0.0]) == np.inf
        assert verify.stability_factor([1.0, -0.5]) == np.inf

    def test_max_over_min(self):
        assert verify.stability_factor([3.0, 1.5, 6.0, 2.0]) == 4.0
        assert verify.stability_factor((0.1, 0.3)) == 0.3 / 0.1

    # check-lemmas skipped its envelope check when a constant was 0 (a
    # vacuous sample reads ratio 0), and so passed; it now fails
    @pytest.mark.parametrize("lhs, rhs", [(0.0, 1.0), (1.0, 0.0)], ids=["lhs-0", "rhs-0"])
    def test_check_lemmas_fails_on_a_zero_envelope_constant(self, lhs, rhs, tmp_path,
                                                            capsys, monkeypatch):
        from oscillab.cli import run

        def envelope(phase, spec, lam, p, k, N):
            return RatioSample.of(lhs, rhs) if lam == 256.0 else RatioSample.of(1.0, 1.0)

        monkeypatch.setattr(verify, "envelope_check", envelope)
        assert run(["check-lemmas", "--ell", "3", "--lambdas", "256,1024", "--pairs", "4",
                    "--out", str(tmp_path)]) == 1
        assert "lemma checks FAIL; envelope constants [0.0, 1.0]" in capsys.readouterr().out


class TestRatioSample:
    def test_product_identity(self):
        rs = RatioSample.of(3.7, 1.3)
        assert abs(rs.ratio * rs.rhs - rs.lhs) <= 1e-12 * max(rs.lhs, 1.0)
        assert not rs.vacuous

    def test_vacuous_flag(self):
        rs = RatioSample.of(0.5, 0.0)
        assert rs.vacuous and rs.ratio == 0.0


def frequency_restricted_ratio(kernel, f, w, provenance=Provenance()):
    """Single-annulus form of two_weight_ratio: rhs uses M M_approach M instead of
    M^2 M_approach M^4."""
    lhs = weighted_l2(apply_T(kernel, f), w)
    mid = approach_maximal(hardy_littlewood(w, 1), kernel.spec.ell, kernel.lam)
    return RatioSample.of(lhs, weighted_l2(f, hardy_littlewood(mid, 1)), provenance)


class TestTwoWeightInequality:
    LAM = 128.0

    def test_zero_input(self):
        ph, spec, g = cubic(self.LAM)
        w = random_weight(g, np.random.default_rng(0))
        K = build_kernel(ph, spec, self.LAM, g)
        rs = two_weight_ratio(K, SampledFunction(g, np.zeros(g.n)), w)
        assert rs.lhs == 0.0 and rs.ratio == 0.0

    def test_constant_weight_closed_form(self):
        # for w = 1 the iterated maximal functions fix constants, so the
        # ratio matches ||Tf||^2 / (2 lam^(-2/3) ||f||^2) computed directly
        ph, spec, g = cubic(self.LAM)
        rng = np.random.default_rng(1)
        f = random_test_function(g, rng, max_freq=self.LAM ** (1 / 3), support_halfwidth=1.0)
        w = Weight(g, np.ones(g.n))
        K = build_kernel(ph, spec, self.LAM, g)
        rs = two_weight_ratio(K, f, w)
        direct = weighted_l2(apply_T(K, f), w) / (
            2.0 * self.LAM ** (-2.0 / 3.0) * lp_norm(f, 2) ** 2)
        assert rs.ratio == pytest.approx(direct, rel=0.05)

    def test_random_pairs_bounded_and_deterministic(self):
        ph, spec, g = cubic(self.LAM)
        rng = np.random.default_rng(2)
        f = random_test_function(g, rng, max_freq=8.0, support_halfwidth=1.5)
        w = random_weight(g, rng)
        K = build_kernel(ph, spec, self.LAM, g)
        r1 = two_weight_ratio(K, f, w)
        r2 = two_weight_ratio(K, f, w)
        assert r1.lhs == r2.lhs and r1.rhs == r2.rhs
        assert not r1.vacuous
        assert r1.ratio < 10.0

    def test_recentred_cosine_frame(self):
        # the cos phase at pi/2 runs through the same normalized pipeline
        lam = 64.0
        ph = Phase.cosine()
        spec = finite_type_spec(ph, np.pi / 2, 3, epsilon=1.0, support_halfwidth=0.5)
        step = min(admissible_step(spec, lam) * 0.999, 1.0 / (4 * lam))
        g = Grid.from_step(0.0, 4.0, step)
        rng = np.random.default_rng(3)
        f = random_test_function(g, rng, max_freq=6.0, support_halfwidth=1.0)
        w = random_weight(g, rng)
        norm = normalize_phase(ph, spec)
        K = build_kernel(norm.phase, norm.spec, lam * spec.epsilon, g)
        rs = two_weight_ratio(K, f, w)
        assert rs.lhs > 0 and rs.rhs > 0 and np.isfinite(rs.ratio)

    def test_frequency_restricted_stable_in_p(self):
        from oscillab.lpaley import AnnuliIndex

        lam = 128.0
        ph, spec, g = cubic(lam)
        K = build_kernel(ph, spec, lam, g)
        idx = AnnuliIndex(3, lam)
        rng = np.random.default_rng(4)
        w = random_weight(g, rng)
        ratios = []
        for p in (0, 2, 4):
            f0 = random_test_function(g, rng, max_freq=2 * idx.base * 2.0**p,
                                      support_halfwidth=1.2)
            f = annuli_project(f0, idx, p)
            rs = frequency_restricted_ratio(K, f, w, Provenance(p=p))
            if not rs.vacuous:
                ratios.append(rs.ratio)
        assert ratios and max(ratios) < 20.0


class TestTwoWeightSweep:
    def test_cosine_input_lands_in_the_kernel_band(self):
        # f used to be drawn around xi = 0 in the original frame and then
        # modulated by exp(-i lam phi'(x0) x), which put it near xi = lam, far
        # outside the normalized kernel's band: the largest ratios read 2.9e-7,
        # 1.6e-9 and 2.5e-12 instead of the x^3 scale
        ph = Phase.cosine()
        spec = finite_type_spec(ph, np.pi / 2, 3, epsilon=1.0, support_halfwidth=0.5)
        sweep = two_weight_sweep(ph, spec, (64.0, 128.0, 256.0), pairs=4, seed=0)
        assert sweep.violation is None
        assert [lam for lam, _ in sweep.maxima] == [64.0, 128.0, 256.0]
        assert all(best >= 1e-3 for _, best in sweep.maxima)

    def test_one_kernel_per_lambda(self, monkeypatch):
        counts = {"build_kernel": 0, "normalize_phase": 0}

        def counting(name):
            real = getattr(verify, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(verify, name, counting(name))
        ph = Phase.monomial(2)
        spec = finite_type_spec(ph, 0.0, 2, epsilon=1.0, support_halfwidth=0.5)
        sweep = two_weight_sweep(ph, spec, (64.0, 128.0, 256.0), pairs=4, seed=0)
        assert len(sweep.samples) == 12
        assert counts == {"build_kernel": 3, "normalize_phase": 1}


class TestSquareFunctionRatios:
    GRID = Grid(0.0, 16.0, 4096)
    FAM = DyadicFamily(-2, 8)

    def test_unit_weight_reduces_to_energy_window(self):
        f = random_band_function(self.GRID, np.random.default_rng(5), 0.5, 128.0)
        w = Weight(self.GRID, np.ones(self.GRID.n))
        sq = square_function_ratios(f, w, self.FAM)
        assert 1.0 / 3.0 - 0.05 <= sq.forward.ratio <= 3.05
        assert 1.0 / 3.0 - 0.05 <= sq.backward.ratio <= 3.05

    def test_single_bin_forward_at_most_one(self):
        # spectrum concentrated where a single multiplier equals one
        from oscillab.numerics import SpectralFunction, inverse_transform

        fg = self.GRID.freq_grid()
        vals = np.zeros(self.GRID.n, dtype=np.complex128)
        j = int(np.argmin(np.abs(fg.xs - 2.0**4)))
        vals[j] = 1.0
        f = inverse_transform(SpectralFunction(self.GRID, vals))
        w = random_weight(self.GRID, np.random.default_rng(6))
        assert square_function_ratios(f, w, self.FAM).forward.ratio <= 1.0 + 0.05

    def test_zero_input_vacuous(self):
        f = SampledFunction(self.GRID, np.zeros(self.GRID.n))
        w = random_weight(self.GRID, np.random.default_rng(7))
        sq = square_function_ratios(f, w, self.FAM)
        assert sq.forward.lhs == 0.0 and sq.backward.lhs == 0.0
        assert sq.reconstruction_error == 0.0 and sq.energy_ratio == 0.0


    def test_backward_weight_reuses_the_forward_weight(self, monkeypatch):
        # M^3 w is M^2 (Mw), so each pair runs 3 maximal iterations, not 4
        f = random_band_function(self.GRID, np.random.default_rng(8), 0.5, 128.0)
        w = random_weight(self.GRID, np.random.default_rng(9))
        real, iterations = verify.hardy_littlewood, []
        monkeypatch.setattr(verify, "hardy_littlewood",
                            lambda v, k: iterations.append(k) or real(v, k))
        sq = square_function_ratios(f, w, self.FAM)
        assert iterations == [1, 2]
        sf = square_function(dyadic_pieces(f, self.FAM))
        assert sq.backward.rhs == weighted_l2(sf, real(w, 3))
        for v in [*weight_corpus(self.GRID, np.random.default_rng(10)), w]:
            assert real(real(v, 1), 2).values.tobytes() == real(v, 3).values.tobytes()


class TestUncertaintyBounds:
    def setup_case(self, seed):
        lam = 64.0
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        g = Grid.from_step(0.0, 8.0, admissible_step(spec, lam) * 0.999)
        K = build_kernel(ph, spec, lam, g)
        rng = np.random.default_rng(seed)
        f = random_band_function(g, rng, 0.0, 9.0)
        w = random_weight(g, rng)
        return K, f, w

    def test_ratios_at_most_one(self):
        for seed in range(4):
            K, f, w = self.setup_case(seed)
            mol, mol2 = uncertainty_bounds_check(f, K, w, (-10.0, 10.0))
            assert mol.ratio <= 1.0 + 1e-6
            assert mol2.ratio <= 1.0 + 1e-6

    def test_zero_weight_vacuous(self):
        K, f, _ = self.setup_case(0)
        w0 = Weight(K.grid, np.zeros(K.grid.n))
        mol, mol2 = uncertainty_bounds_check(f, K, w0, (-10.0, 10.0))
        assert mol.vacuous and mol2.vacuous

    def test_window_input_strictly_below_one(self):
        from oscillab.verify import _flat_window

        K, _, w = self.setup_case(1)
        psi = _flat_window(K.grid, -10.0, 10.0)
        mol, _ = uncertainty_bounds_check(psi, K, w, (-21.0, 21.0))
        assert mol.ratio < 1.0

    def test_support_violation(self):
        K, f, w = self.setup_case(2)
        with pytest.raises(OscillabError, match="leaks outside the declared interval"):
            uncertainty_bounds_check(f, K, w, (-2.0, 2.0))

    def test_recentred_cosine_samples_at_most_one(self):
        # measured through the normalized kernel; the kernel of cos itself,
        # built around its base point pi/2, gave mol2 ratios in the thousands
        ph = Phase.cosine()
        spec = finite_type_spec(ph, np.pi / 2, 3, epsilon=1.0, support_halfwidth=0.5)
        pairs = uncertainty_samples(ph, spec, 256.0, 8.0, 5, np.random.default_rng(2))
        assert all(rs.ratio <= 1.0 + 1e-6 for pair in pairs for rs in pair)


class TestEnvelope:
    PH = Phase.monomial(3)
    SPEC = finite_type_spec(PH, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)

    def test_zero_band_rejected(self):
        with pytest.raises(OscillabError, match=r"\|k\|=0 not comparable"):
            envelope_check(self.PH, self.SPEC, 1024.0, 3, k=0, N=2)

    def test_band_range_gate(self):
        with pytest.raises(OscillabError, match="band p=30 outside"):
            envelope_check(self.PH, self.SPEC, 256.0, 30, k=1, N=2)

    def test_constant_finite_and_stable(self):
        consts = [rs.ratio for rs in envelope_constants(self.PH, self.SPEC, (256.0, 1024.0), 3)]
        assert all(np.isfinite(c) and c > 0 for c in consts)
        assert max(consts) / min(consts) < 4.0

    def test_sup_norm_variant(self):
        # 23 = round(2^(p ell/(ell-1))), the nominal |k| of band p = 3 at ell = 3
        rs = envelope_check(self.PH, self.SPEC, 1024.0, 3, k=23, N=0)
        assert np.isfinite(rs.ratio) and rs.ratio > 0


class TestSweeps:
    def test_constant_corpus_closed_form(self):
        # the constant weight on the sweep's grid, at q = (ell/2)' = 3:
        # ||M_approach 1||_q / ||1||_q = 2*lam^(-2/ell) up to window quantization
        points = []
        for lam in (16.0, 64.0, 256.0):
            grid = Grid.from_step(0.0, 2.0, 1.0 / (16.0 * lam))
            w = Weight(grid, np.ones(grid.n))
            m = approach_maximal(w, 3, lam)
            points.append((lam, lp_norm(m, 3.0) / lp_norm(w, 3.0)))
        for lam, v in points:
            assert abs(v / (2.0 * lam ** (-2.0 / 3.0)) - 1) <= 0.03
        slope, _, _ = fit_power_law(points)
        assert abs(slope + 2.0 / 3.0) <= 0.02

    def test_single_lambda_flagged(self):
        rep = maximal_norm_sweep(3, [64.0])
        assert rep.insufficient

    def test_operator_sweep_small(self):
        ph = Phase.monomial(2)
        spec = finite_type_spec(ph, 0.0, 2, epsilon=1.0, support_halfwidth=0.5)
        rep = operator_norm_sweep(ph, spec, [64.0, 128.0, 256.0, 512.0])
        assert abs(rep.slope + 0.5) <= 0.15

    def test_focusing_input_realizes_lower_bound(self):
        lam = 256.0
        ph, spec, g = cubic(lam, for_approach=False)
        K = build_kernel(ph, spec, lam, g)
        foc = focusing_input(K)
        ratio = lp_norm(apply_T(K, foc), 3) / lp_norm(foc, 3)
        assert ratio >= 0.2 * lam ** (-1.0 / 3.0)


class TestSweepMemory:
    """The norm sweeps stream their corpora, so one lambda's traced peak is a
    few grid-sized arrays, not its 12-input corpus. At lambda = 256 the
    streamed sweeps peak at 6.2 float arrays (maximal) and 6.5 complex arrays
    (operator); holding the corpus as a list, at 16.9 and 17.0. The operator
    sweep keeps the kernel's padded spectrum (2 arrays), not the kernel: while
    its samples lived through the corpus, the peak was 7.5."""

    def test_maximal_sweep_holds_one_weight_at_a_time(self):
        n = Grid.from_step(0.0, 2.0, 1.0 / (16.0 * 256.0)).n
        maximal_norm_sweep(3, [256.0])
        assert traced_peak(lambda: maximal_norm_sweep(3, [256.0])) <= 12 * 8 * n

    def test_operator_sweep_holds_one_input_at_a_time(self):
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0)
        n = normalized_kernel(ph, spec, 256.0, 4.0).grid.n
        operator_norm_sweep(ph, spec, [256.0])
        assert traced_peak(lambda: operator_norm_sweep(ph, spec, [256.0])) <= 7 * 16 * n

    def test_operator_sweep_frees_the_kernel_samples_before_any_input(self, monkeypatch):
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0)
        samples, alive = [], []
        real_kernel, real_T = verify.normalized_kernel, verify.apply_T

        def kernel(*args):
            k = real_kernel(*args)
            samples.append(weakref.ref(k.samples.values))
            return k

        def T(khat, f):
            alive.append(samples[-1]() is not None)
            return real_T(khat, f)

        monkeypatch.setattr(verify, "normalized_kernel", kernel)
        monkeypatch.setattr(verify, "apply_T", T)
        operator_norm_sweep(ph, spec, [64.0, 128.0])
        assert len(samples) == 2 and alive == [False] * 24

    # The widest apertures reach far beyond the grid: 2,097,152 cells for the
    # global operator at ell = 2 on n = 4096. Clamped at n - 1, the region
    # supremum's buffers stay a few grid arrays; sized from the raw aperture they
    # took about 64 MB here. The grid stays this small so that a wrong build
    # cannot exhaust the machine.
    @pytest.mark.parametrize("op", [lambda w: global_maximal(w, 2),
                                    lambda w: regular_maximal(w, 2, beta=1.0)],
                             ids=["global", "regular-beta"])
    def test_wide_apertures_hold_a_few_grid_arrays(self, op):
        g = approach_grid(64.0)
        w = random_weight(g, np.random.default_rng(5))
        op(w)
        assert traced_peak(lambda: op(w)) <= 16 * 8 * g.n


class TestOneKernelSpectrumPerLambda:
    """The sweeps transform each lambda's kernel once and convolve every input
    with that spectrum; counted over the padded forward FFTs, those of length
    2n, grouped by n (each lambda has its own grid)."""

    @staticmethod
    def padded_ffts(monkeypatch) -> dict:
        counts = {}
        fft = np.fft.fft

        def counting(a, n=None, *args, **kwargs):
            if n is not None and n == 2 * len(a):
                counts[len(a)] = counts.get(len(a), 0) + 1
            return fft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counting)
        return counts

    def test_operator_sweep(self, monkeypatch):
        # 12 inputs and the kernel, where transforming K per input made 24
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0)
        counts = self.padded_ffts(monkeypatch)
        operator_norm_sweep(ph, spec, [64.0, 128.0])
        assert list(counts.values()) == [13, 13]

    def test_two_weight_sweep(self, monkeypatch):
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0)
        counts = self.padded_ffts(monkeypatch)
        two_weight_sweep(ph, spec, [64.0, 128.0], 3, 0)
        assert list(counts.values()) == [4, 4]

    def test_uncertainty_samples(self, monkeypatch):
        # per sample: T f and the weight of each smoothing majorant; once: the
        # kernel, T Psi and the two majorants' |Psi| and |T Psi|, where building
        # Psi for each sample made 6 per sample and 1 once
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        counts = self.padded_ffts(monkeypatch)
        uncertainty_samples(ph, spec, 64.0, 8.0, 3, np.random.default_rng(1))
        assert list(counts.values()) == [3 * 3 + 4]


class TestLemmaKernelsOncePerCall:
    @staticmethod
    def counted(monkeypatch, targets) -> dict:
        counts = {}
        for module, name in targets:
            real = getattr(module, name)

            def counting(*args, real=real, name=name):
                counts[name] = counts.get(name, 0) + 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        return counts

    def test_weight_chain(self, monkeypatch):
        counts = self.counted(monkeypatch, [(lpaley, "band_limited_mollifier"),
                                            (lpaley, "_theta_samples")])
        assert weight_chain_holds(3, 256.0, 3, 4, np.random.default_rng(0), 1e-9)
        assert counts == {"band_limited_mollifier": 1, "_theta_samples": 1}

    def test_chain_from_held_kernels_is_the_chain_bitwise(self):
        grid = Grid.from_step(0.0, 4.0, 1.0 / (8.0 * 256.0))
        kernels = lpaley._chain_kernels(grid, 3, 256.0, 3)
        for seed in range(3):
            w = random_weight(grid, np.random.default_rng(seed))
            held = lpaley.dominating_weights(w, 3, 256.0, 3, kernels)
            phi = lpaley.band_limited_mollifier(grid, held.scale)
            w1 = lp_norm(phi, 1) * smoothing_majorant(phi, w).values
            w3 = smoothing_majorant(lpaley._theta_samples(grid, held.L), held.w2)
            assert held.w1.values.tobytes() == w1.tobytes()
            assert held.w3.values.tobytes() == w3.values.tobytes()
            fresh = lpaley.dominating_weights(w, 3, 256.0, 3)
            assert (held.constant, held.margin_cells) == (fresh.constant, fresh.margin_cells)
            assert held.w2.values.tobytes() == fresh.w2.values.tobytes()

    def test_uncertainty_samples(self, monkeypatch):
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        counts = self.counted(monkeypatch, [(verify, "_flat_window")])
        pairs = uncertainty_samples(ph, spec, 64.0, 8.0, 3, np.random.default_rng(1))
        assert counts == {"_flat_window": 1}
        monkeypatch.undo()
        kernel = normalized_kernel(ph, spec, 64.0, 8.0)
        psi = verify._flat_window(kernel.grid, -10.0, 10.0)
        tpsi = apply_T(kernel, psi)
        rng = np.random.default_rng(1)
        for mol, mol2 in pairs:
            f = random_band_function(kernel.grid, rng, 0.0, 8.0)
            w = random_weight(kernel.grid, rng)
            tf = apply_T(kernel, f)
            assert mol.rhs == lp_norm(psi, 1) * weighted_l2(tf, smoothing_majorant(psi, w))
            assert mol2.rhs == lp_norm(tpsi, 1) * weighted_l2(f, smoothing_majorant(tpsi, w))


class TestCorpora:
    def test_quantized_weights_on_lattice(self):
        g = Grid(0.0, 2.0, 512)
        w = random_weight(g, np.random.default_rng(3))
        assert np.all(w.values * 4096 == np.round(w.values * 4096))

    def test_atom_mean_zero_and_bounded(self):
        g = Grid(0.0, 8.0, 2048)
        for width in (1.0, 0.25, 2.0 ** -6):
            a = h1_atom(g, width)
            assert abs(np.sum(a.values)) == 0.0
            half_cells = max(1, int(round(width / (2 * g.h))))
            actual = 2 * half_cells * g.h
            assert np.max(np.abs(a.values)) <= 1.0 / actual + 1e-12

    def test_band_function_support(self):
        from oscillab.numerics import forward_transform

        g = Grid(0.0, 8.0, 1024)
        f = random_band_function(g, np.random.default_rng(4), 2.0, 8.0)
        fh = forward_transform(f)
        sel = (np.abs(fh.freq_grid.xs) < 2.0) | (np.abs(fh.freq_grid.xs) > 8.0)
        assert np.max(np.abs(fh.values[sel])) <= 1e-9 * np.max(np.abs(fh.values))

    def test_weight_corpus_stream_is_the_frozen_list(self):
        # the list the corpus was built as before it was streamed: same weights,
        # same order, same draws
        def frozen_weight_corpus(grid, rng):
            xs = grid.xs
            span = 0.5 * grid.half_width
            out = [Weight(grid, np.ones(grid.n))]
            out.append(Weight(grid, standard_bump(xs / span)))
            spike = np.zeros(grid.n)
            spike[grid.n // 2] = 1.0
            out.append(Weight(grid, spike))
            out.append(Weight(grid, ((xs >= -span / 4) & (xs <= span / 4)).astype(float)))
            out.extend(random_weight(grid, rng) for _ in range(8))
            return out

        g = Grid(0.0, 2.0, 4096)
        rng_new, rng_old = np.random.default_rng(11), np.random.default_rng(11)
        got = list(weight_corpus(g, rng_new))
        want = frozen_weight_corpus(g, rng_old)
        assert [w.values.tobytes() for w in got] == [w.values.tobytes() for w in want]
        assert rng_new.random() == rng_old.random()


def frozen_random_test_function(grid, rng, max_freq, support_halfwidth):
    """The test function evaluated on the whole grid, as it was first written."""
    xs = grid.xs
    env = standard_bump(xs / support_halfwidth)
    acc = np.zeros(grid.n, dtype=np.complex128)
    for _ in range(6):
        freq = rng.uniform(-max_freq, max_freq)
        amp = rng.normal() + 1j * rng.normal()
        acc += amp * np.exp(1j * freq * xs)
    return SampledFunction(grid, acc * env)


class TestSupportOnlyTestFunction:
    """random_test_function evaluates the polynomial on its envelope's support
    only. On the support its bits are the dense function's, on both sides of
    numpy's 256 KiB temporary-elision threshold (16384 complex samples), which
    decides the operand order of the dense amp * exp(...). Off the support the
    dense function holds signed zeros acc * 0 and this one +0; no norm and no
    convolution output sees the difference."""

    @pytest.mark.parametrize("n", [8192, 16384, 32768])
    @pytest.mark.parametrize("support_halfwidth", [0.3, 1.5, 5.0])
    def test_bits_on_the_support(self, n, support_halfwidth):
        g = Grid(0.0, 4.0, n)
        rng_new, rng_old = np.random.default_rng(n), np.random.default_rng(n)
        got = random_test_function(g, rng_new, 40.0, support_halfwidth).values
        want = frozen_random_test_function(g, rng_old, 40.0, support_halfwidth).values
        inside = standard_bump(g.xs / support_halfwidth) > 0.0
        assert got[inside].tobytes() == want[inside].tobytes()
        assert not np.any(got[~inside]) and not np.any(want[~inside])
        assert rng_new.random() == rng_old.random()

    @pytest.mark.parametrize("n", [8192, 16384, 32768])
    def test_zero_signs_reach_no_output(self, n):
        lam = 256.0
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        g = Grid(0.0, 4.0, n)
        K = build_kernel(ph, spec, lam, g)
        w = random_weight(g, np.random.default_rng(1))
        got = random_test_function(g, np.random.default_rng(2), 12.0, 1.5)
        want = frozen_random_test_function(g, np.random.default_rng(2), 12.0, 1.5)
        assert got.values.tobytes() != want.values.tobytes()  # the zero signs differ
        assert apply_T(K, got).values.tobytes() == apply_T(K, want).values.tobytes()
        for p in (1, 2, 3, np.inf):
            assert lp_norm(got, p) == lp_norm(want, p)
        assert weighted_l2(got, w) == weighted_l2(want, w)

    @pytest.mark.parametrize("center", [0.0, 0.3])
    def test_draws_on_a_support_narrower_than_one_cell(self, center):
        # x = 0 is a sample of Grid(0, 4, 1024) and 0.3 / h is not an integer,
        # so the support is one sample, then none
        g = Grid(center, 4.0, 1024)
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        f = random_test_function(g, rng, 40.0, g.h / 4.0)
        assert np.count_nonzero(f.values) == (1 if center == 0.0 else 0)
        for _ in range(6):
            ref.uniform(-40.0, 40.0)
            ref.normal()
            ref.normal()
        assert rng.bit_generator.state == ref.bit_generator.state


def frozen_focusing_input(kernel):
    """The focusing input evaluated on the whole grid, as it was first written."""
    xs = kernel.grid.xs
    phase_vals = np.asarray(kernel.phase.eval(0, -xs))
    return SampledFunction(kernel.grid, np.exp(-1j * kernel.lam * phase_vals)
                           * standard_bump(xs / kernel.spec.support_halfwidth))


def frozen_modulated_bumps(kernel):
    """The operator sweep's modulated bumps on the whole grid, as first written."""
    grid = kernel.grid
    base = kernel.lam ** (1.0 / kernel.spec.ell)
    return [SampledFunction(grid, np.multiply(np.exp(1j * frac * base * grid.xs),
                                              standard_bump(grid.xs / 2.0)))
            for frac in (0.0, 0.35, 0.7)]


class TestSupportOnlyBumpInputs:
    """focusing_input and the operator sweep's modulated bumps evaluate their
    waves on the bump's support only, through numerics.on_bump. On the
    support their bits are the dense inputs', off it they are 0 where the
    dense ones held signed zeros; T f and every norm agree bitwise."""

    @staticmethod
    def pairs(n):
        ph = Phase.monomial(3)
        spec = finite_type_spec(ph, 0.0, 3, epsilon=1.0, support_halfwidth=0.5)
        K = build_kernel(ph, spec, 256.0, Grid(0.0, 4.0, n))
        corpus = _operator_corpus(K, np.random.default_rng(0))
        got = [next(corpus) for _ in range(4)]
        assert got[0].values.tobytes() == focusing_input(K).values.tobytes()
        want = [frozen_focusing_input(K)] + frozen_modulated_bumps(K)
        halfwidths = [spec.support_halfwidth] + [2.0] * 3
        return K, list(zip(got, want, halfwidths))

    @pytest.mark.parametrize("n", [8192, 16384, 32768])
    def test_bits_on_the_support(self, n):
        K, pairs = self.pairs(n)
        for got, want, u in pairs:
            inside = standard_bump(K.grid.xs / u) > 0.0
            assert got.values[inside].tobytes() == want.values[inside].tobytes()
            assert not np.any(got.values[~inside]) and not np.any(want.values[~inside])

    @pytest.mark.parametrize("n", [8192, 16384, 32768])
    def test_zero_signs_reach_no_output(self, n):
        K, pairs = self.pairs(n)
        for got, want, _ in pairs:
            assert apply_T(K, got).values.tobytes() == apply_T(K, want).values.tobytes()
            for p in (1, 2, 3, np.inf):
                assert lp_norm(got, p) == lp_norm(want, p)
