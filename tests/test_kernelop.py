"""Tests for the diagonal smoothing operator and its quantitative bounds."""

import itertools
import math

import numpy as np
import pytest

from jacksonsos import jackson, kernelop
from jacksonsos.chebpoly import (
    ChebPoly,
    chebyshev_nodes,
    grid_extrema,
    hamming_weight,
    mono_from_cheb,
)
from jacksonsos.jackson import (jackson_lambda, kernel_eval_1d, kernel_eval_nd, multi_lambda,
                               spectrum, verify_prop21)
from jacksonsos.kernelop import (
    apply_forward,
    apply_inverse,
    constant_C,
    deviation_bound_exact,
    lemma_bounds_check,
    theorem_threshold,
)
from jacksonsos.sos1d import decompose_kernel_slice, decompose_kernel_slices

from helpers import demo_f, random_cheb


class TestForward:
    def test_constant_fixed_point(self):
        c = ChebPoly.constant(2, 3.7)
        assert apply_forward(c, 6).coeffs == {(0, 0): 3.7}

    def test_scales_basis(self):
        got = apply_forward(ChebPoly.basis(1, (4,)), 5)
        assert got.coeffs[(4,)] == pytest.approx(0.1938434, abs=2e-6)

    def test_matches_quadrature_transform(self):
        """Diagonal action equals the node-sum integral transform."""
        rng = np.random.default_rng(0)
        r = 8
        for n in (1, 2):
            nodes = list(itertools.product(chebyshev_nodes(r + 1), repeat=n))
            w = 1.0 / len(nodes)
            p = random_cheb(rng, n, 5)
            smoothed = apply_forward(p, r)
            p_at_nodes = [p.eval(pt) for pt in nodes]
            for _ in range(10):
                x = rng.uniform(-1, 1, n)
                node_sum = sum(w * kernel_eval_nd(r, x, pt) * pv
                               for pt, pv in zip(nodes, p_at_nodes))
                assert node_sum == pytest.approx(smoothed.eval(x), abs=1e-9)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            apply_forward(ChebPoly.basis(1, (6,)), 5)
        with pytest.raises(ValueError):
            apply_inverse(ChebPoly.basis(2, (1, 6)), 5)


class TestInverse:
    def test_figure_coefficients_r5(self):
        mono = mono_from_cheb(apply_inverse(demo_f().shift(0.1), 5))
        expected = [1.61985, 0.968875, -5.15883, -2.40175, 5.15883]
        for k, want in enumerate(expected):
            assert mono.coeffs.get((k,), 0.0) == pytest.approx(want, abs=1e-4)

    def test_figure_coefficients_r7(self):
        mono = mono_from_cheb(apply_inverse(demo_f().shift(0.1), 7))
        expected = [1.28978, 0.456657, -2.5182, -1.67305, 2.5182]
        for k, want in enumerate(expected):
            assert mono.coeffs.get((k,), 0.0) == pytest.approx(want, abs=1e-4)

    def test_constants_fixed(self):
        c = ChebPoly.constant(1, -2.0)
        assert apply_inverse(c, 9).coeffs == {(0,): -2.0}

    def test_round_trip_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(0, 7))
            r = int(rng.integers(max(d, 1), 15))
            p = random_cheb(rng, n, d)
            back = apply_forward(apply_inverse(p, r), r)
            assert (back - p).max_abs_coeff() <= 1e-12 * max(
                p.max_abs_coeff(), 1e-30)

    def test_affine_equivariance(self):
        """a*p + b transforms to a*inverse(p) + b (constants untouched)."""
        rng = np.random.default_rng(2)
        p = random_cheb(rng, 2, 4)
        a, b = -1.7, 0.45
        lhs = apply_inverse(p.scale(a).shift(b), 9)
        rhs = apply_inverse(p, 9).scale(a).shift(b)
        assert (lhs - rhs).max_abs_coeff() <= 1e-13 * max(lhs.max_abs_coeff(), 1.0)

    def test_builds_only_the_lambdas_up_to_the_degree(self, monkeypatch):
        """apply_inverse at r = 200 on a degree-6 f builds lambda_0 .. lambda_6
        only, not the r + 1 of the whole spectrum, and divides by the same
        products as multi_lambda, bit for bit."""
        f = random_cheb(np.random.default_rng(7), 2, 6)
        expected = {k: c / multi_lambda(k, 200) for k, c in f.coeffs.items()}
        calls = []

        def counting(k, r):
            calls.append(k)
            return jackson_lambda(k, r)

        monkeypatch.setattr(kernelop, "jackson_lambda", counting, raising=False)
        monkeypatch.setattr(jackson, "jackson_lambda", counting)
        assert apply_inverse(f, 200).coeffs == expected
        assert len(calls) <= 7

    @pytest.mark.parametrize("warm", [2, 9])
    def test_memo_warm_for_another_degree(self, warm):
        """With the memo warm at (r, d') for a lower and a higher d', every
        coefficient is still c / prod_i jackson_lambda(kappa_i, r) (multi_lambda),
        bit for bit."""
        rng = np.random.default_rng(8)
        r = 31
        apply_inverse(random_cheb(rng, 1, warm), r)
        f = random_cheb(rng, 2, 5)
        expected = {k: c / multi_lambda(k, r) for k, c in f.coeffs.items()}
        for _ in range(2):      # the memo is filled at (r, 5), then read
            assert apply_inverse(f, r).coeffs == expected

    def test_memo_serves_no_other_kernel(self, monkeypatch):
        """A kernel swapped in for jackson_lambda is read even when the memo
        is warm for the same (r, d), and Jackson's again once it is undone."""
        f = random_cheb(np.random.default_rng(9), 1, 6)
        jackson_coeffs = apply_inverse(f, 20).coeffs
        monkeypatch.setattr(kernelop, "jackson_lambda", lambda k, r: 1.0 - k / (r + 1))
        assert apply_inverse(f, 20).coeffs == {
            kappa: c / (1.0 - kappa[0] / 21) for kappa, c in f.coeffs.items()}
        monkeypatch.undo()
        assert apply_inverse(f, 20).coeffs == jackson_coeffs


class TestAgainstMultiLambda:
    def test_coefficientwise_equal(self):
        """All three coefficient maps use prod_i lambda_{kappa_i} exactly."""
        rng = np.random.default_rng(6)
        for n in (1, 2, 3):
            for _ in range(5):
                d = int(rng.integers(1, 5))
                r = d + int(rng.integers(0, 12))
                p = random_cheb(rng, n, d)
                lam = {k: multi_lambda(k, r) for k in p.coeffs}
                assert apply_forward(p, r).coeffs == {
                    k: c * lam[k] for k, c in p.coeffs.items()}
                assert apply_inverse(p, r).coeffs == {
                    k: c / lam[k] for k, c in p.coeffs.items()}
                total = 0.0
                for k, c in p.coeffs.items():
                    total += abs(c) * abs(1.0 - 1.0 / lam[k])
                assert deviation_bound_exact(p, r) == total


class TestDeviationBound:
    def test_constant_is_zero(self):
        assert deviation_bound_exact(ChebPoly.constant(2, 5.0), 4) == 0.0

    def test_linear_closed_form(self):
        got = deviation_bound_exact(ChebPoly.basis(1, (1,)), 5)
        expected = abs(1.0 - 1.0 / math.cos(math.pi / 7))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.109916, abs=1e-6)

    def test_dominates_measured_sup(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 3))
            d = int(rng.integers(1, 5))
            r = int(rng.integers(d, 14))
            p = random_cheb(rng, n, d)
            diff = apply_inverse(p, r) - p
            lo, _, hi, _ = grid_extrema(diff)
            sup = max(abs(lo), abs(hi))
            bound = deviation_bound_exact(p, r)
            assert sup <= bound * (1 + 1e-12) + 1e-12

    def test_theorem_rate_on_random_inputs(self):
        """sup |inverse(p) - p| <= (p_max - p_min) * C(n, d) / r^2."""
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(1, 3))
            d = int(rng.integers(1, 5))
            p = random_cheb(rng, n, d)
            lo, _, hi, _ = grid_extrema(p)
            c_over = constant_C(n, d).sharpest
            r = int(math.ceil(theorem_threshold(n, d))) + int(rng.integers(0, 40))
            diff = apply_inverse(p, r) - p
            dlo, _, dhi, _ = grid_extrema(diff)
            sup = max(abs(dlo), abs(dhi))
            assert sup <= (hi - lo) * c_over / r ** 2 + 1e-12


class TestConstants:
    def test_constant_n1_d4(self):
        c = constant_C(1, 4)
        want = 2 * math.pi ** 2 * 16 * math.sqrt(2.0) * 5
        assert c.poly_in_d == pytest.approx(want, rel=1e-12)
        assert c.poly_in_d == pytest.approx(2233.2, abs=0.5)
        assert c.closed_min == c.poly_in_d
        # for n=1 the exact variant coincides with the closed form
        assert c.exact == pytest.approx(c.poly_in_d, rel=1e-12)
        assert c.sharpest <= c.closed_min

    def test_constant_n1_d1(self):
        c = constant_C(1, 1)
        assert c.poly_in_d == pytest.approx(4 * math.sqrt(2.0) * math.pi ** 2,
                                            rel=1e-12)
        assert c.poly_in_d == pytest.approx(55.83, abs=0.02)

    def test_exact_variant_by_enumeration(self):
        c = constant_C(2, 3)
        count = math.comb(5, 2)
        want = count * 2.0 ** (min(2, 3) / 2) * 2 * 4 * math.pi ** 2 * 9
        assert c.exact == pytest.approx(want, rel=1e-12)
        assert c.exact <= c.closed_min

    def test_threshold_values(self):
        assert theorem_threshold(1, 4) == pytest.approx(17.772, abs=1e-3)
        assert theorem_threshold(2, 2) == pytest.approx(4 * math.pi, rel=1e-12)
        assert theorem_threshold(1, 1) == pytest.approx(4.443, abs=1e-3)

    def test_guards(self):
        with pytest.raises(ValueError):
            constant_C(0, 1)
        with pytest.raises(ValueError):
            theorem_threshold(1, 0)


class TestLemmaBounds:
    def test_n1_d4_r18(self):
        report = lemma_bounds_check(1, 4, 18, samples=5)
        assert report.decay_applicable and report.inverse_applicable
        assert report.ok
        assert report.worst_decay <= report.decay_bound
        assert report.worst_inverse <= report.inverse_bound

    def test_zero_multidegree_trivial(self):
        # kappa = 0 contributes |1 - lambda_0| = 0, within any bound
        assert abs(1.0 - jackson_lambda(0, 7)) == 0.0

    def test_scaled_demo_coefficients(self):
        """The range-scaled demo polynomial obeys |p_kappa| <= 2^(-w/2)."""
        f = demo_f()
        scaled = f.scale(0.5)          # range of f on [-1,1] is [0, 2]
        for kappa, c in scaled.coeffs.items():
            w = hamming_weight(kappa)
            inner = abs(c) * 2.0 ** (-w)
            assert inner <= 2.0 ** (-w / 2.0) + 1e-15

    @pytest.mark.parametrize("n", [5, 6])
    def test_five_and_six_variables(self, n):
        """The random polynomials are normalized on the scan rule's grid
        (17^5, 14^6 points), within the point budget."""
        assert lemma_bounds_check(n, 2, 40).ok

    def test_sweep_small(self):
        for n in (1, 2):
            for d in (1, 2, 4):
                start = int(math.ceil(theorem_threshold(n, d)))
                for r in range(start, 61, 10):
                    report = lemma_bounds_check(n, d, r, samples=2, seed=1)
                    assert report.ok, (n, d, r, report)


_DEGREE_TAKERS = [
    pytest.param(lambda r: jackson_lambda(1, r), id="jackson_lambda"),
    pytest.param(spectrum, id="spectrum"),
    pytest.param(lambda r: multi_lambda((1, 2), r), id="multi_lambda"),
    pytest.param(lambda r: kernel_eval_1d(r, 0.2, 0.3), id="kernel_eval_1d"),
    pytest.param(lambda r: verify_prop21(r, 1), id="verify_prop21"),
    # the demo's degree 4 exceeds True: the integrality check comes first
    pytest.param(lambda r: apply_forward(demo_f(), r), id="apply_forward"),
    pytest.param(lambda r: apply_inverse(demo_f(), r), id="apply_inverse"),
    pytest.param(lambda r: deviation_bound_exact(demo_f(), r), id="deviation_bound_exact"),
    pytest.param(lambda r: decompose_kernel_slices(r, [0.3, -0.6]), id="decompose_kernel_slices"),
    pytest.param(lambda r: decompose_kernel_slice(r, 0.3), id="decompose_kernel_slice"),
]


class TestKernelDegreeChecks:
    """Every public function that takes a kernel degree refuses one that is
    not an integer, naming it; numpy integers pass as the int they hold."""

    @pytest.mark.parametrize("call", _DEGREE_TAKERS)
    @pytest.mark.parametrize("r", [7.5, 7.0, True])
    def test_non_integral_degree_refused(self, call, r):
        with pytest.raises(ValueError, match=f"^kernel degree {r!r} is not an integer$"):
            call(r)

    @pytest.mark.parametrize("call", _DEGREE_TAKERS)
    def test_numpy_integer_degree(self, call):
        assert repr(call(np.int64(7))) == repr(call(7))


class TestMonotoneInDegree:
    """A bisection over the kernel degree rests on these two facts."""

    def test_lambda_increases_with_r(self):
        for k in range(1, 41):
            lams = [jackson_lambda(k, r) for r in range(k, 1001)]
            assert all(a < b for a, b in zip(lams, lams[1:])), k

    def test_deviation_bound_nonincreasing(self):
        bounds = [deviation_bound_exact(demo_f(), r) for r in range(4, 700)]
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))
