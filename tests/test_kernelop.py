"""Tests for the diagonal smoothing operator and its quantitative bounds."""

import itertools
import math

import numpy as np
import pytest

from jacksonsos.chebpoly import (
    ChebPoly,
    chebyshev_nodes,
    grid_extrema,
    hamming_weight,
    mono_from_cheb,
)
from jacksonsos.jackson import jackson_lambda, kernel_eval_nd, multi_lambda
from jacksonsos.kernelop import (
    apply_forward,
    apply_inverse,
    constant_C,
    deviation_bound_exact,
    lemma_bounds_check,
    theorem_threshold,
)

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
            lo, _, hi, _ = grid_extrema(diff, 513 if n == 1 else 65, 1)
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
            lo, _, hi, _ = grid_extrema(p, 513 if n == 1 else 129, 2)
            c_over = constant_C(n, d).sharpest
            r = int(math.ceil(theorem_threshold(n, d))) + int(rng.integers(0, 40))
            diff = apply_inverse(p, r) - p
            dlo, _, dhi, _ = grid_extrema(diff, 513 if n == 1 else 129, 1)
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

    def test_sweep_small(self):
        for n in (1, 2):
            for d in (1, 2, 4):
                start = int(math.ceil(theorem_threshold(n, d)))
                for r in range(start, 61, 10):
                    report = lemma_bounds_check(n, d, r, samples=2, seed=1)
                    assert report.ok, (n, d, r, report)
