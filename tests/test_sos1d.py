"""Tests for the univariate square decompositions."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from jacksonsos.chebpoly import ChebPoly
from jacksonsos.jackson import jackson_lambda
from jacksonsos import sos1d
from jacksonsos.quadrature import chebyshev_nodes
from jacksonsos.sos1d import (
    IllConditioned,
    LukacsPair,
    NotNonnegative,
    decompose_kernel_slice,
    fejer_riesz,
    lukacs_decompose,
    to_preorder_pair,
)

WEIGHT = ChebPoly(1, {(0,): 0.5, (2,): -0.5})      # 1 - x^2
ONE_PLUS = ChebPoly(1, {(0,): 1.0, (1,): 1.0})     # 1 + x
ONE_MINUS = ChebPoly(1, {(0,): 1.0, (1,): -1.0})   # 1 - x


def _factor_values(h, theta):
    hv = np.polyval(h[::-1], np.exp(1j * theta))
    return np.abs(hv) ** 2


def _kernel_slice_poly(r: int, y: float) -> ChebPoly:
    coeffs = {(0,): 1.0}
    tkm, tk = 1.0, y
    for k in range(1, r + 1):
        coeffs[(k,)] = 2.0 * jackson_lambda(k, r) * tk
        tkm, tk = tk, 2.0 * y * tk - tkm
    return ChebPoly(1, coeffs)


def _random_nonneg(rng, max_half_degree: int):
    du = int(rng.integers(0, max_half_degree + 1))
    dv = int(rng.integers(0, max(max_half_degree, 1)))
    u = ChebPoly(1, {(k,): rng.standard_normal() for k in range(du + 1)})
    v = ChebPoly(1, {(k,): rng.standard_normal() for k in range(dv + 1)})
    return u * u + WEIGHT * (v * v)


def _random_odd_nonneg(rng, max_half_degree: int):
    """(1 + x) s^2 + (1 - x) t^2 with deg s = deg t, so of odd degree."""
    d = int(rng.integers(0, max_half_degree + 1))
    s = ChebPoly(1, {(k,): rng.standard_normal() for k in range(d + 1)})
    t = ChebPoly(1, {(k,): rng.standard_normal() for k in range(d + 1)})
    return ONE_PLUS * (s * s) + ONE_MINUS * (t * t)


class TestFejerRiesz:
    def test_constant(self):
        assert list(fejer_riesz([1.0])) == [1.0]

    def test_one_plus_cos(self):
        h = fejer_riesz([1.0, 1.0])
        theta = np.linspace(0, math.pi, 64)
        assert np.allclose(_factor_values(h, theta), 1 + np.cos(theta),
                           atol=1e-12)
        assert np.allclose(np.abs(h), 1 / math.sqrt(2), atol=1e-12)

    def test_sine_squared(self):
        # p = 1 - x^2, cosine form (1 - cos 2t)/2
        h = fejer_riesz([0.5, 0.0, -0.5])
        theta = np.linspace(0, math.pi, 64)
        assert np.allclose(_factor_values(h, theta), np.sin(theta) ** 2,
                           atol=1e-12)

    def test_degree_matches_trig_degree(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = _random_nonneg(rng, 6)
            dense = np.zeros(p.degree() + 1)
            for (k,), c in p.coeffs.items():
                dense[k] = c
            h = fejer_riesz(dense)
            assert h.size == p.degree() + 1

    def test_rejects_negative_input(self):
        with pytest.raises(NotNonnegative):
            fejer_riesz([0.0, 1.0])       # cos(t) goes negative
        with pytest.raises(NotNonnegative):
            fejer_riesz([-1.0])

    def test_zero_input(self):
        assert list(fejer_riesz([0.0, 0.0])) == [0.0]

    def test_autocorrelation_matches_loop(self):
        """One correlate call, against the per-lag dot products."""
        rng = np.random.default_rng(12)
        for size in (1, 2, 5, 17, 58):
            for d in (size - 1, size, size + 3):
                h = rng.standard_normal(size)
                expected = np.zeros(d + 1)
                for k in range(min(d, size - 1) + 1):
                    expected[k] = float(np.dot(h[: size - k], h[k:]))
                expected[1:] *= 2.0
                got = sos1d._autocorrelation(h, d)
                assert got.shape == expected.shape
                assert np.max(np.abs(got - expected)) <= 1e-15 * expected[0]

    def test_circle_roots_match_laurent_roots(self):
        """Colleague roots mapped to the circle, against np.roots of the
        palindromic power-basis polynomial z^d q((z + 1/z) / 2)."""
        rng = np.random.default_rng(13)
        for d in (1, 2, 5, 12, 20):
            q = rng.standard_normal(d + 1)
            lau = np.zeros(2 * d + 1)
            lau[d] = q[0]
            lau[d + 1:] += 0.5 * q[1:]
            lau[: d][::-1] += 0.5 * q[1:]
            expected = np.roots(lau[::-1])
            got = sos1d._circle_roots(q)
            assert got.size == 2 * d
            assert np.all(np.abs(got[:d]) <= 1.0 + 1e-12)
            for z in expected:
                assert np.min(np.abs(got - z)) <= 1e-8 * max(1.0, abs(z))

    def test_expand_is_accurate_in_angular_order(self):
        """The m-th roots of -1 (m even) in angular order expand to z^m + 1;
        np.poly in that order is off by 0.09 already at m = 64."""
        for m in (2, 8, 16, 64, 100):
            roots = np.exp(1j * np.pi * (2 * np.arange(m) + 1 - m) / m)
            expected = np.zeros(m + 1)
            expected[[0, m]] = 1.0
            assert np.max(np.abs(sos1d._expand(roots) - expected)) <= 1e-13

    def test_expand_matches_poly(self):
        """Exact input stays exact, and random conjugate-closed roots in the
        unit disc agree with np.poly."""
        assert list(sos1d._expand(np.array([1.0, -1.0]))) == [-1.0, 0.0, 1.0]
        rng = np.random.default_rng(14)
        for size in (0, 1, 4, 9, 16):
            angles = rng.uniform(0, np.pi, size)
            half = rng.uniform(0.2, 1.0, size) * np.exp(1j * angles)
            roots = np.concatenate([half, half.conj(), rng.uniform(-1.0, 1.0, 1)])
            expected = np.real(np.poly(roots))[::-1]
            got = sos1d._expand(roots)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.sum(np.abs(expected))

    def test_polish_jacobian_matches_loop(self):
        """The polish's Jacobian, against the entry-by-entry definition."""
        rng = np.random.default_rng(11)
        for size, d in ((1, 0), (3, 2), (5, 4), (8, 7), (6, 9)):
            h = rng.standard_normal(size)
            expected = np.zeros((d + 1, size))
            for k in range(d + 1):
                for j in range(size):
                    val = 0.0
                    if j + k < size:
                        val += h[j + k]
                    if j - k >= 0:
                        val += h[j - k]
                    expected[k, j] = (1.0 if k == 0 else 2.0) * val
            assert np.array_equal(sos1d._autocorrelation_jacobian(h, d), expected)


class TestLukacsPairs:
    def test_weight_poly(self):
        pair = lukacs_decompose(WEIGHT)
        assert pair.first.is_zero()
        assert {k: pytest.approx(abs(v)) for k, v in pair.second.coeffs.items()} \
            == {(0,): pytest.approx(1.0)}
        assert pair.residual <= 1e-12

    def test_x_squared(self):
        pair = lukacs_decompose(ChebPoly(1, {(0,): 0.5, (2,): 0.5}))
        assert abs(pair.first.coeffs.get((1,), 0.0)) == pytest.approx(1.0)
        assert pair.second.is_zero()

    def test_one_minus_x(self):
        """1 - x = ((1 - x)/sqrt(2))^2 + (1 - x^2) (1/sqrt(2))^2."""
        pair = lukacs_decompose(ONE_MINUS)
        half = 1 / math.sqrt(2)
        assert {k: abs(v) for k, v in pair.first.coeffs.items()} == {
            (0,): pytest.approx(half, abs=1e-12), (1,): pytest.approx(half, abs=1e-12)}
        assert pair.first.coeffs[(0,)] * pair.first.coeffs[(1,)] < 0
        assert {k: abs(v) for k, v in pair.second.coeffs.items()} == {
            (0,): pytest.approx(half, abs=1e-12)}

    def test_touching_square(self):
        """(1 - x^2)^2 has two double circle zeros; splitting still works."""
        p = WEIGHT * WEIGHT
        pair = lukacs_decompose(p)
        assert pair.residual <= 1e-8
        diff = pair.reconstruct() - p
        assert diff.max_abs_coeff() <= 1e-8

    def test_gate_rejects_negative(self):
        with pytest.raises(NotNonnegative):
            lukacs_decompose(ChebPoly.basis(1, (1,)))
        with pytest.raises(NotNonnegative):
            lukacs_decompose(ChebPoly(1, {(0,): -0.5, (2,): 0.5}))

    def test_zero_polynomial(self):
        pair = lukacs_decompose(ChebPoly.zero(1))
        assert pair.first.is_zero() and pair.second.is_zero()

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError):
            lukacs_decompose(ChebPoly.basis(2, (1, 1)))

    def test_random_corpus_reconstruction(self):
        """Random inputs of even and odd degree reconstruct and meet the
        degree bounds with at most one square per sigma list."""
        rng = np.random.default_rng(1)
        for trial in range(40):
            if trial % 2:
                p = _random_nonneg(rng, 12)
            else:
                p = _random_odd_nonneg(rng, 12)
                assert p.degree() % 2 == 1
            pair = lukacs_decompose(p)
            assert pair.residual <= 1e-8
            deg = p.degree()
            assert 2 * pair.first.degree() <= deg + 1
            assert pair.second.is_zero() or \
                2 * pair.second.degree() + 2 <= deg + 1
            pre = to_preorder_pair(pair)
            assert len(pre.sigma0) <= 1 and len(pre.sigma1) <= 1

    def test_squares_evaluate_nonnegative(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(-1, 1, 200)
        for _ in range(10):
            p = _random_nonneg(rng, 8)
            pre = to_preorder_pair(lukacs_decompose(p))
            for x in xs[:50]:
                s0 = sum(q.eval((x,)) ** 2 for q in pre.sigma0)
                s1 = sum(q.eval((x,)) ** 2 for q in pre.sigma1)
                assert s0 >= -1e-12 and s1 >= -1e-12


class TestPreorderPairs:
    def test_one_minus_x_identity(self):
        pre = to_preorder_pair(lukacs_decompose(ONE_MINUS))
        assert len(pre.sigma0) == 1 and len(pre.sigma1) == 1
        recon = pre.reconstruct()
        assert (recon - ONE_MINUS).max_abs_coeff() <= 1e-12
        # explicit form: sigma0 = {(1-x)/sqrt(2)}, sigma1 = {1/sqrt(2)}
        root0 = pre.sigma0[0]
        assert abs(root0.coeffs.get((0,), 0.0)) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12)
        assert abs(root0.coeffs.get((1,), 0.0)) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12)

    def test_weight_form(self):
        pre = to_preorder_pair(lukacs_decompose(WEIGHT))
        assert pre.sigma0 == ()
        assert len(pre.sigma1) == 1

    def test_x_squared_form(self):
        pre = to_preorder_pair(lukacs_decompose(ChebPoly(1, {(0,): 0.5, (2,): 0.5})))
        assert len(pre.sigma0) == 1
        assert pre.sigma1 == ()

    def test_degree_bounds_on_corpus(self):
        """deg sigma0 <= deg p + 1 and deg(sigma1 * (1-x^2)) <= deg p + 1."""
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = _random_nonneg(rng, 10)
            deg = p.degree()
            pre = to_preorder_pair(lukacs_decompose(p))
            for q in pre.sigma0:
                assert 2 * q.degree() <= deg + 1
            for q in pre.sigma1:
                assert 2 * q.degree() + 2 <= deg + 1 or \
                    (deg % 2 == 0 and 2 * q.degree() + 2 <= deg + 2)


class TestKernelSlices:
    def test_r0_slice(self):
        pre = decompose_kernel_slice(0, 0.3)
        assert len(pre.sigma0) == 1 and pre.sigma1 == ()
        assert pre.sigma0[0].eval((0.0,)) == pytest.approx(1.0)

    def test_r1_slice_at_one(self):
        """K_1(x, 1) = 1 + x splits into one square per sigma list."""
        pre = decompose_kernel_slice(1, 1.0)
        recon = pre.reconstruct()
        target = _kernel_slice_poly(1, 1.0)
        assert (recon - target).max_abs_coeff() <= 1e-12
        assert len(pre.sigma0) == 1 and len(pre.sigma1) == 1

    def test_r8_residual(self):
        target = _kernel_slice_poly(8, 0.3)
        pre = decompose_kernel_slice(8, 0.3)
        diff = pre.reconstruct() - target
        assert diff.max_abs_coeff() / target.max_abs_coeff() <= 1e-8

    def test_slice_sweep(self):
        ys = chebyshev_nodes(20)
        for r in range(13):
            for y in ys:
                pre = decompose_kernel_slice(r, float(y))
                target = _kernel_slice_poly(r, float(y))
                diff = pre.reconstruct() - target
                assert diff.max_abs_coeff() / target.max_abs_coeff() <= 1e-8

    def test_touching_slice(self):
        """The r=30 slice at -sqrt(2)/2 touches zero; still decomposes."""
        y = -math.sqrt(0.5)
        pre = decompose_kernel_slice(30, y)
        target = _kernel_slice_poly(30, y)
        diff = pre.reconstruct() - target
        assert diff.max_abs_coeff() / target.max_abs_coeff() <= 1e-8

    @pytest.mark.parametrize("y", [0.7071067811865476, -0.7071067811865476,
                                   0.7071067811865475, -0.7071067811865475])
    def test_slice_does_not_turn_on_last_bit(self, y):
        """r=26 slices at +-1/sqrt(2) and their neighbouring doubles all factor."""
        pre = decompose_kernel_slice(26, y)
        target = _kernel_slice_poly(26, y)
        diff = pre.reconstruct() - target
        assert diff.max_abs_coeff() / target.max_abs_coeff() <= 1e-8

    def test_rejects_outside_interval(self):
        with pytest.raises(ValueError):
            decompose_kernel_slice(3, 1.5)

    def test_slice_polynomial_matches_loop_reference(self, monkeypatch):
        """The slice handed to the splitter is bit-identical to the loop form
        1, 2 lambda_k T_k(y) by the three-term recurrence."""
        seen = []

        def capture(p):
            seen.append(p)
            zero = ChebPoly.zero(1)
            return LukacsPair(first=zero, second=zero, residual=0.0)

        monkeypatch.setattr(sos1d, "lukacs_decompose", capture)
        for r in range(0, 120, 7):
            for y in chebyshev_nodes(r + 1):
                decompose_kernel_slice(r, float(y))
                assert seen.pop().coeffs == _kernel_slice_poly(r, float(y)).coeffs

    def test_mirrored_slices_match_lower_nodes(self):
        """The mirror of the slice at node m-1-t is the slice at node t.

        Squares are re-expanded with numpy's chebmul and the target uses
        cos(k acos y), so neither side shares code with the slice path.
        """
        weight = np.array([0.5, 0.0, -0.5])
        worst = 0.0
        for r in range(1, 58):
            m = r + 1
            axis = chebyshev_nodes(m)
            for t in range(m // 2):
                pre = decompose_kernel_slice(r, float(axis[m - 1 - t])).mirrored()
                recon = np.zeros(r + 3)
                for sigma, factor in ((pre.sigma0, [1.0]), (pre.sigma1, weight)):
                    for q in sigma:
                        dense = np.zeros(q.degree() + 1)
                        for (k,), c in q.coeffs.items():
                            dense[k] = c
                        sq = npcheb.chebmul(factor, npcheb.chebmul(dense, dense))
                        recon[: sq.size] += sq
                y = float(axis[t])
                target = np.zeros(r + 3)
                target[0] = 1.0
                for k in range(1, r + 1):
                    target[k] = 2.0 * jackson_lambda(k, r) * math.cos(k * math.acos(y))
                worst = max(worst, float(np.max(np.abs(recon - target))))
        assert worst <= 1e-12
