"""Tests for the univariate square decompositions."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from jacksonsos import chebpoly
from jacksonsos.chebpoly import ChebPoly, _canon, chebyshev_nodes, grid_extrema
from jacksonsos.jackson import jackson_lambda
from jacksonsos import sos1d
from jacksonsos.sos1d import (
    IllConditioned,
    LukacsPair,
    NotNonnegative,
    decompose_kernel_slice,
    decompose_kernel_slices,
    fejer_riesz,
    lukacs_decompose,
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


def _coeff_error(recon: np.ndarray, p: ChebPoly) -> float:
    """Largest coefficient of recon - p, recon dense."""
    target = np.zeros(max(recon.size, p.degree() + 1))
    for (k,), c in p.coeffs.items():
        target[k] = c
    target[: recon.size] -= recon
    return float(np.max(np.abs(target)))


def _check_dense_form(a: np.ndarray) -> None:
    """A split array is 1-D, and its last entry is nonzero unless it is empty."""
    assert a.ndim == 1
    assert a.size == 0 or a[-1] != 0.0


class TestLukacsPairs:
    def test_weight_poly(self):
        pair = lukacs_decompose(WEIGHT)
        assert pair.u.size == 0
        assert np.abs(pair.v).tolist() == [pytest.approx(1.0)]
        assert pair.residual <= 1e-12

    def test_x_squared(self):
        pair = lukacs_decompose(ChebPoly(1, {(0,): 0.5, (2,): 0.5}))
        assert abs(pair.u[1]) == pytest.approx(1.0)
        assert pair.v.size == 0

    def test_one_minus_x(self):
        """1 - x = ((1 - x)/sqrt(2))^2 + (1 - x^2) (1/sqrt(2))^2."""
        pair = lukacs_decompose(ONE_MINUS)
        half = 1 / math.sqrt(2)
        assert np.abs(pair.u).tolist() == [pytest.approx(half, abs=1e-12)] * 2
        assert pair.u[0] * pair.u[1] < 0
        assert np.abs(pair.v).tolist() == [pytest.approx(half, abs=1e-12)]

    def test_touching_square(self):
        """(1 - x^2)^2 has two double circle zeros; splitting still works."""
        p = WEIGHT * WEIGHT
        pair = lukacs_decompose(p)
        assert pair.residual <= 1e-8
        assert _coeff_error(pair.reconstruct(), p) <= 1e-8

    def test_gate_rejects_negative(self):
        with pytest.raises(NotNonnegative):
            lukacs_decompose(ChebPoly.basis(1, (1,)))
        with pytest.raises(NotNonnegative):
            lukacs_decompose(ChebPoly(1, {(0,): -0.5, (2,): 0.5}))

    def test_gate_polishes_only_the_minimum(self, monkeypatch):
        calls = []
        golden_min = chebpoly._golden_min

        def counting(*args):
            calls.append(args)
            return golden_min(*args)

        monkeypatch.setattr(chebpoly, "_golden_min", counting)
        rng = np.random.default_rng(6)
        for p in (_random_nonneg(rng, 6), _kernel_slice_poly(9, 0.3), ONE_MINUS):
            calls.clear()
            lukacs_decompose(p)
            assert len(calls) == 1

    def test_gate_reports_the_polished_minimum(self):
        p = ChebPoly(1, {(0,): 0.1, (1,): 0.3, (3,): -0.4})
        with pytest.raises(NotNonnegative) as err:
            lukacs_decompose(p)
        lo, loc, _, _ = grid_extrema(p, 1025, 1)
        assert (err.value.value, err.value.location) == (lo, loc[0])

    def test_zero_polynomial(self):
        pair = lukacs_decompose(ChebPoly.zero(1))
        assert pair.u.size == 0 and pair.v.size == 0

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError):
            lukacs_decompose(ChebPoly.basis(2, (1, 1)))

    def test_random_corpus_reconstruction(self):
        """Random inputs of even and odd degree reconstruct and meet the
        degree bounds with one dense array per sigma list."""
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
            assert 2 * (pair.u.size - 1) <= deg + 1
            assert pair.v.size == 0 or 2 * (pair.v.size - 1) + 2 <= deg + 1
            _check_dense_form(pair.u)
            _check_dense_form(pair.v)

    def test_squares_evaluate_nonnegative(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(-1, 1, 200)
        for _ in range(10):
            p = _random_nonneg(rng, 8)
            pair = lukacs_decompose(p)
            for x in xs[:50]:
                s0 = npcheb.chebval(x, pair.u) ** 2 if pair.u.size else 0.0
                s1 = npcheb.chebval(x, pair.v) ** 2 if pair.v.size else 0.0
                assert s0 >= -1e-12 and s1 >= -1e-12

    def test_dense_cut_matches_canon(self):
        """The split's cut is chebpoly's sparse canonical form, bit for bit."""
        rng = np.random.default_rng(4)
        for size in range(1, 40):
            a = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-20, 0, size)
            a[rng.random(size) < 0.2] = 0.0
            a[size - int(rng.integers(0, size)):] *= 1e-16     # trailing tiny entries
            sparse = _canon({(k,): float(c) for k, c in enumerate(a)})
            expected = sos1d._dense(ChebPoly(1, sparse))
            got = sos1d._cut(a)
            assert got.tobytes() == expected.tobytes()

    def test_nan_factor_names_the_factorization(self, monkeypatch):
        monkeypatch.setattr(sos1d, "_polish_factor",
                            lambda h, q: np.full_like(h, np.nan))
        with pytest.raises(IllConditioned, match="factorization residual"):
            decompose_kernel_slice(8, 0.3)


class TestPreorderPairs:
    """The sigma_0 = u^2 / sigma_1 = v^2 reading of a split."""

    def test_one_minus_x_identity(self):
        pair = lukacs_decompose(ONE_MINUS)
        assert pair.u.size > 0 and pair.v.size > 0
        assert _coeff_error(pair.reconstruct(), ONE_MINUS) <= 1e-12
        # explicit form: sigma0 = {(1-x)/sqrt(2)}, sigma1 = {1/sqrt(2)}
        assert abs(pair.u[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert abs(pair.u[1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_weight_form(self):
        pair = lukacs_decompose(WEIGHT)
        assert pair.u.size == 0
        assert pair.v.size > 0

    def test_x_squared_form(self):
        pair = lukacs_decompose(ChebPoly(1, {(0,): 0.5, (2,): 0.5}))
        assert pair.u.size > 0
        assert pair.v.size == 0

    def test_degree_bounds_on_corpus(self):
        """deg sigma0 <= deg p + 1 and deg(sigma1 * (1-x^2)) <= deg p + 1."""
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = _random_nonneg(rng, 10)
            deg = p.degree()
            pair = lukacs_decompose(p)
            if pair.u.size:
                assert 2 * (pair.u.size - 1) <= deg + 1
            if pair.v.size:
                assert 2 * (pair.v.size - 1) + 2 <= deg + 1 or \
                    (deg % 2 == 0 and 2 * (pair.v.size - 1) + 2 <= deg + 2)


class TestKernelSlices:
    def test_r0_slice(self):
        pair = decompose_kernel_slice(0, 0.3)
        assert pair.u.size > 0 and pair.v.size == 0
        assert npcheb.chebval(0.0, pair.u) == pytest.approx(1.0)

    def test_r1_slice_at_one(self):
        """K_1(x, 1) = 1 + x splits into one square per sigma list."""
        pair = decompose_kernel_slice(1, 1.0)
        target = _kernel_slice_poly(1, 1.0)
        assert _coeff_error(pair.reconstruct(), target) <= 1e-12
        assert pair.u.size > 0 and pair.v.size > 0

    def test_r8_residual(self):
        target = _kernel_slice_poly(8, 0.3)
        pair = decompose_kernel_slice(8, 0.3)
        assert _coeff_error(pair.reconstruct(), target) / target.max_abs_coeff() <= 1e-8

    def test_slice_sweep(self):
        ys = chebyshev_nodes(20)
        for r in range(13):
            for y in ys:
                pair = decompose_kernel_slice(r, float(y))
                target = _kernel_slice_poly(r, float(y))
                assert _coeff_error(pair.reconstruct(), target) \
                    / target.max_abs_coeff() <= 1e-8

    def test_touching_slice(self):
        """The r=30 slice at -sqrt(2)/2 touches zero; still decomposes."""
        y = -math.sqrt(0.5)
        pair = decompose_kernel_slice(30, y)
        target = _kernel_slice_poly(30, y)
        assert _coeff_error(pair.reconstruct(), target) / target.max_abs_coeff() <= 1e-8

    @pytest.mark.parametrize("y", [0.7071067811865476, -0.7071067811865476,
                                   0.7071067811865475, -0.7071067811865475])
    def test_slice_does_not_turn_on_last_bit(self, y):
        """r=26 slices at +-1/sqrt(2) and their neighbouring doubles all factor."""
        pair = decompose_kernel_slice(26, y)
        target = _kernel_slice_poly(26, y)
        assert _coeff_error(pair.reconstruct(), target) / target.max_abs_coeff() <= 1e-8

    def test_rejects_outside_interval(self):
        with pytest.raises(ValueError):
            decompose_kernel_slice(3, 1.5)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="need r >= 0"):
            decompose_kernel_slice(-1, 0.0)

    def test_slice_polynomial_matches_loop_reference(self, monkeypatch):
        """The slice handed to the splitter is bit-identical to the loop form
        1, 2 lambda_k T_k(y) by the three-term recurrence."""
        seen = []

        def capture(p, tables):
            seen.append(p)
            return LukacsPair(u=np.zeros(0), v=np.zeros(0), residual=0.0)

        monkeypatch.setattr(sos1d, "_split", capture)
        for r in range(0, 120, 7):
            ys = chebyshev_nodes(r + 1)
            decompose_kernel_slices(r, ys)
            assert [p.coeffs for p in seen] == \
                [_kernel_slice_poly(r, float(y)).coeffs for y in ys]
            seen.clear()

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
                pair = decompose_kernel_slice(r, float(axis[m - 1 - t])).mirrored()
                recon = np.zeros(r + 3)
                for root, factor in ((pair.u, [1.0]), (pair.v, weight)):
                    if root.size:
                        sq = npcheb.chebmul(factor, npcheb.chebmul(root, root))
                        recon[: sq.size] += sq
                y = float(axis[t])
                target = np.zeros(r + 3)
                target[0] = 1.0
                for k in range(1, r + 1):
                    target[k] = 2.0 * jackson_lambda(k, r) * math.cos(k * math.acos(y))
                worst = max(worst, float(np.max(np.abs(recon - target))))
        assert worst <= 1e-12


class TestSliceBatches:
    """decompose_kernel_slices: one call per degree on shared tables."""

    @staticmethod
    def _assert_equal_to_lukacs(r, ys):
        for y, pair in zip(ys, decompose_kernel_slices(r, ys)):
            ref = lukacs_decompose(_kernel_slice_poly(r, float(y)))
            assert pair.u.tobytes() == ref.u.tobytes(), (r, y)
            assert pair.v.tobytes() == ref.v.tobytes(), (r, y)
            assert pair.residual == ref.residual, (r, y)

    def test_equals_lukacs_of_loop_slices(self):
        """u, v and residual are bit for bit lukacs_decompose's of the loop form."""
        for r in range(1, 81):
            self._assert_equal_to_lukacs(r, chebyshev_nodes(r + 1)[(r + 1) // 2:])

    @pytest.mark.parametrize("r, step", [(150, 1), (300, 25)])
    def test_equals_lukacs_at_large_degree(self, r, step):
        # every node y >= 0 at r = 150; every 25th at r = 300, where one
        # slice takes about 0.1 s
        self._assert_equal_to_lukacs(r, chebyshev_nodes(r + 1)[(r + 1) // 2::step])

    def test_one_node_call(self):
        for y in (-1.0, -0.3, 0.0, 0.7071067811865476, 1.0):
            pair = decompose_kernel_slice(9, y)
            (batch,) = decompose_kernel_slices(9, [y])
            assert pair.u.tobytes() == batch.u.tobytes()
            assert pair.v.tobytes() == batch.v.tobytes()
        assert decompose_kernel_slices(4, []) == []

    @pytest.mark.parametrize("r, ys, message", [
        (-1, [0.0], "need r >= 0"),
        (3, [0.2, 1.5], "slice point 1.5 outside \\[-1, 1\\]"),
        (3, [-1.0000000000000002], "slice point -1.0000000000000002 outside"),
        (3, [0.5, math.nan], "slice point nan outside \\[-1, 1\\]"),
        (3, [[0.5]], "1-D"),
    ])
    def test_refuses_bad_input(self, r, ys, message):
        with pytest.raises(ValueError, match=message):
            decompose_kernel_slices(r, ys)

    def test_first_failing_slice_raises(self, monkeypatch):
        """Slices are split in the given order, and the first failure stops the call."""
        seen = []
        split = sos1d._split

        def failing_second(p, tables):
            seen.append(p)
            if len(seen) == 2:
                raise IllConditioned(f"slice {len(seen)}")
            return split(p, tables)

        monkeypatch.setattr(sos1d, "_split", failing_second)
        ys = chebyshev_nodes(8)[4:]
        with pytest.raises(IllConditioned, match="slice 2"):
            decompose_kernel_slices(7, ys)
        assert len(seen) == 2
        assert seen[1].coeffs == _kernel_slice_poly(7, float(ys[1])).coeffs

    def test_peak_memory_holds_one_slice_at_a_time(self):
        """Only the tables are shared; at r = 56 they take about 0.7 MiB.

        Rooting every slice in one stacked eigensolve would hold all the
        colleague matrices at once and peak above 2 MiB.
        """
        ys = chebyshev_nodes(57)[28:]
        decompose_kernel_slices(56, ys)
        tracemalloc.start()
        try:
            decompose_kernel_slices(56, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
