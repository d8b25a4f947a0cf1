"""Tests for the univariate square decompositions."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from jacksonsos import chebpoly
from jacksonsos.chebpoly import (RESIDUAL_TOL, ChebPoly, _canon, _relative_residual,
                                 chebyshev_nodes)
from jacksonsos.jackson import jackson_lambda
from jacksonsos import sos1d
from jacksonsos.sos1d import (
    IllConditioned,
    NotNonnegative,
    decompose_kernel_slice,
    decompose_kernel_slices,
    fejer_riesz,
    lukacs_decompose,
    split_coeffs,
)

from helpers import abs_sum, lowest_grid_cell

WEIGHT = ChebPoly(1, {(0,): 0.5, (2,): -0.5})      # 1 - x^2
ONE_PLUS = ChebPoly(1, {(0,): 1.0, (1,): 1.0})     # 1 + x
ONE_MINUS = ChebPoly(1, {(0,): 1.0, (1,): -1.0})   # 1 - x


def _factor_values(h, theta):
    hv = np.polyval(h[::-1], np.exp(1j * theta))
    return np.abs(hv) ** 2


@functools.lru_cache(maxsize=None)
def _lambdas(r: int) -> tuple:
    return tuple(jackson_lambda(k, r) for k in range(r + 1))


def _kernel_slices_dense(r: int, ys) -> np.ndarray:
    """Rows 1, 2 lambda_k T_k(y) of the slices at ``ys``, T_k(y) by the
    three-term recurrence."""
    ys = np.asarray(ys, dtype=float)
    lams = _lambdas(r)
    out = np.ones((ys.size, r + 1))
    tkm, tk = np.ones(ys.size), ys
    for k in range(1, r + 1):
        out[:, k] = 2.0 * lams[k] * tk
        tkm, tk = tk, 2.0 * ys * tk - tkm
    return out


def _kernel_slice_poly(r: int, y: float) -> ChebPoly:
    """x -> K_r(x, y) = 1 + 2 sum_k lambda_k T_k(y) T_k(x)."""
    return ChebPoly(1, {(k,): c for k, c in enumerate(_kernel_slices_dense(r, [y])[0])})


def _sum_of_squares(u, v) -> np.ndarray:
    """sum_i u_i^2 + (1 - x^2) sum_i v_i^2 with numpy's chebmul, one square per row."""
    out = np.zeros(1)
    for rows, factor in ((u, [1.0]), (v, [0.5, 0.0, -0.5])):
        for a in rows:
            if a.size:
                out = npcheb.chebadd(out, npcheb.chebmul(factor, npcheb.chebmul(a, a)))
    return out


def _slice_error(r: int, y: float) -> float:
    """Largest coefficient of the closed-form squares minus the loop slice,
    relative to the slice's largest coefficient."""
    target = _kernel_slice_poly(r, y)
    return _coeff_error(_sum_of_squares(*decompose_kernel_slice(r, y)), target) \
        / target.max_abs_coeff()


def _split_even_loop(h: np.ndarray) -> tuple:
    """The O(M^2) loop form of sos1d._split_even, kept as its oracle."""
    m = (h.size - 1) // 2
    u = np.zeros(m + 1)
    u[0] = h[m]
    for j in range(1, m + 1):
        u[j] = h[m + j] + h[m - j]
    v = np.zeros(m)
    for j in range(1, m + 1):
        c = h[m + j] - h[m - j]             # coefficient of U_{j-1}
        k = j - 1
        while k >= 0:
            v[k] += c * (1.0 if k == 0 else 2.0)
            k -= 2
    return u, v


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

    # A factor scaled by 1 + eps misses every cosine coefficient of 2 + cos t
    # by 2 eps + eps^2 relative to max |q|.

    def test_factor_within_the_residual_is_accepted(self, monkeypatch):
        """2 eps = RESIDUAL_TOL / 2 passes (256 sampled values within 1e-9
        refused it)."""
        eps = 0.25 * RESIDUAL_TOL
        monkeypatch.setattr(sos1d, "_polish_factor", lambda h, q: h * (1.0 + eps))
        h = fejer_riesz([2.0, 1.0])
        q = ChebPoly(1, {(0,): 2.0, (1,): 1.0})
        assert _relative_residual(sos1d._autocorrelation(h, 1), q) == \
            pytest.approx(2.0 * eps, rel=1e-6)

    def test_factor_past_the_residual_is_refused(self, monkeypatch):
        """2 eps = 2 RESIDUAL_TOL is refused."""
        eps = RESIDUAL_TOL
        monkeypatch.setattr(sos1d, "_polish_factor", lambda h, q: h * (1.0 + eps))
        with pytest.raises(IllConditioned, match="factorization residual"):
            fejer_riesz([2.0, 1.0])

    @pytest.mark.parametrize("a, eps", [(0.3, 1e-4), (0.123, 3e-5)])
    def test_narrow_dip_refused_as_lukacs_decompose(self, a, eps):
        """(x - a)^2 - eps^2 dips below zero between Lobatto points: both
        tools refuse it through the one gate, with one value and location."""
        q = npcheb.poly2cheb([a * a - eps * eps, -2.0 * a, 1.0])
        with pytest.raises(NotNonnegative) as fejer:
            fejer_riesz(q)
        with pytest.raises(NotNonnegative) as lukacs:
            lukacs_decompose(ChebPoly(1, {(k,): c for k, c in enumerate(q)}))
        assert str(fejer.value) == str(lukacs.value)
        assert (fejer.value.value, fejer.value.location) == \
            (lukacs.value.value, lukacs.value.location)
        assert fejer.value.value == pytest.approx(-eps * eps, rel=1e-6)
        assert fejer.value.location == pytest.approx(a, abs=eps)

    @pytest.mark.parametrize("q", [[math.inf, 0.5], [1.0, math.nan], [2.0, 1.0, math.nan]])
    def test_rejects_non_finite_input(self, q):
        with pytest.raises(ValueError, match="not finite"):
            fejer_riesz(q)

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

    def test_gate_reports_its_grid_witness(self, monkeypatch):
        """A lowest cell below -GATE_TOL sum |c| of p is the refusal: its
        value and Lobatto point, with no polish."""
        def no_call(*args):
            raise AssertionError("the polish ran")

        p = ChebPoly(1, {(0,): 0.1, (1,): 0.3, (3,): -0.4})
        cell, (point,) = lowest_grid_cell(p, 1025)
        monkeypatch.setattr(chebpoly, "_golden_min", no_call)
        with pytest.raises(NotNonnegative) as err:
            lukacs_decompose(p)
        assert (err.value.value, err.value.location) == (cell, point)
        assert p.eval((point,)) == pytest.approx(cell, rel=1e-12)

    def test_gate_reports_the_polished_minimum(self, monkeypatch):
        """With GATE_TOL halfway between -cell / sum |c| and -lo / sum |c|
        (about 0.57377, sum |c| = 0.8), the lowest cell -0.4590148 lies above
        the floor and the polished minimum -0.4590170 below it: the cell is
        polished, and the refusal reports the polished minimum."""
        p = ChebPoly(1, {(0,): 0.1, (1,): 0.3, (3,): -0.4})
        cell = lowest_grid_cell(p, 1025)[0]
        lo, (loc,) = chebpoly.grid_extrema(p, 1025)[:2]
        tol = -(cell + lo) / (2.0 * abs_sum(p))
        assert lo < -tol * abs_sum(p) <= cell
        monkeypatch.setattr(chebpoly, "GATE_TOL", tol)
        with pytest.raises(NotNonnegative) as err:
            lukacs_decompose(p)
        assert (err.value.value, err.value.location) == (lo, loc)

    def test_gate_decides_as_the_polished_rule(self, monkeypatch):
        """On a seeded corpus, the gate refuses exactly when the polished grid
        minimum lies below the floor -tol sum |c| of p, on both of its paths;
        what follows a passed gate may still refuse p."""
        rng = np.random.default_rng(22)
        paths = set()
        for _ in range(16):
            p = ChebPoly(1, {(k,): rng.standard_normal()
                             for k in range(int(rng.integers(2, 9)))})
            p = p.shift(-chebpoly.grid_extrema(p, 1025)[0] + rng.uniform(-0.1, 0.02))
            lo = chebpoly.grid_extrema(p, 1025)[0]
            norm = abs_sum(p)
            cell = lowest_grid_cell(p, 1025)[0]
            tols = [chebpoly.GATE_TOL, 1e-2]
            if lo < 0.0:        # the middle of the polish band, then above it
                tols += [-(cell + lo) / (2.0 * norm), -2.0 * lo / norm]
            for tol in tols:
                monkeypatch.setattr(chebpoly, "GATE_TOL", tol)
                try:
                    lukacs_decompose(p)
                    refused = False
                except (NotNonnegative, IllConditioned) as err:
                    refused = str(err).startswith("grid minimum")
                assert refused == (lo < -tol * norm), tol
                paths.add((cell < -tol * norm, refused))
        assert paths == {(True, True), (False, True), (False, False)}

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
            assert pair.residual == _relative_residual(split_coeffs(pair.u, pair.v), p)
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
            lukacs_decompose(_kernel_slice_poly(8, 0.3))

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 21, 101, 1339])
    def test_split_even_matches_loop(self, size):
        """Reverse cumulative sums per parity, against the loop, on random h
        of even degree (odd size), one row and a stack of rows."""
        rng = np.random.default_rng(size)
        h = rng.standard_normal((3, 2, size))
        if size % 2 == 0:
            h = np.concatenate([np.zeros((3, 2, 1)), h], axis=-1)
        u, v = sos1d._split_even(h)
        for idx in np.ndindex(h.shape[:-1]):
            for got, want in zip((u[idx], v[idx]), _split_even_loop(h[idx])):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want), initial=0.0) \
                    <= 1e-13 * np.max(np.abs(want), initial=1.0)
        one = sos1d._split_even(h[0, 0])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(one, (u[0, 0], v[0, 0])))


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
        """K_0 = 1: a cosine square 1, a sine square 0, no sigma_1 squares."""
        u, v = decompose_kernel_slice(0, 0.3)
        assert u.tolist() == [[1.0], [0.0]] and v.shape == (2, 0)

    def test_r1_slice_at_one(self):
        """K_1(x, 1) = 1 + x: at phi = 0 only the cosine factor is left."""
        u, v = decompose_kernel_slice(1, 1.0)
        assert _slice_error(1, 1.0) <= 1e-15
        assert np.any(u[0]) and np.any(v[0])
        assert not np.any(u[1]) and not np.any(v[1])

    def test_r8_residual(self):
        assert _slice_error(8, 0.3) <= 1e-14

    def test_slice_sweep(self):
        ys = chebyshev_nodes(20)
        for r in range(13):
            for y in ys:
                assert _slice_error(r, float(y)) <= 1e-14

    def test_touching_slice(self):
        """The r=30 slice at -sqrt(2)/2 touches zero; the closed form does not care."""
        assert _slice_error(30, -math.sqrt(0.5)) <= 1e-13

    @pytest.mark.parametrize("y", [0.7071067811865476, -0.7071067811865476,
                                   0.7071067811865475, -0.7071067811865475])
    def test_slice_does_not_turn_on_last_bit(self, y):
        """r=26 slices at +-1/sqrt(2) and their neighbouring doubles, which the
        root path once split differently, all agree with the loop form."""
        assert _slice_error(26, y) <= 1e-13

    def test_rejects_outside_interval(self):
        with pytest.raises(ValueError):
            decompose_kernel_slice(3, 1.5)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="need r >= 0"):
            decompose_kernel_slice(-1, 0.0)

    def test_slice_polynomial_matches_loop_reference(self):
        """Every y >= 0 node of m = r + 1 for r = 0..300, and r = 669: the
        closed-form squares sum to the loop slice 1, 2 lambda_k T_k(y) within
        1e-11 of its largest coefficient."""
        worst = 0.0
        for r in list(range(301)) + [669]:
            ys = chebyshev_nodes(r + 1)[(r + 1) // 2:]
            target = _kernel_slices_dense(r, ys)
            diff = split_coeffs(*decompose_kernel_slices(r, ys))
            diff[:, :r + 1] -= target
            worst = max(worst, float(np.max(np.abs(diff).max(axis=1)
                                            / np.abs(target).max(axis=1))))
        assert worst <= 1e-11

    def test_mirrored_slices_match_lower_nodes(self):
        """The squares at node m-1-t, odd coefficients negated, give the slice at node t.

        Squares are re-expanded with numpy's chebmul and the target uses
        cos(k acos y), so neither side shares code with the slice path.
        """
        worst = 0.0
        for r in range(1, 58):
            m = r + 1
            axis = chebyshev_nodes(m)
            for t in range(m // 2):
                u, v = (a * (-1.0) ** np.arange(a.shape[-1])
                        for a in decompose_kernel_slice(r, float(axis[m - 1 - t])))
                recon = np.zeros(r + 3)
                sq = _sum_of_squares(u, v)
                recon[: sq.size] += sq
                y = float(axis[t])
                target = np.zeros(r + 3)
                target[0] = 1.0
                for k in range(1, r + 1):
                    target[k] = 2.0 * jackson_lambda(k, r) * math.cos(k * math.acos(y))
                worst = max(worst, float(np.max(np.abs(recon - target))))
        assert worst <= 1e-12


def _oracle_error(got: np.ndarray, u, v) -> float:
    """Largest coefficient of ``got`` minus the chebmul oracle of the squares
    (u, v), relative to the oracle's largest coefficient."""
    ref = _sum_of_squares(u, v)
    diff = got.copy()
    diff[:ref.size] -= ref
    return float(np.max(np.abs(diff)) / np.max(np.abs(ref)))


class TestSplitCoeffs:
    """split_coeffs: all squares of a batch multiplied out in one real FFT."""

    @pytest.mark.parametrize("degrees", [range(41), range(41, 81), [100, 212], [669]],
                             ids=["r0-40", "r41-80", "r100-212", "r669"])
    def test_batch_matches_chebmul_oracle(self, degrees):
        """Every row of the batched product of the upper-node slices, on the
        fewest nodes up to 5 above, agrees with numpy's chebmul within
        max(1e-14, 1e-17 (r + 2)^2) relative (worst seen 0.81 of it, r = 669)."""
        for r in degrees:
            tol = max(1e-14, 1e-17 * (r + 2) ** 2)
            low = max(1, (r + 2) // 2)
            for m in range(low, low + 6):
                u, v = decompose_kernel_slices(r, chebyshev_nodes(m)[m // 2:])
                got = split_coeffs(u, v)
                assert got.shape == (len(u), r + 1 + r % 2)
                for t in range(len(u)):
                    assert _oracle_error(got[t], u[t], v[t]) <= tol, (r, m, t)

    @pytest.mark.parametrize("ku, kv", [(1, 0), (1, 1), (3, 0), (3, 1), (3, 2),
                                        (4, 4), (2, 5), (0, 3), (9, 8)])
    def test_one_square_each(self, ku, kv):
        """1-D u and v are one square each; the width is max(2K - 1, 2K' + 1),
        and an empty v neither adds nor widens."""
        rng = np.random.default_rng(ku * 10 + kv)
        u, v = rng.standard_normal(ku), rng.standard_normal(kv)
        got = split_coeffs(u, v)
        assert got.shape == (max(2 * ku - 1, 2 * kv + 1 if kv else 1),)
        assert _oracle_error(got, [u], [v]) <= 1e-14

    def test_zero_squares(self):
        assert split_coeffs(np.zeros(0), np.zeros(0)).tolist() == [0.0]

    def test_slice_and_batch(self):
        """A (k, K) pair of rows gives one polynomial; leading axes batch,
        each entry the product of its own rows."""
        rng = np.random.default_rng(7)
        u, v = rng.standard_normal((3, 4, 2, 6)), rng.standard_normal((3, 4, 3, 5))
        got = split_coeffs(u, v)
        assert got.shape == (3, 4, 11)
        for idx in np.ndindex(3, 4):
            one = split_coeffs(u[idx], v[idx])
            assert one.shape == (11,)
            assert _oracle_error(one, u[idx], v[idx]) <= 1e-14
            assert np.max(np.abs(got[idx] - one)) <= 1e-14 * np.max(np.abs(one))

    def test_empty_v_adds_nothing(self):
        """r = 0 slices have no sigma_1 rows: v of shape (k, 2, 0)."""
        u, v = decompose_kernel_slices(0, [-0.5, 0.0, 1.0])
        assert v.shape == (3, 2, 0)
        assert split_coeffs(u, v).tolist() == [[1.0]] * 3
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((2, 4))
        got = split_coeffs(rows, np.zeros((2, 0)))
        assert got.shape == (7,)
        assert _oracle_error(got, rows, []) <= 1e-14


class TestSliceBatches:
    """decompose_kernel_slices: all slices of one degree in one call."""

    @staticmethod
    def _assert_equal_to_lukacs(r, ys):
        """The closed form and the root path split the same polynomial."""
        for y, u, v in zip(ys, *decompose_kernel_slices(r, ys)):
            target = _kernel_slice_poly(r, float(y))
            closed = split_coeffs(u, v)
            roots = lukacs_decompose(target).reconstruct()
            diff = np.zeros(max(closed.size, roots.size))
            diff[:closed.size] += closed
            diff[:roots.size] -= roots
            assert np.max(np.abs(diff)) <= 1e-8 * target.max_abs_coeff(), (r, y)

    def test_equals_lukacs_of_loop_slices(self):
        """The squares' sum is lukacs_decompose's of the loop form, to RESIDUAL_TOL."""
        for r in range(1, 81):
            self._assert_equal_to_lukacs(r, chebyshev_nodes(r + 1)[(r + 1) // 2:])

    @pytest.mark.parametrize("r, step", [(150, 1), (300, 25)])
    def test_equals_lukacs_at_large_degree(self, r, step):
        # every node y >= 0 at r = 150; every 25th at r = 300, where one
        # root-path slice takes about 0.1 s
        self._assert_equal_to_lukacs(r, chebyshev_nodes(r + 1)[(r + 1) // 2::step])

    def test_one_node_call(self):
        for y in (-1.0, -0.3, 0.0, 0.7071067811865476, 1.0):
            single = decompose_kernel_slice(9, y)
            batch = decompose_kernel_slices(9, [y])
            for a, b in zip(single, batch):
                assert a.tobytes() == b[0].tobytes()
        u, v = decompose_kernel_slices(4, [])
        assert u.shape == (0, 2, 3) and v.shape == (0, 2, 2)

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

    def test_peak_memory_holds_one_slice_at_a_time(self):
        """All 29 slices at r = 56 at once peak far below the 1.25 MiB that
        the root path took one slice at a time on shared tables."""
        ys = chebyshev_nodes(57)[28:]
        decompose_kernel_slices(56, ys)
        tracemalloc.start()
        try:
            decompose_kernel_slices(56, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 2 ** 20
