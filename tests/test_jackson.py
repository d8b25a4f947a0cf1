"""Tests for the Jackson damping coefficients and kernel."""

import math

import numpy as np
import pytest

from jacksonsos import jackson
from jacksonsos.chebpoly import ChebPoly, chebyshev_nodes
from jacksonsos.jackson import (
    jackson_lambda,
    kernel_eval_1d,
    kernel_eval_nd,
    multi_lambda,
    spectrum,
    verify_prop21,
)


def _lambda_high_k_form(k: int, r: int) -> float:
    """Rewritten coefficient formula in h = r + 2 - k, for k near r."""
    theta = math.pi / (r + 2)
    h = r + 2 - k
    return (-h * math.cos(h * theta)
            + math.sin(h * theta) * math.cos(theta) / math.sin(theta)) / (r + 2)


class TestDampingCoefficients:
    def test_k1_is_cos_theta(self):
        for r in (1, 5, 13, 40):
            assert jackson_lambda(1, r) == pytest.approx(
                math.cos(math.pi / (r + 2)), abs=1e-15)
        assert jackson_lambda(1, 5) == pytest.approx(0.9009689, abs=1e-7)

    def test_k0_is_one(self):
        for r in (0, 3, 17):
            assert jackson_lambda(0, r) == 1.0

    def test_k4_r5(self):
        lam = jackson_lambda(4, 5)
        assert lam == pytest.approx(0.1938434, abs=2e-6)
        assert 1.0 / lam == pytest.approx(5.15883, abs=1e-4)

    def test_spectrum_r0(self):
        assert spectrum(0).lambdas == (1.0,)

    def test_spectrum_r5_r7(self):
        s5 = spectrum(5)
        assert s5[3] == pytest.approx(0.4163626, abs=2e-6)
        assert 1.0 / s5[3] == pytest.approx(2.40175, abs=1e-4)
        s7 = spectrum(7)
        assert s7[4] == pytest.approx(0.3971086, abs=2e-6)
        assert 1.0 / s7[4] == pytest.approx(2.51820, abs=1e-4)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            jackson_lambda(6, 5)
        with pytest.raises(ValueError):
            jackson_lambda(-1, 5)
        with pytest.raises(ValueError):
            jackson_lambda(0, -1)

    def test_high_k_rewritten_form(self):
        """The h-form rewrite agrees near k = r (cancellation cross-check)."""
        for r in (9, 24, 51):
            for k in range((r + 2) // 2 + 1, r + 1):
                assert jackson_lambda(k, r) == pytest.approx(
                    _lambda_high_k_form(k, r), abs=1e-12)

    def test_bounds_sweep(self):
        """0 < lambda <= 1 and the quadratic decay bound, r up to 80 here."""
        for r in range(1, 81):
            lams = spectrum(r).lambdas
            for k in range(r + 1):
                assert 0.0 < lams[k] <= 1.0
                assert 1.0 - lams[k] <= math.pi ** 2 * k ** 2 / (r + 2) ** 2 + 1e-15

    def test_lambda_never_falls_as_r_rises(self):
        """lambda_k(r) <= lambda_k(r + 1) for k <= 40 and max(k, 1) <= r < 4000,
        exactly in floating point: a degree plan that bisects on r rests on it."""
        falls = []
        for k in range(41):
            lams = [jackson_lambda(k, r) for r in range(max(k, 1), 4001)]
            falls += [(k, max(k, 1) + i) for i, (a, b) in enumerate(zip(lams, lams[1:]))
                      if not a <= b]
        assert falls == []


class TestMultiLambda:
    def test_zero_multidegree(self):
        assert multi_lambda((0, 0, 0), 4) == 1.0

    def test_pair_ones(self):
        assert multi_lambda((1, 1), 5) == pytest.approx(
            math.cos(math.pi / 7) ** 2, abs=1e-15)

    def test_with_zero_entry(self):
        assert multi_lambda((4, 0), 5) == pytest.approx(jackson_lambda(4, 5))

    def test_rejects_excess_degree(self):
        with pytest.raises(ValueError):
            multi_lambda((6, 1), 5)


class TestKernel:
    def test_r0_constant(self):
        for x in (-1.0, 0.3, 1.0):
            for y in (-0.7, 0.0, 1.0):
                assert kernel_eval_1d(0, x, y) == pytest.approx(1.0)

    def test_nonnegative_on_grid(self):
        axis = np.cos(np.linspace(0.0, math.pi, 201))
        for r in range(1, 13):
            vals = kernel_eval_1d(r, axis[:, None], axis[None, :])
            assert float(np.min(vals)) >= -1e-12

    def test_unit_mass_at_x1(self):
        """Integrating the slice at x=1 against the measure gives 1."""
        for r in (1, 4, 9):
            ys = chebyshev_nodes(r + 1)
            total = float(np.mean(kernel_eval_1d(r, 1.0, ys)))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_nd_product_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-1, 1, 2)
            y = rng.uniform(-1, 1, 2)
            direct = kernel_eval_nd(3, x, y)
            product = kernel_eval_1d(3, x[0], y[0]) * kernel_eval_1d(3, x[1], y[1])
            assert direct == pytest.approx(product, rel=1e-12)

    def test_scalar_points_give_floats(self):
        """Scalar x and y give a Python float, bit-equal to the array path;
        kernel_eval_nd is then the float product of its axes."""
        value = kernel_eval_1d(3, 0.2, 0.3)
        assert type(value) is float
        assert value == kernel_eval_1d(3, np.array([0.2]), np.array([0.3]))[0]
        assert type(kernel_eval_1d(3, np.float64(0.2), 0.3)) is float
        assert kernel_eval_1d(3, 0.2, np.array([0.3])).shape == (1,)
        direct = kernel_eval_nd(3, (0.2, 0.1), (0.3, 0.4))
        assert type(direct) is float
        assert direct == value * kernel_eval_1d(3, 0.1, 0.4)

    def test_corner_value_r1(self):
        assert kernel_eval_nd(1, (1.0, 1.0), (1.0, 1.0)) == pytest.approx(4.0)

    def test_nd_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval_nd(2, (0.0, 0.0), (0.0,))

    def test_kernel_reproduces_eigenvalues(self):
        """Quadrature transform of T_k through the kernel scales by lambda_k."""
        r = 8
        ys = chebyshev_nodes(r + 1)
        ws = np.full(r + 1, 1.0 / (r + 1))
        rng = np.random.default_rng(1)
        xs = rng.uniform(-1, 1, 20)
        for k in range(r + 1):
            tk = ChebPoly.basis(1, (k,))
            tk_at_nodes = np.array([tk.eval((y,)) for y in ys])
            lam = jackson_lambda(k, r)
            for x in xs:
                transformed = float(np.sum(
                    ws * kernel_eval_1d(r, x, ys) * tk_at_nodes))
                assert transformed == pytest.approx(lam * tk.eval((x,)),
                                                    abs=1e-10)


class TestPropertyReport:
    def test_r5_d4_passes(self):
        report = verify_prop21(5, 4)
        assert report.ok
        assert report.kernel_min >= -1e-12
        assert report.lambda_max <= 1.0

    def test_r1_d1_margin(self):
        report = verify_prop21(1, 1, grid=51)
        assert report.ok
        # 1 - lambda_1 = 1 - cos(pi/3) = 1/2 against bound pi^2/9
        bound = math.pi ** 2 / 9
        assert report.decay_margin == pytest.approx(bound - 0.5, abs=1e-12)

    def test_r200_d10_bound(self):
        report = verify_prop21(200, 10, grid=11)
        bound = math.pi ** 2 * 100 / 202 ** 2
        assert bound == pytest.approx(0.02419, abs=1e-5)
        assert report.decay_ok
        assert report.decay_margin >= 0.0

    def test_requires_d_le_r(self):
        with pytest.raises(ValueError):
            verify_prop21(3, 4)

    @pytest.mark.parametrize("d", [-1, -5])
    def test_refuses_negative_degree(self, d):
        with pytest.raises(ValueError, match="need 0 <= d <= r"):
            verify_prop21(5, d)

    @pytest.mark.parametrize("r, d", [(5, 4), (40, 12), (200, 10)])
    def test_decay_margin_is_per_k(self, r, d):
        """The margin is min over 1 <= k <= d of pi^2 k^2 / (r+2)^2 - (1 - lambda_k),
        each k against its own bound."""
        margins = [math.pi ** 2 * k ** 2 / (r + 2) ** 2 - (1.0 - jackson_lambda(k, r))
                   for k in range(1, d + 1)]
        assert verify_prop21(r, d, grid=11).decay_margin == pytest.approx(
            min(margins), abs=1e-15)

    def test_decay_margin_zero_at_d0(self):
        assert verify_prop21(3, 0, grid=11).decay_margin == 0.0

    @pytest.mark.parametrize("r, d, grid", [(498, 1, 201), (598, 1, 201), (398, 1, 401)])
    def test_rounding_of_a_nonnegative_kernel_passes(self, r, d, grid):
        """The tolerance is -1e-12 K_r(1, 1), K_r(1, 1) = 1 + 2 sum lambda_k,
        since the rounding of a sum of 2r + 1 terms grows with r: here the
        least sample lies below -1e-12 (-2.44e-12 at r = 598), far inside
        the relative tolerance (-4.9e-10 at r = 598)."""
        report = verify_prop21(r, d, grid)
        assert report.kernel_min < -1e-12
        assert report.nonneg_ok and report.ok

    def test_dirichlet_kernel_is_refused(self, monkeypatch):
        """With every lambda_k = 1 the kernel is Dirichlet's, which goes
        negative (-8.9 at r = 20, against K_r(1, 1) = 41): refused."""
        monkeypatch.setattr(jackson, "_lambdas", lambda r, d: (1.0,) * (d + 1))
        report = verify_prop21(20, 1, 101)
        assert report.kernel_min < -1.0
        assert not report.nonneg_ok and not report.ok
